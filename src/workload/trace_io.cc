#include "workload/trace_io.hh"

#include <array>
#include <cstring>

#include "util/logging.hh"
#include "util/simd.hh"
#include "util/varint.hh"

namespace gdiff {
namespace workload {

namespace {

constexpr uint32_t traceMagic = 0x52544447;  // "GDTR" little-endian
constexpr uint32_t footerMagic = 0x33544447; // "GDT3" little-endian

struct FileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
};
static_assert(sizeof(FileHeader) == 16, "header layout");

/** v3 per-block header: record count, payload length, payload digest. */
struct BlockHeaderV3
{
    uint32_t n;
    uint32_t payloadBytes;
    uint64_t digest;
};
static_assert(sizeof(BlockHeaderV3) == 16, "block header layout");

/** v3 trailer: whole-file integrity for persistent cache entries. */
struct FooterV3
{
    uint32_t magic;
    uint32_t reserved;
    uint64_t digest; ///< FNV-1a over every block byte
};
static_assert(sizeof(FooterV3) == 16, "footer layout");

/// per-column codec tags (v3)
enum ColumnCodec : uint8_t
{
    codecRaw = 0,         ///< native-width little-endian elements
    codecDeltaVarint = 1, ///< zigzag-varint consecutive deltas
    codecDeltaRle = 2,    ///< run-length coded deltas (stride spans)
    codecByteRle = 3,     ///< run-length coded bytes (u8 columns)
    /// phase-transposed deltaRle: varint period L, then deltaRle of
    /// the column split into L interleaved subsequences. A loop of L
    /// instructions interleaves L per-PC streams in the global
    /// column; transposing recovers each stream's *local* stride, so
    /// a constant-stride loop collapses to one run per phase — the
    /// paper's global-vs-local stride observation, used as a codec.
    codecDeltaRleT = 4,
    /// phase-transposed byteRle (periodic op/reg/flag columns)
    codecByteRleT = 5,
    /// phase-transposed deltaVarint: for columns where some phases
    /// are noisy (no runs to collapse), one varint per element beats
    /// deltaRle's (delta, run) pair — smaller and faster to decode
    codecDeltaVarintT = 6,
};

/// longest phase period the encoder searches for — long enough for
/// multi-iteration cycles (a loop whose phases take different paths
/// repeats only once per full cycle of iterations)
constexpr uint32_t maxPeriod = 48;

/// elements scored per candidate period (a prefix is plenty to find
/// the loop length, and bounds the O(n * maxPeriod) search)
constexpr uint32_t periodScanWindow = 2048;

/// columns per block, in on-disk order: op, rd, rs1, rs2, flags,
/// target, imm, seq, pc, nextPc, value, effAddr
constexpr unsigned numColumns = 12;

/// bytes one record occupies across the raw v2 columns
constexpr size_t v2RecordBytes = 5 * 1 + 4 + 6 * 8;

/// upper bound on a v3 block payload: the encoder never emits a
/// column larger than its raw form, plus 5 bytes of tag+length
/// framing per column — anything bigger is corrupt by construction
constexpr size_t maxV3PayloadBytes =
    v2RecordBytes * TraceChunk::capacity + numColumns * 5;

/**
 * One on-disk block's instruction fields in scalar columns, so the
 * layout is independent of isa::Instruction's padding. Doubles as
 * gather (write) and scatter (read) scratch.
 */
struct BlockColumns
{
    std::array<uint8_t, TraceChunk::capacity> op, rd, rs1, rs2;
    std::array<uint32_t, TraceChunk::capacity> target;
    std::array<int64_t, TraceChunk::capacity> imm;
};

/** Gather @p chunk's instruction fields into scalar columns. */
void
gatherInstColumns(const TraceChunk &chunk, BlockColumns &cols)
{
    for (uint32_t i = 0; i < chunk.size; ++i) {
        const isa::Instruction &in = chunk.inst[i];
        cols.op[i] = static_cast<uint8_t>(in.op);
        cols.rd[i] = in.rd;
        cols.rs1[i] = in.rs1;
        cols.rs2[i] = in.rs2;
        cols.target[i] = in.target;
        cols.imm[i] = in.imm;
    }
}

/** Scatter decoded scalar columns back into @p chunk's instructions. */
void
scatterInstColumns(TraceChunk &chunk, const BlockColumns &cols,
                   uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        isa::Instruction &in = chunk.inst[i];
        in.op = static_cast<isa::Opcode>(cols.op[i]);
        in.rd = cols.rd[i];
        in.rs1 = cols.rs1[i];
        in.rs2 = cols.rs2[i];
        in.target = cols.target[i];
        in.imm = cols.imm[i];
    }
}

void
appendLE32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t
readLE32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Reorder @p v into @p t as L interleaved phase subsequences. */
template <typename T>
void
transposePhases(const T *v, uint32_t n, uint32_t L, T *t)
{
    size_t idx = 0;
    for (uint32_t p = 0; p < L; ++p)
        for (uint32_t i = p; i < n; i += L)
            t[idx++] = v[i];
}

/** Inverse of transposePhases(). */
template <typename T>
void
untransposePhases(const T *t, uint32_t n, uint32_t L, T *v)
{
    size_t idx = 0;
    for (uint32_t p = 0; p < L; ++p)
        for (uint32_t i = p; i < n; i += L)
            v[i] = t[idx++];
}

/**
 * @return the period L (2..maxPeriod) at which the column's lag-L
 * deltas are most nearly constant per phase, or 1 when no period
 * shows a useful signal. Even a partial signal (a loop where only
 * some phases stride regularly) is worth transposing — the final
 * choice is by encoded size, so a bad guess costs nothing on disk.
 */
uint32_t
bestWidePeriod(const uint64_t *v, uint32_t n)
{
    if (n < 4 * 2)
        return 1;
    const uint32_t window = n < periodScanWindow ? n : periodScanWindow;
    uint32_t bestL = 1;
    uint64_t bestScore = 0;
    for (uint32_t L = 2; L <= maxPeriod && 2 * L < window; ++L) {
        // Lane kernel for the lag-L second-difference count: this
        // scan runs once per candidate period for every encoded
        // block and every profiled sampling window, and is the
        // dominant cost of both callers.
        uint64_t score = simd::countSecondDiffZero(v, window, L);
        // Normalize so long and short periods compete fairly within
        // the shared window.
        score = score * window / (window - 2 * L);
        if (score > bestScore && score * 8 >= window) {
            bestScore = score;
            bestL = L;
        }
    }
    return bestL;
}

/** Same idea for u8 columns: lag-L equality instead of lag-L deltas. */
uint32_t
bestBytePeriod(const uint8_t *v, uint32_t n)
{
    if (n < 4 * 2)
        return 1;
    const uint32_t window = n < periodScanWindow ? n : periodScanWindow;
    uint32_t bestL = 1;
    uint64_t bestScore = 0;
    for (uint32_t L = 2; L <= maxPeriod && L < window; ++L) {
        uint64_t score = 0;
        for (uint32_t i = L; i < window; ++i)
            score += v[i] == v[i - L];
        score = score * window / (window - L);
        if (score > bestScore && score * 8 >= window) {
            bestScore = score;
            bestL = L;
        }
    }
    return bestL;
}

TraceIoResult
ioError(TraceIoStatus status, std::string message)
{
    return TraceIoResult{status, std::move(message)};
}

} // anonymous namespace

uint32_t
detectStridePeriod(const uint64_t *v, uint32_t n)
{
    return bestWidePeriod(v, n);
}

namespace detail {

/** Heap scratch for block decoding (~250 KiB, reused per reader). */
struct TraceDecodeScratch
{
    BlockColumns cols;
    /// wide-lane staging for delta-decoded 64-bit columns
    std::array<uint64_t, TraceChunk::capacity> lanes;
    /// staging for phase-transposed codecs (decoded before the
    /// un-transpose pass)
    std::array<uint64_t, TraceChunk::capacity> lanesT;
    std::array<uint8_t, TraceChunk::capacity> bytesT;
};

} // namespace detail

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
    case TraceIoStatus::Ok: return "ok";
    case TraceIoStatus::End: return "end";
    case TraceIoStatus::IoError: return "io_error";
    case TraceIoStatus::Truncated: return "truncated";
    case TraceIoStatus::BadMagic: return "bad_magic";
    case TraceIoStatus::BadVersion: return "bad_version";
    case TraceIoStatus::Corrupt: return "corrupt";
    case TraceIoStatus::DigestMismatch: return "digest_mismatch";
    }
    return "unknown";
}

// -------------------------------------------------- shared decoding

namespace {

/**
 * Decode one v3 column payload into @p dest64 lanes (wide columns)
 * or @p dest8 bytes (u8 columns). Exactly one of dest64/dest8 is
 * non-null; @p elemBytes is the raw element width (1, 4, or 8).
 * @return false on any structural violation.
 */
/** Parse a transposed-codec prefix: the phase period L. */
bool
getPeriod(const uint8_t *&data, uint32_t &len, uint32_t n,
          uint32_t *period)
{
    uint64_t L = 0;
    size_t used = codec::getVarint(data, data + len, &L);
    if (used == 0 || L < 2 || L > n)
        return false;
    data += used;
    len -= static_cast<uint32_t>(used);
    *period = static_cast<uint32_t>(L);
    return true;
}

bool
decodeColumn(uint8_t tag, const uint8_t *data, uint32_t len,
             uint32_t n, size_t elemBytes, uint64_t *dest64,
             uint8_t *dest8, detail::TraceDecodeScratch &s)
{
    if (dest8) {
        switch (tag) {
        case codecRaw:
            if (len != n)
                return false;
            std::memcpy(dest8, data, n);
            return true;
        case codecByteRle:
            return codec::decodeByteRle(data, len, dest8, n);
        case codecByteRleT: {
            uint32_t L = 0;
            if (!getPeriod(data, len, n, &L))
                return false;
            if (!codec::decodeByteRle(data, len, s.bytesT.data(), n))
                return false;
            untransposePhases(s.bytesT.data(), n, L, dest8);
            return true;
        }
        default:
            return false; // delta codecs never apply to u8 columns
        }
    }
    switch (tag) {
    case codecRaw: {
        if (len != elemBytes * n)
            return false;
        if (elemBytes == 8) {
            std::memcpy(dest64, data, len);
        } else { // widen raw u32 elements into the lanes
            for (uint32_t i = 0; i < n; ++i)
                dest64[i] = readLE32(data + size_t(i) * 4);
        }
        return true;
    }
    case codecDeltaVarint:
        return codec::decodeDeltaVarint(data, len, dest64, n);
    case codecDeltaRle:
        return codec::decodeDeltaRle(data, len, dest64, n);
    case codecDeltaRleT:
    case codecDeltaVarintT: {
        uint32_t L = 0;
        if (!getPeriod(data, len, n, &L))
            return false;
        bool ok = tag == codecDeltaRleT
                      ? codec::decodeDeltaRle(data, len,
                                              s.lanesT.data(), n)
                      : codec::decodeDeltaVarint(data, len,
                                                 s.lanesT.data(), n);
        if (!ok)
            return false;
        untransposePhases(s.lanesT.data(), n, L, dest64);
        return true;
    }
    default:
        return false;
    }
}

/**
 * Decode a complete v3 column section (@p bytes bytes at @p payload)
 * into @p chunk. On failure @p why names the offending column.
 */
bool
decodeColumnsV3(const uint8_t *payload, size_t bytes, uint32_t n,
                TraceChunk &chunk, detail::TraceDecodeScratch &s,
                std::string *why)
{
    const uint8_t *p = payload;
    const uint8_t *end = payload + bytes;

    struct ColumnDest
    {
        const char *name;
        size_t elemBytes;
        uint64_t *dest64;
        uint8_t *dest8;
    };
    // On-disk column order. Wide signed/narrow columns stage through
    // scratch lanes; unsigned 64-bit columns decode in place.
    const ColumnDest columns[numColumns] = {
        {"op", 1, nullptr, s.cols.op.data()},
        {"rd", 1, nullptr, s.cols.rd.data()},
        {"rs1", 1, nullptr, s.cols.rs1.data()},
        {"rs2", 1, nullptr, s.cols.rs2.data()},
        {"flags", 1, nullptr, chunk.flags.data()},
        {"target", 4, s.lanes.data(), nullptr},
        {"imm", 8, s.lanes.data(), nullptr},
        {"seq", 8, chunk.seq.data(), nullptr},
        {"pc", 8, chunk.pc.data(), nullptr},
        {"nextPc", 8, chunk.nextPc.data(), nullptr},
        {"value", 8, s.lanes.data(), nullptr},
        {"effAddr", 8, chunk.effAddr.data(), nullptr},
    };

    for (unsigned c = 0; c < numColumns; ++c) {
        const ColumnDest &col = columns[c];
        if (end - p < 5) {
            *why = "column directory truncated";
            return false;
        }
        uint8_t tag = p[0];
        uint32_t len = readLE32(p + 1);
        p += 5;
        if (static_cast<size_t>(end - p) < len) {
            *why = std::string("column '") + col.name +
                   "' overruns the block payload";
            return false;
        }
        if (!decodeColumn(tag, p, len, n, col.elemBytes, col.dest64,
                          col.dest8, s)) {
            *why = std::string("column '") + col.name +
                   "' payload is malformed";
            return false;
        }
        p += len;

        // Move staged lanes into their typed destinations.
        if (col.dest64 == s.lanes.data()) {
            if (col.name[0] == 't') { // target
                for (uint32_t i = 0; i < n; ++i)
                    s.cols.target[i] =
                        static_cast<uint32_t>(s.lanes[i]);
            } else if (col.name[0] == 'i') { // imm
                std::memcpy(s.cols.imm.data(), s.lanes.data(),
                            size_t(n) * 8);
            } else { // value
                std::memcpy(chunk.value.data(), s.lanes.data(),
                            size_t(n) * 8);
            }
        }
    }
    if (p != end) {
        *why = "trailing bytes after the last column";
        return false;
    }
    scatterInstColumns(chunk, s.cols, n);
    chunk.size = n;
    return true;
}

/** Decode a raw v2 column section (exactly v2RecordBytes*n bytes). */
void
decodeColumnsV2(const uint8_t *p, uint32_t n, TraceChunk &chunk,
                detail::TraceDecodeScratch &s)
{
    auto take = [&](void *dest, size_t elemBytes) {
        std::memcpy(dest, p, elemBytes * n);
        p += elemBytes * n;
    };
    take(s.cols.op.data(), 1);
    take(s.cols.rd.data(), 1);
    take(s.cols.rs1.data(), 1);
    take(s.cols.rs2.data(), 1);
    take(chunk.flags.data(), 1);
    take(s.cols.target.data(), 4);
    take(s.cols.imm.data(), 8);
    take(chunk.seq.data(), 8);
    take(chunk.pc.data(), 8);
    take(chunk.nextPc.data(), 8);
    take(chunk.value.data(), 8);
    take(chunk.effAddr.data(), 8);
    scatterInstColumns(chunk, s.cols, n);
    chunk.size = n;
}

/** Validate a file header; fills @p version/@p count on success. */
TraceIoResult
checkHeader(const FileHeader &h, const std::string &name,
            uint32_t maxVersion, uint32_t *version, uint64_t *count)
{
    if (h.magic != traceMagic) {
        return ioError(TraceIoStatus::BadMagic,
                       formatString("%s is not a gdiff trace (bad "
                                    "magic)",
                                    name.c_str()));
    }
    if (h.version < traceVersionMin || h.version > maxVersion) {
        return ioError(
            TraceIoStatus::BadVersion,
            formatString("%s has format version %u; this reader "
                         "supports versions %u..%u",
                         name.c_str(), h.version, traceVersionMin,
                         maxVersion));
    }
    *version = h.version;
    *count = h.count;
    return TraceIoResult{};
}

} // anonymous namespace

// ----------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(const std::string &p, uint32_t version)
    : path(p), ver(version), fileDigest(codec::fnvOffsetBasis)
{
    GDIFF_ASSERT(ver == traceVersionV2 || ver == traceVersionV3,
                 "unsupported trace write version %u", ver);
    file = std::fopen(path.c_str(), "wb");
    if (!file) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot create trace file '%s'",
                                  path.c_str()));
        return;
    }
    FileHeader h{traceMagic, ver, 0};
    writeRaw(&h, sizeof(h), "header");
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const TraceRecord &r)
{
    if (st.failed())
        return;
    GDIFF_ASSERT(file != nullptr, "append to a closed TraceWriter");
    if (!pending)
        pending = std::make_unique<TraceChunk>();
    pending->push(r);
    ++count;
    if (pending->full())
        flushPending();
}

void
TraceWriter::append(const TraceChunk &chunk)
{
    if (st.failed())
        return;
    GDIFF_ASSERT(file != nullptr, "append to a closed TraceWriter");
    if (chunk.empty())
        return;
    // Flush the partial per-record block first so records stay in
    // stream order whatever mix of append() overloads fed the file.
    flushPending();
    writeBlock(chunk);
    count += chunk.size;
}

void
TraceWriter::flushPending()
{
    if (!pending || pending->empty())
        return;
    writeBlock(*pending); // records were counted as they arrived
    pending->clear();
}

void
TraceWriter::writeRaw(const void *data, size_t bytes, const char *what)
{
    if (st.failed() || bytes == 0)
        return;
    if (std::fwrite(data, 1, bytes, file) != bytes) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot write trace %s to '%s'", what,
                                  path.c_str()));
    }
}

void
TraceWriter::writeBlock(const TraceChunk &chunk)
{
    const uint32_t n = chunk.size;
    GDIFF_ASSERT(n > 0 && n <= TraceChunk::capacity,
                 "trace block size %u out of range", n);
    if (st.failed())
        return;
    auto writeCol = [&](const void *data, size_t bytes) {
        writeRaw(data, bytes, "block");
    };

    auto cols = std::make_unique<BlockColumns>();
    gatherInstColumns(chunk, *cols);

    if (ver == traceVersionV2) {
        writeCol(&n, sizeof(n));
        writeCol(cols->op.data(), n);
        writeCol(cols->rd.data(), n);
        writeCol(cols->rs1.data(), n);
        writeCol(cols->rs2.data(), n);
        writeCol(chunk.flags.data(), n);
        writeCol(cols->target.data(), size_t(n) * 4);
        writeCol(cols->imm.data(), size_t(n) * 8);
        writeCol(chunk.seq.data(), size_t(n) * 8);
        writeCol(chunk.pc.data(), size_t(n) * 8);
        writeCol(chunk.nextPc.data(), size_t(n) * 8);
        writeCol(chunk.value.data(), size_t(n) * 8);
        writeCol(chunk.effAddr.data(), size_t(n) * 8);
        return;
    }

    // v3: encode each column, keeping the smallest of the candidate
    // encodings, raw included — incompressible columns cost only the
    // 5-byte tag+length framing over v2.
    payload.clear();
    auto putTagged = [&](uint8_t tag, const uint8_t *data,
                         size_t bytes) {
        payload.push_back(tag);
        appendLE32(payload, static_cast<uint32_t>(bytes));
        payload.insert(payload.end(), data, data + bytes);
    };
    auto lanes = std::make_unique<
        std::array<uint64_t, TraceChunk::capacity>>();
    auto transposed = std::make_unique<
        std::array<uint64_t, TraceChunk::capacity>>();
    auto bytesT = std::make_unique<
        std::array<uint8_t, TraceChunk::capacity>>();

    auto putU8 = [&](const uint8_t *col) {
        candA.clear();
        codec::encodeByteRle(col, n, candA);
        candC.clear();
        uint32_t L = bestBytePeriod(col, n);
        if (L > 1) { // periodic u8 stream: RLE each phase
            codec::putVarint(candC, L);
            transposePhases(col, n, L, bytesT->data());
            codec::encodeByteRle(bytesT->data(), n, candC);
        }
        size_t best = std::min<size_t>(n, candA.size());
        if (!candC.empty())
            best = std::min(best, candC.size());
        if (!candC.empty() && candC.size() == best)
            putTagged(codecByteRleT, candC.data(), candC.size());
        else if (candA.size() == best)
            putTagged(codecByteRle, candA.data(), candA.size());
        else
            putTagged(codecRaw, col, n);
    };
    auto putWide = [&](const uint64_t *v, const void *raw,
                       size_t elemBytes) {
        candA.clear();
        codec::encodeDeltaVarint(v, n, candA);
        candB.clear();
        codec::encodeDeltaRle(v, n, candB);
        candC.clear();
        candD.clear();
        uint32_t L = bestWidePeriod(v, n);
        if (L > 1) { // interleaved strides: encode each phase
            transposePhases(v, n, L, transposed->data());
            codec::putVarint(candC, L);
            codec::encodeDeltaRle(transposed->data(), n, candC);
            codec::putVarint(candD, L);
            codec::encodeDeltaVarint(transposed->data(), n, candD);
        }
        size_t rawBytes = elemBytes * n;
        size_t best = std::min(rawBytes,
                               std::min(candA.size(), candB.size()));
        if (!candC.empty())
            best = std::min(best, std::min(candC.size(),
                                           candD.size()));
        if (!candC.empty() && candC.size() == best)
            putTagged(codecDeltaRleT, candC.data(), candC.size());
        else if (!candD.empty() && candD.size() == best)
            putTagged(codecDeltaVarintT, candD.data(), candD.size());
        else if (candB.size() == best)
            putTagged(codecDeltaRle, candB.data(), candB.size());
        else if (candA.size() == best)
            putTagged(codecDeltaVarint, candA.data(), candA.size());
        else
            putTagged(codecRaw, static_cast<const uint8_t *>(raw),
                      rawBytes);
    };

    auto widen32 = [&](const uint32_t *src) {
        for (uint32_t i = 0; i < n; ++i)
            (*lanes)[i] = src[i];
        return lanes->data();
    };

    putU8(cols->op.data());
    putU8(cols->rd.data());
    putU8(cols->rs1.data());
    putU8(cols->rs2.data());
    putU8(chunk.flags.data());
    putWide(widen32(cols->target.data()), cols->target.data(), 4);
    putWide(reinterpret_cast<const uint64_t *>(cols->imm.data()),
            cols->imm.data(), 8);
    putWide(chunk.seq.data(), chunk.seq.data(), 8);
    putWide(chunk.pc.data(), chunk.pc.data(), 8);
    putWide(chunk.nextPc.data(), chunk.nextPc.data(), 8);
    putWide(reinterpret_cast<const uint64_t *>(chunk.value.data()),
            chunk.value.data(), 8);
    putWide(chunk.effAddr.data(), chunk.effAddr.data(), 8);

    BlockHeaderV3 bh{n, static_cast<uint32_t>(payload.size()),
                     codec::fnv1a(payload.data(), payload.size())};
    fileDigest = codec::fnv1a(&bh, sizeof(bh), fileDigest);
    fileDigest =
        codec::fnv1a(payload.data(), payload.size(), fileDigest);
    writeCol(&bh, sizeof(bh));
    writeCol(payload.data(), payload.size());
}

TraceIoResult
TraceWriter::close()
{
    if (!file)
        return st;
    flushPending();
    if (ver == traceVersionV3) {
        FooterV3 foot{footerMagic, 0, fileDigest};
        writeRaw(&foot, sizeof(foot), "footer");
    }
    // Finalise the record count in the header.
    if (!st.failed() && std::fseek(file, 0, SEEK_SET) != 0) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot finalise trace header in "
                                  "'%s'",
                                  path.c_str()));
    }
    FileHeader h{traceMagic, ver, count};
    writeRaw(&h, sizeof(h), "header");
    // fclose() flushes the stdio buffer: a full disk can surface here.
    if (std::fclose(file) != 0 && !st.failed()) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot close trace file '%s'",
                                  path.c_str()));
    }
    file = nullptr;
    return st;
}

// ----------------------------------------------------- TraceReader

TraceReader::TraceReader()
    : last(ioError(TraceIoStatus::IoError,
                   "read from an unopened trace reader")),
      scratch(std::make_unique<detail::TraceDecodeScratch>())
{}

TraceReader::~TraceReader()
{
    reset();
}

void
TraceReader::reset()
{
    if (file)
        std::fclose(file);
    file = nullptr;
    image = cursor = end = nullptr;
    resetBuffer();
}

TraceIoResult
TraceReader::open(const std::string &path, uint32_t maxVersion)
{
    reset();
    name = formatString("trace '%s'", path.c_str());
    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        return last = ioError(TraceIoStatus::IoError,
                              formatString("cannot open trace file "
                                           "'%s'",
                                           path.c_str()));
    }
    return start(maxVersion);
}

TraceIoResult
TraceReader::open(const uint8_t *data, size_t size,
                  uint32_t maxVersion)
{
    reset();
    name = "trace image";
    image = cursor = data;
    end = data + size;
    return start(maxVersion);
}

TraceIoResult
TraceReader::start(uint32_t maxVersion)
{
    const uint8_t *p = take(sizeof(FileHeader));
    if (!p) {
        last = ioError(TraceIoStatus::Truncated,
                       formatString("%s is truncated (missing header)",
                                    name.c_str()));
    } else {
        FileHeader h{};
        std::memcpy(&h, p, sizeof(h));
        last = checkHeader(h, name, maxVersion, &ver, &total);
    }
    if (last.failed())
        reset();
    consumed = 0;
    runningDigest = codec::fnvOffsetBasis;
    return last;
}

const uint8_t *
TraceReader::take(size_t n)
{
    if (!file) {
        if (static_cast<size_t>(end - cursor) < n)
            return nullptr;
        const uint8_t *p = cursor;
        cursor += n;
        return p;
    }
    if (blockBuf.size() < n)
        blockBuf.resize(n);
    if (std::fread(blockBuf.data(), 1, n, file) != n)
        return nullptr;
    return blockBuf.data();
}

TraceIoResult
TraceReader::read(TraceChunk &chunk)
{
    chunk.clear();
    if (last.ok())
        last = readBlock(chunk);
    return last;
}

TraceIoResult
TraceReader::readBlock(TraceChunk &chunk)
{
    auto truncated = [&]() {
        return ioError(
            TraceIoStatus::Truncated,
            formatString("%s truncated after %llu of %llu records",
                         name.c_str(),
                         static_cast<unsigned long long>(consumed),
                         static_cast<unsigned long long>(total)));
    };

    if (consumed >= total) {
        if (ver == traceVersionV3) {
            const uint8_t *p = take(sizeof(FooterV3));
            if (!p) {
                return ioError(TraceIoStatus::Truncated,
                               formatString("%s is truncated (missing "
                                            "footer)",
                                            name.c_str()));
            }
            FooterV3 foot{};
            std::memcpy(&foot, p, sizeof(foot));
            if (foot.magic != footerMagic) {
                return ioError(TraceIoStatus::Corrupt,
                               formatString("%s has a corrupt footer",
                                            name.c_str()));
            }
            if (foot.digest != runningDigest) {
                return ioError(
                    TraceIoStatus::DigestMismatch,
                    formatString("%s file digest mismatch (corrupt or "
                                 "tampered stream)",
                                 name.c_str()));
            }
        }
        return ioError(TraceIoStatus::End, "");
    }

    if (ver == traceVersionV2) {
        const uint8_t *p = take(sizeof(uint32_t));
        if (!p)
            return truncated();
        uint32_t n = readLE32(p);
        if (n == 0 || n > TraceChunk::capacity ||
            n > total - consumed) {
            return ioError(TraceIoStatus::Corrupt,
                           formatString("%s has a corrupt block of %u "
                                        "records",
                                        name.c_str(), n));
        }
        p = take(v2RecordBytes * n);
        if (!p)
            return truncated();
        decodeColumnsV2(p, n, chunk, *scratch);
        consumed += n;
        return TraceIoResult{};
    }

    const uint8_t *p = take(sizeof(BlockHeaderV3));
    if (!p)
        return truncated();
    BlockHeaderV3 bh{};
    std::memcpy(&bh, p, sizeof(bh));
    if (bh.n == 0 || bh.n > TraceChunk::capacity ||
        bh.n > total - consumed || bh.payloadBytes == 0 ||
        bh.payloadBytes > maxV3PayloadBytes) {
        return ioError(
            TraceIoStatus::Corrupt,
            formatString("%s has a corrupt block header (%u records, "
                         "%u payload bytes)",
                         name.c_str(), bh.n, bh.payloadBytes));
    }
    const uint8_t *payload = take(bh.payloadBytes);
    if (!payload)
        return truncated();
    if (codec::fnv1a(payload, bh.payloadBytes) != bh.digest) {
        return ioError(
            TraceIoStatus::DigestMismatch,
            formatString("%s block digest mismatch after %llu records",
                         name.c_str(),
                         static_cast<unsigned long long>(consumed)));
    }
    std::string why;
    if (!decodeColumnsV3(payload, bh.payloadBytes, bh.n, chunk,
                         *scratch, &why)) {
        return ioError(TraceIoStatus::Corrupt,
                       formatString("%s has a corrupt block: %s",
                                    name.c_str(), why.c_str()));
    }
    runningDigest = codec::fnv1a(&bh, sizeof(bh), runningDigest);
    runningDigest =
        codec::fnv1a(payload, bh.payloadBytes, runningDigest);
    consumed += bh.n;
    return TraceIoResult{};
}

TraceIoResult
TraceReader::rewind()
{
    if (file) {
        if (std::fseek(file, sizeof(FileHeader), SEEK_SET) != 0) {
            return last = ioError(TraceIoStatus::IoError,
                                  formatString("cannot rewind %s",
                                               name.c_str()));
        }
    } else if (image) {
        cursor = image + sizeof(FileHeader);
    } else {
        return last; // never opened, or the open failed
    }
    consumed = 0;
    runningDigest = codec::fnvOffsetBasis;
    resetBuffer();
    return last = TraceIoResult{};
}

} // namespace workload
} // namespace gdiff
