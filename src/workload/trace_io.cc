#include "workload/trace_io.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/varint.hh"
#include "util/worker_pool.hh"

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
storeLE32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t
readLE32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/**
 * Scatter @p t, a column stored as L interleaved phase subsequences
 * (the phase order of util/varint.hh), back into plain order in @p v.
 */
template <typename T>
void
untransposePhases(const T *t, uint32_t n, uint32_t L, T *v)
{
    size_t idx = 0;
    for (uint32_t p = 0; p < L; ++p)
        for (uint32_t i = p; i < n; i += L)
            v[i] = t[idx++];
}

/// elements a period scan counts between checks of its bound
constexpr uint32_t periodScanSlice = 256;

/**
 * The period search both column scans share. Candidate L's hits are
 * counted by @p count(begin, end, L) over the positions
 * [Span * L, window) of the scan window, whose first Span * L
 * elements have no lag partner. Its score is the hit count
 * normalized to the whole window, so long and short periods compete
 * fairly. @return the L (2..maxPeriod) with the highest score (the
 * smallest L on a tie) among those scoring at least an eighth of the
 * window, or 1 when none does.
 *
 * Hits are counted a slice at a time. Once even a hit at every
 * position left could not give L a winning score, L is dropped: the
 * result is the one a full count of every L would give.
 */
template <uint32_t Span, typename Count>
uint32_t
bestPeriod(uint32_t n, Count count)
{
    if (n < 4 * 2)
        return 1;
    const uint32_t window = n < periodScanWindow ? n : periodScanWindow;
    uint32_t bestL = 1;
    uint64_t bestScore = 0;
    for (uint32_t L = 2; L <= maxPeriod && Span * L < window; ++L) {
        const uint32_t first = Span * L;
        uint64_t hits = 0;
        for (uint32_t at = first;;) {
            const uint64_t most = hits + (window - at);
            const uint64_t score = most * window / (window - first);
            if (score <= bestScore || score * 8 < window)
                break; // L cannot win
            if (at == window) { // fully counted: L wins so far
                bestScore = score;
                bestL = L;
                break;
            }
            const uint32_t end = std::min(window, at + periodScanSlice);
            hits += count(at, end, L);
            at = end;
        }
    }
    return bestL;
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
    // Lane kernel for the lag-L second-difference count: this scan
    // runs for every encoded block and every profiled sampling
    // window, and is a large share of both callers' cost.
    return bestPeriod<2>(n, [v](uint32_t begin, uint32_t end,
                                uint32_t L) {
        return simd::countSecondDiffZero(v + begin - 2 * L,
                                         end - begin + 2 * L, L);
    });
}

/** Same idea for u8 columns: lag-L equality instead of lag-L deltas. */
uint32_t
bestBytePeriod(const uint8_t *v, uint32_t n)
{
    return bestPeriod<1>(n, [v](uint32_t begin, uint32_t end,
                                uint32_t L) {
        return simd::countLagEqualBytes(v + begin - L, end - begin + L,
                                        L);
    });
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

/**
 * Heap scratch for one block's columns (~250 KiB), one per thread
 * (threadScratch()), so no block allocates.
 */
struct TraceBlockScratch
{
    BlockColumns cols;
    /// wide-lane staging: delta-decoded 64-bit columns, and the u32
    /// target column widened for encoding
    std::array<uint64_t, TraceChunk::capacity> lanes;
    /// staging for phase-transposed codecs, decoded before the
    /// un-transpose pass (the encoder reads a column in phase order
    /// in place)
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
             uint8_t *dest8, detail::TraceBlockScratch &s)
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

/// v3 columns in on-disk order, with their raw element widths
struct ColumnInfo
{
    const char *name;
    uint32_t elemBytes;
};
constexpr ColumnInfo kColumns[numColumns] = {
    {"op", 1},    {"rd", 1},     {"rs1", 1},   {"rs2", 1},
    {"flags", 1}, {"target", 4}, {"imm", 8},   {"seq", 8},
    {"pc", 8},    {"nextPc", 8}, {"value", 8}, {"effAddr", 8},
};
/// indices into kColumns of the columns decoding treats specially
constexpr unsigned colTarget = 5, colImm = 6, colPc = 8, colValue = 10;

/** @return whether codec @p tag can encode a column of @p elemBytes. */
bool
tagFits(uint8_t tag, uint32_t elemBytes)
{
    if (elemBytes == 1)
        return tag == codecRaw || tag == codecByteRle ||
               tag == codecByteRleT;
    return tag == codecRaw || tag == codecDeltaVarint ||
           tag == codecDeltaRle || tag == codecDeltaRleT ||
           tag == codecDeltaVarintT;
}

/** One column's tag and encoded bytes inside a block payload. */
struct ColumnSpan
{
    uint8_t tag;
    const uint8_t *data;
    uint32_t len;
};

/**
 * Walk a v3 block's column directory (@p bytes bytes at @p payload,
 * @p n records): every column needs a tag valid for its width, a raw
 * column exactly its raw length, and the lengths must use up the
 * payload exactly. On failure @p why names the offending column.
 */
bool
splitColumns(const uint8_t *payload, size_t bytes, uint32_t n,
             ColumnSpan (&cols)[numColumns], std::string *why)
{
    const uint8_t *p = payload;
    const uint8_t *end = payload + bytes;
    for (unsigned c = 0; c < numColumns; ++c) {
        const ColumnInfo &col = kColumns[c];
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
        if (!tagFits(tag, col.elemBytes) ||
            (tag == codecRaw && len != size_t(col.elemBytes) * n)) {
            *why = formatString("column '%s' has a bad codec tag %u "
                                "or length %u",
                                col.name, tag, len);
            return false;
        }
        cols[c] = ColumnSpan{tag, p, len};
        p += len;
    }
    if (p != end) {
        *why = "trailing bytes after the last column";
        return false;
    }
    return true;
}

/**
 * Decode the columns of a split v3 block into @p chunk: all of them,
 * or with @p pcValueOnly just pc and value. On failure @p why names
 * the offending column.
 */
bool
decodeColumnsV3(const ColumnSpan (&cols)[numColumns], uint32_t n,
                TraceChunk &chunk, detail::TraceBlockScratch &s,
                bool pcValueOnly, std::string *why)
{
    // Signed and narrow columns stage through scratch lanes; unsigned
    // 64-bit columns, and value (int64_t may alias uint64_t), decode
    // in place.
    uint64_t *const dest64[numColumns] = {
        nullptr,
        nullptr,
        nullptr,
        nullptr,
        nullptr,
        s.lanes.data(), // target
        s.lanes.data(), // imm
        chunk.seq.data(),
        chunk.pc.data(),
        chunk.nextPc.data(),
        reinterpret_cast<uint64_t *>(chunk.value.data()),
        chunk.effAddr.data(),
    };
    uint8_t *const dest8[numColumns] = {
        s.cols.op.data(),  s.cols.rd.data(),  s.cols.rs1.data(),
        s.cols.rs2.data(), chunk.flags.data(),
    };

    for (unsigned c = 0; c < numColumns; ++c) {
        if (pcValueOnly && c != colPc && c != colValue)
            continue;
        const ColumnSpan &col = cols[c];
        if (!decodeColumn(col.tag, col.data, col.len, n,
                          kColumns[c].elemBytes, dest64[c], dest8[c],
                          s)) {
            *why = std::string("column '") + kColumns[c].name +
                   "' payload is malformed";
            return false;
        }
        if (c == colTarget) { // narrow the staged lanes
            for (uint32_t i = 0; i < n; ++i)
                s.cols.target[i] = static_cast<uint32_t>(s.lanes[i]);
        } else if (c == colImm) {
            std::memcpy(s.cols.imm.data(), s.lanes.data(),
                        size_t(n) * 8);
        }
    }
    if (!pcValueOnly)
        scatterInstColumns(chunk, s.cols, n);
    chunk.size = n;
    return true;
}

/** Validate a v3 block header against the records still promised. */
TraceIoResult
checkBlockHeader(const BlockHeaderV3 &bh, uint64_t remaining,
                 const std::string &name)
{
    if (bh.n == 0 || bh.n > TraceChunk::capacity || bh.n > remaining ||
        bh.payloadBytes == 0 || bh.payloadBytes > maxV3PayloadBytes) {
        return ioError(
            TraceIoStatus::Corrupt,
            formatString("%s has a corrupt block header (%u records, "
                         "%u payload bytes)",
                         name.c_str(), bh.n, bh.payloadBytes));
    }
    return TraceIoResult{};
}

/**
 * Fold a v3 block (header @p bh, then its payload) into the running
 * whole-file digest @p fileDigest, checking the payload against the
 * block digest in the same pass. @p consumed is for the message.
 */
TraceIoResult
digestBlock(const BlockHeaderV3 &bh, const uint8_t *payload,
            uint64_t *fileDigest, uint64_t consumed,
            const std::string &name)
{
    uint64_t block = codec::fnvOffsetBasis;
    uint64_t file = codec::fnv1a(&bh, sizeof(bh), *fileDigest);
    codec::fnv1aPair(payload, bh.payloadBytes, &block, &file);
    if (block != bh.digest) {
        return ioError(
            TraceIoStatus::DigestMismatch,
            formatString("%s block digest mismatch after %llu records",
                         name.c_str(),
                         static_cast<unsigned long long>(consumed)));
    }
    *fileDigest = file;
    return TraceIoResult{};
}

/** Check the v3 footer at @p p (nullptr: missing) against @p digest. */
TraceIoResult
checkFooter(const uint8_t *p, uint64_t digest, const std::string &name)
{
    if (!p) {
        return ioError(TraceIoStatus::Truncated,
                       formatString("%s is truncated (missing footer)",
                                    name.c_str()));
    }
    FooterV3 foot{};
    std::memcpy(&foot, p, sizeof(foot));
    if (foot.magic != footerMagic) {
        return ioError(TraceIoStatus::Corrupt,
                       formatString("%s has a corrupt footer",
                                    name.c_str()));
    }
    if (foot.digest != digest) {
        return ioError(TraceIoStatus::DigestMismatch,
                       formatString("%s file digest mismatch (corrupt or "
                                    "tampered stream)",
                                    name.c_str()));
    }
    return ioError(TraceIoStatus::End, "");
}

/// the calling thread's block scratch, for every encode and decode
detail::TraceBlockScratch &
threadScratch()
{
    thread_local std::unique_ptr<detail::TraceBlockScratch> s;
    if (!s)
        s = std::make_unique<detail::TraceBlockScratch>();
    return *s;
}

/** Decode a raw v2 column section (exactly v2RecordBytes*n bytes). */
void
decodeColumnsV2(const uint8_t *p, uint32_t n, TraceChunk &chunk,
                detail::TraceBlockScratch &s)
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

namespace {

/// block slots in a v3 writer's ring: the last committed block, whose
/// payload the file digest has yet to take, and up to encodeSlots - 1
/// blocks queued or encoding behind it
constexpr uint64_t encodeSlots = 8;

/** Encode one v3 block payload; defined with the writer below. */
size_t encodeV3Block(const TraceChunk &chunk,
                     detail::TraceBlockScratch &s, uint8_t *payload);

} // anonymous namespace

namespace detail {

/** One v3 block on its way through a writer's ring. */
struct TraceEncodeSlot
{
    /// the block's records, copied or swapped in (allocated on first
    /// use, by the calling thread)
    std::unique_ptr<TraceChunk> chunk;
    /// the encoded payload (maxV3PayloadBytes, allocated on first
    /// use, by the calling thread)
    std::unique_ptr<uint8_t[]> payload;
    uint32_t records = 0;
    size_t bytes = 0;
    /// whether to time the encode (obs::enabled() at submit), and
    /// the time, taken on the thread that encoded the block
    bool timed = false;
    uint64_t startNs = 0, encodeNs = 0;
    /// a pool worker finished the payload (guarded by the ring's lock)
    bool encoded = false;
};

/**
 * A v3 writer's encode ring. Block k uses slot k % encodeSlots. The
 * calling thread fills a slot, counts it submitted and posts a task to
 * the worker pool; whoever takes the oldest submitted block first, a
 * pool worker or the calling thread while it waits, encodes it and
 * marks it encoded; the calling thread commits blocks in order. The
 * writer and its pool tasks share the ring, so a task that runs after
 * the writer is gone finds nothing to take. Ring tasks allocate
 * nothing but their thread's scratch, once, and never touch the obs
 * registry.
 */
struct TraceEncodeRing
{
    std::array<TraceEncodeSlot, encodeSlots> slots;
    std::mutex lock;
    std::condition_variable encoded; ///< a worker finished a block
    uint64_t submitted = 0; ///< blocks handed over (guarded by lock)
    uint64_t taken = 0;     ///< blocks an encoder began (guarded by lock)
    uint64_t committed = 0; ///< blocks written (calling thread only)
};

} // namespace detail

namespace {

/** Encode @p chunk into @p slot, timing it when the slot asks. */
void
encodeSlot(detail::TraceEncodeSlot &slot, const TraceChunk &chunk,
           detail::TraceBlockScratch &s)
{
    slot.startNs = slot.timed ? obs::nowNs() : 0;
    slot.bytes = encodeV3Block(chunk, s, slot.payload.get());
    slot.encodeNs = slot.timed ? obs::nowNs() - slot.startNs : 0;
}

/**
 * Take the ring's oldest submitted block that no one has taken yet
 * and encode it with @p s, unlocking @p guard (held on @p r's lock)
 * meanwhile. @return false when every submitted block was taken.
 */
bool
encodeOneTaken(detail::TraceEncodeRing &r,
               std::unique_lock<std::mutex> &guard,
               detail::TraceBlockScratch &s)
{
    if (r.taken == r.submitted)
        return false;
    detail::TraceEncodeSlot &slot = r.slots[r.taken++ % encodeSlots];
    guard.unlock();
    encodeSlot(slot, *slot.chunk, s);
    guard.lock();
    slot.encoded = true;
    return true;
}

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &p, uint32_t version)
    : TraceWriter(p, version, std::nullopt)
{}

TraceWriter
TraceWriter::keepingImage(const std::string &p, uint64_t maxRecords)
{
    return TraceWriter(p, traceVersionV3, maxRecords);
}

TraceWriter::TraceWriter(const std::string &p, uint32_t version,
                         std::optional<uint64_t> imageRecords)
    : path(p), toImage(imageRecords.has_value()), ver(version),
      fileDigest(codec::fnvOffsetBasis)
{
    GDIFF_ASSERT(ver == traceVersionV2 || ver == traceVersionV3,
                 "unsupported trace write version %u", ver);
    if (ver == traceVersionV3)
        ring = std::make_shared<detail::TraceEncodeRing>();
    if (toImage) {
        // Every block is at most a header and maxV3PayloadBytes.
        constexpr size_t blockBound =
            sizeof(BlockHeaderV3) + maxV3PayloadBytes;
        constexpr size_t framing = sizeof(FileHeader) + sizeof(FooterV3);
        const uint64_t maxBlocks =
            (*imageRecords + TraceChunk::capacity - 1) /
            TraceChunk::capacity;
        try {
            if (maxBlocks > (SIZE_MAX - framing) / blockBound)
                throw std::bad_alloc();
            image.map = Mapping(static_cast<size_t>(maxBlocks) *
                                    blockBound +
                                framing);
            // Before the ring allocates: the index outlives the ring,
            // and grown after it, it would sit above the ring's freed
            // blocks in this thread's malloc arena and keep them from
            // being trimmed.
            blocks.reserve(static_cast<size_t>(maxBlocks));
        } catch (const std::bad_alloc &) {
            st = ioError(TraceIoStatus::IoError,
                         formatString("cannot reserve a trace image for "
                                      "%llu records",
                                      static_cast<unsigned long long>(
                                          *imageRecords)));
            return;
        }
    }
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
    appendBlock(chunk, nullptr);
}

void
TraceWriter::append(std::unique_ptr<TraceChunk> &chunk)
{
    appendBlock(*chunk, &chunk);
}

void
TraceWriter::appendBlock(const TraceChunk &chunk,
                         std::unique_ptr<TraceChunk> *take)
{
    if (st.failed())
        return;
    GDIFF_ASSERT(file != nullptr, "append to a closed TraceWriter");
    if (chunk.empty())
        return;
    // Flush the partial per-record block first so records stay in
    // stream order whatever mix of append() overloads fed the file.
    flushPending();
    count += chunk.size;
    writeBlock(chunk, take);
}

void
TraceWriter::flushPending()
{
    if (!pending || pending->empty())
        return;
    writeBlock(*pending, &pending); // counted as the records arrived
    pending->clear();
}

uint8_t *
TraceWriter::claim(size_t bytes)
{
    if (st.failed())
        return nullptr;
    if (bytes > image.map.size() - image.size) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("trace image outgrew its %zu-byte "
                                  "reservation",
                                  image.map.size()));
        return nullptr;
    }
    uint8_t *at = image.map.data() + image.size;
    image.size += bytes;
    return at;
}

void
TraceWriter::writeRaw(const void *data, size_t bytes, const char *what)
{
    if (toImage) {
        uint8_t *at = claim(bytes);
        if (!at)
            return;
        std::memcpy(at, data, bytes);
    }
    writeFile(data, bytes, what);
}

void
TraceWriter::writeFile(const void *data, size_t bytes, const char *what)
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
TraceWriter::writeBlock(const TraceChunk &chunk,
                        std::unique_ptr<TraceChunk> *take)
{
    GDIFF_ASSERT(chunk.size > 0 && chunk.size <= TraceChunk::capacity,
                 "trace block size %u out of range", chunk.size);
    if (st.failed())
        return;
    if (ver == traceVersionV3) {
        writeV3Block(chunk, take); // times each block where it encodes
        return;
    }
    // Accumulate locally; close() makes the one registry call.
    const bool timed = obs::enabled();
    const uint64_t t0 = timed ? obs::nowNs() : 0;
    writeV2Block(chunk);
    if (timed)
        addEncodeTime(t0, obs::nowNs() - t0);
}

void
TraceWriter::addEncodeTime(uint64_t startNs, uint64_t ns)
{
    if (encodeBlocks++ == 0)
        encodeStartNs = startNs;
    encodeNs += ns;
}

void
TraceWriter::writeV2Block(const TraceChunk &chunk)
{
    const uint32_t n = chunk.size;
    BlockColumns &cols = threadScratch().cols;
    gatherInstColumns(chunk, cols);
    auto writeCol = [&](const void *data, size_t bytes) {
        writeRaw(data, bytes, "block");
    };
    writeCol(&n, sizeof(n));
    writeCol(cols.op.data(), n);
    writeCol(cols.rd.data(), n);
    writeCol(cols.rs1.data(), n);
    writeCol(cols.rs2.data(), n);
    writeCol(chunk.flags.data(), n);
    writeCol(cols.target.data(), size_t(n) * 4);
    writeCol(cols.imm.data(), size_t(n) * 8);
    writeCol(chunk.seq.data(), size_t(n) * 8);
    writeCol(chunk.pc.data(), size_t(n) * 8);
    writeCol(chunk.nextPc.data(), size_t(n) * 8);
    writeCol(chunk.value.data(), size_t(n) * 8);
    writeCol(chunk.effAddr.data(), size_t(n) * 8);
}

namespace {

/**
 * Encode @p chunk as one v3 block payload into @p payload (room for
 * maxV3PayloadBytes): size every candidate encoding of each column
 * exactly, then encode only the smallest. Blocks are independent, so
 * any thread may run this with its own @p s. @return the payload's
 * length.
 */
size_t
encodeV3Block(const TraceChunk &chunk, detail::TraceBlockScratch &s,
              uint8_t *payload)
{
    // Every candidate encoding of a column, raw included, is sized
    // exactly first; only the smallest is then encoded, once, straight
    // into the payload. Incompressible columns cost only the 5-byte
    // tag+length framing over v2. Ties go to the earlier codec in
    // the order the branches below test them.
    const uint32_t n = chunk.size;
    gatherInstColumns(chunk, s.cols);
    uint8_t *out = payload;

    // Frame a column of @p bytes counted bytes under @p tag and let
    // @p encode write them; the write must fill the frame exactly.
    auto emit = [&](uint8_t tag, size_t bytes, auto &&encode) {
        out[0] = tag;
        storeLE32(out + 1, static_cast<uint32_t>(bytes));
        codec::WritingSink sink{out + 5};
        encode(sink);
        GDIFF_ASSERT(sink.p == out + 5 + bytes,
                     "column codec %u wrote %zu bytes, sized %zu",
                     static_cast<unsigned>(tag),
                     static_cast<size_t>(sink.p - out - 5), bytes);
        out = sink.p;
    };
    auto copyRaw = [](const void *raw, size_t bytes) {
        return [raw, bytes](codec::WritingSink &sink) {
            std::memcpy(sink.p, raw, bytes);
            sink.p += bytes;
        };
    };

    // A transposed candidate (L > 1) is its period, then its codec
    // over the column read in phase order in place. One that does not
    // apply sizes as SIZE_MAX, so it never wins.
    constexpr size_t absent = SIZE_MAX;

    // u8 columns: byteRleT, byteRle, raw.
    auto putU8 = [&](const uint8_t *col) {
        codec::CountingSink rle;
        codec::encodeByteRle(col, n, 1, rle);
        size_t rleT = absent;
        const uint32_t L = bestBytePeriod(col, n);
        if (L > 1) { // periodic u8 stream: RLE each phase
            codec::CountingSink phased;
            codec::encodeByteRle(col, n, L, phased);
            rleT = codec::varintBytes(L) + phased.bytes;
        }
        auto byteRle = [&](uint32_t period) {
            return [&, period](codec::WritingSink &sink) {
                if (period > 1)
                    codec::putVarint(sink, period);
                codec::encodeByteRle(col, n, period, sink);
            };
        };
        const size_t best = std::min({rleT, rle.bytes, size_t(n)});
        if (rleT == best)
            emit(codecByteRleT, best, byteRle(L));
        else if (rle.bytes == best)
            emit(codecByteRle, best, byteRle(1));
        else
            emit(codecRaw, n, copyRaw(col, n));
    };

    // Wide columns: deltaRleT, deltaVarintT, deltaRle, deltaVarint,
    // raw.
    auto putWide = [&](const uint64_t *v, const void *raw,
                       size_t elemBytes) {
        size_t varint = 0, rle = 0, varintT = absent, rleT = absent;
        codec::sizeDeltaCodecs(v, n, 1, &varint, &rle);
        const uint32_t L = bestWidePeriod(v, n);
        if (L > 1) { // interleaved strides: encode each phase
            codec::sizeDeltaCodecs(v, n, L, &varintT, &rleT);
            varintT += codec::varintBytes(L);
            rleT += codec::varintBytes(L);
        }
        auto deltas = [&](uint32_t period, bool runs) {
            return [&, period, runs](codec::WritingSink &sink) {
                if (period > 1)
                    codec::putVarint(sink, period);
                if (runs)
                    codec::encodeDeltaRle(v, n, period, sink);
                else
                    codec::encodeDeltaVarint(v, n, period, sink);
            };
        };
        const size_t rawBytes = elemBytes * n;
        const size_t best =
            std::min({rleT, varintT, rle, varint, rawBytes});
        if (rleT == best)
            emit(codecDeltaRleT, best, deltas(L, true));
        else if (varintT == best)
            emit(codecDeltaVarintT, best, deltas(L, false));
        else if (rle == best)
            emit(codecDeltaRle, best, deltas(1, true));
        else if (varint == best)
            emit(codecDeltaVarint, best, deltas(1, false));
        else
            emit(codecRaw, rawBytes, copyRaw(raw, rawBytes));
    };

    for (uint32_t i = 0; i < n; ++i)
        s.lanes[i] = s.cols.target[i];

    putU8(s.cols.op.data());
    putU8(s.cols.rd.data());
    putU8(s.cols.rs1.data());
    putU8(s.cols.rs2.data());
    putU8(chunk.flags.data());
    putWide(s.lanes.data(), s.cols.target.data(), 4);
    putWide(reinterpret_cast<const uint64_t *>(s.cols.imm.data()),
            s.cols.imm.data(), 8);
    putWide(chunk.seq.data(), chunk.seq.data(), 8);
    putWide(chunk.pc.data(), chunk.pc.data(), 8);
    putWide(chunk.nextPc.data(), chunk.nextPc.data(), 8);
    putWide(reinterpret_cast<const uint64_t *>(chunk.value.data()),
            chunk.value.data(), 8);
    putWide(chunk.effAddr.data(), chunk.effAddr.data(), 8);
    return static_cast<size_t>(out - payload);
}

} // anonymous namespace

void
TraceWriter::writeV3Block(const TraceChunk &chunk,
                          std::unique_ptr<TraceChunk> *take)
{
    detail::TraceEncodeRing &r = *ring;
    // Keep the last committed block's slot: its payload still owes
    // the file digest.
    while (r.submitted - r.committed >= encodeSlots - 1)
        commitNext(true);
    if (st.failed())
        return;
    detail::TraceEncodeSlot &slot = r.slots[r.submitted % encodeSlots];
    if (!slot.payload)
        slot.payload =
            std::make_unique_for_overwrite<uint8_t[]>(maxV3PayloadBytes);
    slot.records = chunk.size;
    slot.timed = obs::enabled();
    if (take) {
        // The slot's chunk is free: its block was committed.
        std::swap(slot.chunk, *take);
        if (!*take)
            *take = std::make_unique<TraceChunk>();
    } else {
        if (!slot.chunk)
            slot.chunk = std::make_unique<TraceChunk>();
        slot.chunk->assign(chunk);
    }
    {
        std::lock_guard<std::mutex> guard(r.lock);
        ++r.submitted;
    }
    // The first block's task is posted with the second's, so a
    // one-block trace posts nothing: close() encodes it here.
    const int tasks = r.submitted == 1 ? 0 : r.submitted == 2 ? 2 : 1;
    for (int k = 0; k < tasks; ++k) {
        workers::post([ring = ring] {
            std::unique_lock<std::mutex> guard(ring->lock);
            if (encodeOneTaken(*ring, guard, threadScratch()))
                ring->encoded.notify_one(); // only the caller waits
        });
    }
    while (commitNext(false)) {
    }
}

bool
TraceWriter::commitNext(bool wait)
{
    detail::TraceEncodeRing &r = *ring;
    if (r.committed == r.submitted)
        return false;
    detail::TraceEncodeSlot &slot = r.slots[r.committed % encodeSlots];
    {
        // While a worker encodes the oldest block, encode the next
        // untaken ones here rather than idle; with no worker to take
        // it, the oldest encodes here too.
        std::unique_lock<std::mutex> guard(r.lock);
        while (!slot.encoded) {
            if (!wait)
                return false;
            if (!encodeOneTaken(r, guard, threadScratch()))
                r.encoded.wait(guard);
        }
        slot.encoded = false;
    }
    ++r.committed;
    commitSlot(slot);
    return true;
}

void
TraceWriter::commitSlot(const detail::TraceEncodeSlot &slot)
{
    const uint64_t t0 = slot.timed ? obs::nowNs() : 0;
    // The file digest runs over each block's header, then its
    // payload, and the header holds the payload's block digest. So
    // while this payload's block digest is computed, the file digest
    // takes the previous payload, whose header is already in it: two
    // independent chains in one pass. This header follows at once;
    // this payload waits in digestPayload for the next block, or for
    // close().
    //
    // A writer that keeps an image copies the payload into it first and
    // digests and writes it from there, so the image, the file and the
    // digests all cover the same bytes.
    const uint8_t *payload = slot.payload.get();
    uint8_t *head = nullptr;
    if (toImage) {
        head = claim(sizeof(BlockHeaderV3) + slot.bytes);
        if (!head)
            return;
        payload = static_cast<const uint8_t *>(std::memcpy(
            head + sizeof(BlockHeaderV3), payload, slot.bytes));
    }
    uint64_t blockDigest = codec::fnvOffsetBasis;
    codec::fnv1aPair(payload, slot.bytes, &blockDigest, digestPayload,
                     digestBytes, &fileDigest);
    BlockHeaderV3 bh{slot.records, static_cast<uint32_t>(slot.bytes),
                     blockDigest};
    fileDigest = codec::fnv1a(&bh, sizeof(bh), fileDigest);
    if (head) {
        std::memcpy(head, &bh, sizeof(bh));
        blocks.push_back(TraceBlockRef{
            static_cast<size_t>(payload - image.data()), slot.records,
            static_cast<uint32_t>(slot.bytes)});
    }
    writeFile(&bh, sizeof(bh), "block");
    writeFile(payload, slot.bytes, "block");
    digestPayload = payload;
    digestBytes = slot.bytes;
    if (slot.timed)
        addEncodeTime(slot.startNs,
                      slot.encodeNs + (obs::nowNs() - t0));
}

TraceIoResult
TraceWriter::close()
{
    if (!file)
        return st;
    flushPending();
    if (ver == traceVersionV3) {
        // Commit every queued block in order (none after a failure).
        while (!st.failed() && commitNext(true)) {
        }
        fileDigest = codec::fnv1a(digestPayload, digestBytes, fileDigest);
        digestBytes = 0;
        FooterV3 foot{footerMagic, 0, fileDigest};
        writeRaw(&foot, sizeof(foot), "footer");
    }
    if (encodeBlocks != 0) {
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("trace_io.encode", encodeNs);
        reg.addSpan("trace_io.encode", encodeStartNs, encodeNs,
                    {{"records", std::to_string(count)},
                     {"blocks", std::to_string(encodeBlocks)}});
    }
    // Finalise the record count in the header.
    FileHeader h{traceMagic, ver, count};
    if (toImage) {
        if (!st.failed())
            std::memcpy(image.map.data(), &h, sizeof(h));
        image.map.truncate(image.size);
    }
    if (!st.failed() && std::fseek(file, 0, SEEK_SET) != 0) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot finalise trace header in "
                                  "'%s'",
                                  path.c_str()));
    }
    writeFile(&h, sizeof(h), "header");
    // fclose() flushes the stdio buffer: a full disk can surface here.
    if (std::fclose(file) != 0 && !st.failed()) {
        st = ioError(TraceIoStatus::IoError,
                     formatString("cannot close trace file '%s'",
                                  path.c_str()));
    }
    file = nullptr;
    return st;
}

TraceImage
TraceWriter::takeImage(std::vector<TraceBlockRef> *index)
{
    GDIFF_ASSERT(toImage && !file && st.ok(),
                 "takeImage() needs a closed, healthy writer that kept "
                 "its image");
    *index = std::move(blocks);
    return std::move(image);
}

// ----------------------------------------------------- TraceReader

TraceReader::TraceReader()
    : last(ioError(TraceIoStatus::IoError,
                   "read from an unopened trace reader"))
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
        if (ver == traceVersionV3)
            return checkFooter(take(sizeof(FooterV3)), runningDigest,
                               name);
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
        decodeColumnsV2(p, n, chunk, threadScratch());
        consumed += n;
        return TraceIoResult{};
    }

    const uint8_t *p = take(sizeof(BlockHeaderV3));
    if (!p)
        return truncated();
    BlockHeaderV3 bh{};
    std::memcpy(&bh, p, sizeof(bh));
    TraceIoResult r = checkBlockHeader(bh, total - consumed, name);
    if (r.failed())
        return r;
    const uint8_t *payload = take(bh.payloadBytes);
    if (!payload)
        return truncated();
    uint64_t digest = runningDigest;
    r = digestBlock(bh, payload, &digest, consumed, name);
    if (r.failed())
        return r;
    ColumnSpan cols[numColumns];
    std::string why;
    if (!splitColumns(payload, bh.payloadBytes, bh.n, cols, &why) ||
        !decodeColumnsV3(cols, bh.n, chunk, threadScratch(), false,
                         &why)) {
        return ioError(TraceIoStatus::Corrupt,
                       formatString("%s has a corrupt block: %s",
                                    name.c_str(), why.c_str()));
    }
    runningDigest = digest;
    consumed += bh.n;
    return TraceIoResult{};
}

// ------------------------------------------- verified image blocks

TraceIoResult
indexTraceImage(const uint8_t *data, size_t size,
                std::vector<TraceBlockRef> *blocks)
{
    const std::string name = "trace image";
    blocks->clear();
    std::vector<TraceBlockRef> index;
    const uint8_t *p = data;
    const uint8_t *end = data + size;
    auto truncated = [&](uint64_t consumed, uint64_t total) {
        return ioError(
            TraceIoStatus::Truncated,
            formatString("%s truncated after %llu of %llu records",
                         name.c_str(),
                         static_cast<unsigned long long>(consumed),
                         static_cast<unsigned long long>(total)));
    };

    if (size < sizeof(FileHeader)) {
        return ioError(TraceIoStatus::Truncated,
                       name + " is truncated (missing header)");
    }
    FileHeader h{};
    std::memcpy(&h, p, sizeof(h));
    p += sizeof(h);
    uint32_t version = 0;
    uint64_t total = 0;
    TraceIoResult r =
        checkHeader(h, name, traceVersionMax, &version, &total);
    if (r.failed())
        return r;
    if (version != traceVersionV3) {
        return ioError(TraceIoStatus::BadVersion,
                       formatString("%s has format version %u; only "
                                    "version %u can be indexed",
                                    name.c_str(), version,
                                    traceVersionV3));
    }

    uint64_t consumed = 0;
    uint64_t digest = codec::fnvOffsetBasis;
    while (consumed < total) {
        if (static_cast<size_t>(end - p) < sizeof(BlockHeaderV3))
            return truncated(consumed, total);
        BlockHeaderV3 bh{};
        std::memcpy(&bh, p, sizeof(bh));
        p += sizeof(bh);
        r = checkBlockHeader(bh, total - consumed, name);
        if (r.failed())
            return r;
        if (static_cast<size_t>(end - p) < bh.payloadBytes)
            return truncated(consumed, total);
        r = digestBlock(bh, p, &digest, consumed, name);
        if (r.failed())
            return r;
        ColumnSpan cols[numColumns];
        std::string why;
        if (!splitColumns(p, bh.payloadBytes, bh.n, cols, &why)) {
            return ioError(TraceIoStatus::Corrupt,
                           formatString("%s has a corrupt block: %s",
                                        name.c_str(), why.c_str()));
        }
        index.push_back(TraceBlockRef{static_cast<size_t>(p - data),
                                      bh.n, bh.payloadBytes});
        p += bh.payloadBytes;
        consumed += bh.n;
    }
    const uint8_t *foot =
        static_cast<size_t>(end - p) >= sizeof(FooterV3) ? p : nullptr;
    r = checkFooter(foot, digest, name);
    if (r.end() && static_cast<size_t>(end - p) != sizeof(FooterV3)) {
        r = ioError(TraceIoStatus::Corrupt,
                    name + " has trailing bytes after the footer");
    }
    if (!r.end())
        return r;
    *blocks = std::move(index);
    return TraceIoResult{};
}

TraceIoResult
decodeTraceBlock(const uint8_t *image, const TraceBlockRef &ref,
                 TraceChunk &chunk, bool pcValueOnly)
{
    ColumnSpan cols[numColumns];
    std::string why;
    if (!splitColumns(image + ref.payload, ref.payloadBytes,
                      ref.records, cols, &why) ||
        !decodeColumnsV3(cols, ref.records, chunk, threadScratch(),
                         pcValueOnly, &why)) {
        chunk.clear();
        return ioError(TraceIoStatus::Corrupt,
                       formatString("trace image has a corrupt block "
                                    "(%u records at byte %zu): %s",
                                    ref.records, ref.payload,
                                    why.c_str()));
    }
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
