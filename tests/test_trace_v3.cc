/**
 * @file
 * Trace format v3 + persistent disk-cache battery.
 *
 * The v3 promise is "bit-identical replay, whatever happens": this
 * file polices it from four directions —
 *
 *  - round-trip property grid: kernel x seed x record-count
 *    (including empty, single-record, and non-chunk-multiple
 *    lengths) through both formats and both reader APIs;
 *  - corruption fuzz: seeded byte flips and truncations at every
 *    region of a v3 file (header, block directory, varint payload,
 *    footer) must yield clean typed errors — never a crash, an OOM,
 *    or a silently wrong stream (run under ASan/UBSan in CI);
 *  - persistent disk cache: corrupt entries are quarantined and
 *    regenerated; eviction honours the byte cap; a *different
 *    process* (fork) can populate the cache and this one replays it
 *    bit-identically, including under concurrent writers racing on
 *    the same entry;
 *  - lazy disk-loaded traces: damage in blocks no reader touches is
 *    still caught at acquire, a forged-digest block is served by
 *    regeneration, skips decode nothing they skip, and replays decode
 *    each block once, concurrently too;
 *  - streamed disk-tier misses: a miss encodes the executor's chunks
 *    straight into the entry and keeps only the writer's image, whose
 *    index matches a full verify of its bytes; the replay and the
 *    entry bytes match a generated trace's, damage to the entry after
 *    the store reaches only the next process's load, and a failed
 *    store or a cold key raced by threads still serves one correct
 *    trace;
 *  - equivalence: v2 and v3 replays drive identical predictor
 *    results, and sweeps through the disk tier are bit-identical to
 *    uncached runs at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/gdiff.hh"
#include "isa/program_builder.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "sim/profile.hh"
#include "util/varint.hh"
#include "workload/executor.hh"
#include "workload/trace_cache.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

// ------------------------------------------------------ helpers

std::string
tempRoot(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_v3_" + tag +
           "_" + std::to_string(::getpid());
}

/** rm -rf for the small flat/1-deep trees these tests create. */
void
removeTree(const std::string &root)
{
    DIR *d = ::opendir(root.c_str());
    if (d) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name == "." || name == "..")
                continue;
            std::string path = root + "/" + name;
            struct stat st;
            if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(path);
            else
                ::unlink(path.c_str());
        }
        ::closedir(d);
    }
    ::rmdir(root.c_str());
}

/** splitmix64: a fixed, platform-independent synthetic stream. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Materialize @p kernel and flatten its first records to a vector. */
std::vector<TraceRecord>
generateRecords(const std::string &kernel, uint64_t seed, uint64_t n)
{
    auto trace = MaterializedTrace::generate(kernel, seed, n);
    std::vector<TraceRecord> out;
    out.reserve(trace->records());
    for (size_t b = 0; b < trace->blockCount(); ++b)
        for (uint32_t i = 0; i < trace->block(b).size; ++i)
            out.push_back(trace->block(b).record(i));
    return out;
}

void
writeRecords(const std::string &path,
             const std::vector<TraceRecord> &records, uint32_t version)
{
    TraceWriter writer(path, version);
    for (const auto &r : records)
        writer.append(r);
    writer.close();
}

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (f) {
        std::fseek(f, 0, SEEK_END);
        bytes.resize(static_cast<size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    return bytes;
}

/**
 * Decode an in-memory trace image to the end.
 * @return the terminal status; decoded records in @p out (valid only
 * when the stream ended cleanly).
 */
TraceIoResult
decodeImage(const std::vector<uint8_t> &image,
            std::vector<TraceRecord> *out = nullptr)
{
    TraceReader reader;
    TraceIoResult res = reader.open(image.data(), image.size());
    if (res.failed())
        return res;
    auto chunk = std::make_unique<TraceChunk>();
    for (;;) {
        res = reader.read(*chunk);
        if (!res.ok())
            return res;
        if (out)
            for (uint32_t i = 0; i < chunk->size; ++i)
                out->push_back(chunk->record(i));
    }
}

/** Same, streaming from a file. */
TraceIoResult
decodeFile(const std::string &path,
           std::vector<TraceRecord> *out = nullptr,
           uint32_t maxVersion = traceVersionMax)
{
    TraceReader reader;
    TraceIoResult res = reader.open(path, maxVersion);
    if (res.failed())
        return res;
    auto chunk = std::make_unique<TraceChunk>();
    for (;;) {
        res = reader.read(*chunk);
        if (!res.ok())
            return res;
        if (out)
            for (uint32_t i = 0; i < chunk->size; ++i)
                out->push_back(chunk->record(i));
    }
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        const TraceRecord &g = got[i], &w = want[i];
        bool same = g.seq == w.seq && g.pc == w.pc &&
                    g.nextPc == w.nextPc && g.value == w.value &&
                    g.effAddr == w.effAddr && g.taken == w.taken &&
                    g.inst.op == w.inst.op && g.inst.rd == w.inst.rd &&
                    g.inst.rs1 == w.inst.rs1 &&
                    g.inst.rs2 == w.inst.rs2 &&
                    g.inst.imm == w.inst.imm &&
                    g.inst.target == w.inst.target;
        ASSERT_TRUE(same) << what << ": record " << i << " differs";
    }
}

// ------------------------------------------- round-trip property grid

TEST(TraceV3RoundTrip, KernelSeedLengthGrid)
{
    // Record counts probe every block-formation edge: empty file,
    // single record, one-short/exact/one-past a chunk boundary, and
    // a multi-block stream with a partial tail.
    const uint64_t counts[] = {0, 1, 4095, 4096, 4097, 10000};
    const char *kernels[] = {"micro.stride", "micro.periodic",
                             "micro.affine", "micro.random"};

    std::string path = tempRoot("grid") + ".gdtr";
    for (const char *kernel : kernels) {
        for (uint64_t seed : {1ull, 7ull}) {
            auto base = generateRecords(kernel, seed, 10000);
            ASSERT_EQ(base.size(), 10000u);
            for (uint64_t count : counts) {
                std::vector<TraceRecord> want(base.begin(),
                                              base.begin() + count);
                std::string what = std::string(kernel) + " seed " +
                                   std::to_string(seed) + " n " +
                                   std::to_string(count);
                for (uint32_t ver :
                     {traceVersionV2, traceVersionV3}) {
                    writeRecords(path, want, ver);
                    std::vector<TraceRecord> got;
                    TraceIoResult res = decodeFile(path, &got);
                    EXPECT_TRUE(res.end())
                        << what << " v" << ver << ": " << res.message;
                    expectSameRecords(
                        got, want,
                        what + " v" + std::to_string(ver));
                }
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceV3RoundTrip, ChunkAndRecordAppendProduceIdenticalBytes)
{
    // The two writer entry points must form identical blocks (and
    // therefore identical digests): per-record appends batch into
    // the same full-chunks-plus-tail structure a chunked source has.
    // 20 full blocks and a tail wrap the writer's encode ring twice;
    // the mixed writer switches entry point every few blocks.
    const uint64_t records = 20 * TraceChunk::capacity + 808;
    auto trace =
        MaterializedTrace::generate("micro.periodic", 3, records);
    ASSERT_EQ(trace->blockCount(), 21u);
    auto write = [&](const char *tag, auto byRecord) {
        std::string path = tempRoot(tag) + ".gdtr";
        {
            TraceWriter writer(path);
            for (size_t c = 0; c < trace->blockCount(); ++c) {
                const TraceChunk &chunk = trace->block(c);
                if (!byRecord(c)) {
                    writer.append(chunk);
                    continue;
                }
                for (uint32_t i = 0; i < chunk.size; ++i)
                    writer.append(chunk.record(i));
            }
            EXPECT_TRUE(writer.close().ok());
        }
        std::vector<uint8_t> image = slurp(path);
        std::remove(path.c_str());
        return image;
    };
    const std::vector<uint8_t> byChunk =
        write("bychunk", [](size_t) { return false; });
    EXPECT_EQ(write("byrecord", [](size_t) { return true; }), byChunk);
    EXPECT_EQ(write("mixed", [](size_t c) { return c % 3 == 1; }),
              byChunk);
}

TEST(TraceV3RoundTrip, BufferAndFileReadersAgree)
{
    auto records = generateRecords("micro.affine", 5, 6000);
    std::string path = tempRoot("readers") + ".gdtr";
    writeRecords(path, records, traceVersionV3);

    std::vector<TraceRecord> viaFile, viaBuffer;
    EXPECT_TRUE(decodeFile(path, &viaFile).end());
    std::vector<uint8_t> image = slurp(path);
    EXPECT_TRUE(decodeImage(image, &viaBuffer).end());
    expectSameRecords(viaFile, records, "file reader");
    expectSameRecords(viaBuffer, records, "buffer reader");
    std::remove(path.c_str());
}

// ------------------------------------------------- corruption fuzz

/**
 * Flip one byte and decode to the end. The contract: either a clean
 * typed error, or — if a flip ever slipped past every digest — a
 * stream still identical to the original. Anything else (crash,
 * hang, silently different records) is a reader bug.
 */
void
expectFlipDetected(std::vector<uint8_t> image, size_t offset,
                   uint8_t mask,
                   const std::vector<TraceRecord> &original)
{
    image[offset] ^= mask;
    std::vector<TraceRecord> got;
    TraceIoResult res = decodeImage(image, &got);
    if (res.end())
        expectSameRecords(got, original,
                          "flip at " + std::to_string(offset));
    else
        EXPECT_TRUE(res.failed());
}

TEST(TraceV3Corruption, ByteFlipsYieldTypedErrors)
{
    // micro.affine mixes compressible and dense columns, so the file
    // exercises raw, delta, RLE, and transposed codecs at once.
    auto original = generateRecords("micro.affine", 2, 10000);
    std::string path = tempRoot("flips") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);
    std::remove(path.c_str());
    ASSERT_GT(image.size(), 256u);

    // Deterministic LCG picks the flip mask so reruns are identical.
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto nextMask = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        uint8_t m = static_cast<uint8_t>(rng >> 33);
        return m ? m : uint8_t(1);
    };

    // Dense coverage of the header and the first block's directory
    // entry (record count, payload length, stored digest)...
    for (size_t off = 0; off < 64; ++off)
        expectFlipDetected(image, off, nextMask(), original);
    // ...strided coverage of the varint payloads and later block
    // directories...
    for (size_t off = 64; off < image.size(); off += 7)
        expectFlipDetected(image, off, nextMask(), original);
    // ...and dense coverage of the footer digest.
    for (size_t off = image.size() - 32; off < image.size(); ++off)
        expectFlipDetected(image, off, nextMask(), original);
}

TEST(TraceV3Corruption, FileReaderSurvivesFlipsToo)
{
    auto original = generateRecords("micro.periodic", 2, 6000);
    std::string path = tempRoot("fileflips") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);

    for (size_t off = 0; off < image.size(); off += 97) {
        std::vector<uint8_t> bad = image;
        bad[off] ^= 0x40;
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f),
                  bad.size());
        std::fclose(f);

        std::vector<TraceRecord> got;
        TraceIoResult res = decodeFile(path, &got);
        if (res.end())
            expectSameRecords(got, original,
                              "file flip at " + std::to_string(off));
        else
            EXPECT_TRUE(res.failed());
    }
    std::remove(path.c_str());
}

TEST(TraceV3Corruption, TruncationsYieldTypedErrors)
{
    auto original = generateRecords("micro.affine", 4, 8000);
    std::string path = tempRoot("trunc") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);
    std::remove(path.c_str());

    auto check = [&](size_t len) {
        std::vector<uint8_t> cut(image.begin(), image.begin() + len);
        std::vector<TraceRecord> got;
        TraceIoResult res = decodeImage(cut, &got);
        EXPECT_TRUE(res.failed())
            << "truncation to " << len << " bytes read cleanly";
    };
    // Every prefix of the header and first block directory, then a
    // stride through the payloads, then every cut near the footer.
    for (size_t len = 0; len < 80 && len < image.size(); ++len)
        check(len);
    for (size_t len = 80; len + 80 < image.size(); len += 11)
        check(len);
    for (size_t len = image.size() - 80; len < image.size(); ++len)
        check(len);
}

TEST(TraceV3Corruption, HostileVarintsAreRejected)
{
    // Overlong encoding: ten continuation bytes never terminate a
    // valid 64-bit varint.
    const uint8_t overlong[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0xff, 0xff};
    uint64_t v = 0;
    EXPECT_EQ(codec::getVarint(overlong, overlong + 10, &v), 0u);

    // Truncated varint: continuation bit set at end of input.
    const uint8_t cut[1] = {0x80};
    EXPECT_EQ(codec::getVarint(cut, cut + 1, &v), 0u);

    // A run length claiming more elements than the column holds.
    std::vector<uint8_t> enc;
    codec::putVarint(enc, codec::zigzagEncode(1)); // delta 1
    codec::putVarint(enc, 1000);                   // run 1000
    uint64_t out[8];
    EXPECT_FALSE(codec::decodeDeltaRle(enc.data(), enc.size(), out, 8));

    // Trailing bytes after the declared element count.
    std::vector<uint8_t> exact;
    codec::putVarint(exact, codec::zigzagEncode(5));
    codec::putVarint(exact, 4);
    exact.push_back(0x00);
    EXPECT_FALSE(
        codec::decodeDeltaRle(exact.data(), exact.size(), out, 4));
}

TEST(CodecSinks, CountedSizesMatchWrittenBytes)
{
    // The writer reserves each column at its counted size and asserts
    // the write fills it; here every varint length boundary, and each
    // codec in plain and phase order, counts exactly what it writes.
    std::vector<uint64_t> values = {0, ~0ull};
    for (unsigned k = 1; k < 64; ++k) {
        values.push_back((uint64_t(1) << k) - 1);
        values.push_back(uint64_t(1) << k);
    }
    for (uint64_t v : values) {
        std::vector<uint8_t> bytes;
        codec::putVarint(bytes, v);
        codec::CountingSink counted;
        codec::putVarint(counted, v);
        EXPECT_EQ(counted.bytes, bytes.size()) << v;
        EXPECT_EQ(codec::varintBytes(v), bytes.size()) << v;
    }

    uint64_t rng = 3;
    std::vector<uint64_t> wide(1000);
    std::vector<uint8_t> narrow(1000);
    for (size_t i = 0; i < wide.size(); ++i) {
        const uint64_t r = splitmix(rng);
        wide[i] = i % 3 == 0 ? 8 * i : r >> (r % 64); // strides + noise
        narrow[i] = static_cast<uint8_t>(i % 5 == 0 ? r % 3 : 1);
    }
    const uint32_t n = static_cast<uint32_t>(wide.size());
    for (uint32_t L : {1u, 2u, 3u, 7u, 48u}) {
        std::vector<uint8_t> varint, rle, byteRle;
        codec::encodeDeltaVarint(wide.data(), n, L, varint);
        codec::encodeDeltaRle(wide.data(), n, L, rle);
        codec::encodeByteRle(narrow.data(), n, L, byteRle);
        size_t varintBytes = 0, rleBytes = 0;
        codec::sizeDeltaCodecs(wide.data(), n, L, &varintBytes, &rleBytes);
        EXPECT_EQ(varintBytes, varint.size()) << "L " << L;
        EXPECT_EQ(rleBytes, rle.size()) << "L " << L;
        codec::CountingSink byteCount;
        codec::encodeByteRle(narrow.data(), n, L, byteCount);
        EXPECT_EQ(byteCount.bytes, byteRle.size()) << "L " << L;

        // Phase order is the transposed column the T codecs decode.
        std::vector<uint64_t> back(n);
        ASSERT_TRUE(codec::decodeDeltaRle(rle.data(), rle.size(),
                                          back.data(), n));
        size_t at = 0;
        for (uint32_t phase = 0; phase < L; ++phase)
            for (uint32_t i = phase; i < n; i += L)
                EXPECT_EQ(back[at++], wide[i]) << "L " << L << " i " << i;
    }
}

TEST(Fnv1aPair, EqualsTwoSequentialDigests)
{
    std::vector<uint8_t> big(size_t(1) << 20);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint8_t &b : big) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<uint8_t>(x);
    }
    const uint8_t odd[13] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                             0xff};
    struct Buf
    {
        const uint8_t *data;
        size_t bytes;
    };
    for (Buf buf : {Buf{nullptr, 0}, Buf{odd, sizeof(odd)},
                    Buf{big.data(), big.size()}}) {
        // Two different starting states, as a block digest (fresh)
        // and a running file digest (mid-stream) have.
        uint64_t a = codec::fnvOffsetBasis;
        uint64_t b = codec::fnv1a("GDTR", 4);
        codec::fnv1aPair(buf.data, buf.bytes, &a, &b);
        EXPECT_EQ(a, codec::fnv1a(buf.data, buf.bytes))
            << buf.bytes << " bytes";
        EXPECT_EQ(b, codec::fnv1a(buf.data, buf.bytes,
                                  codec::fnv1a("GDTR", 4)))
            << buf.bytes << " bytes";
    }
}

// ------------------------------------------------ pinned encoder bytes

/** The v3 footer's whole-file digest (the image's last 8 bytes). */
uint64_t
footerDigest(const std::vector<uint8_t> &image)
{
    uint64_t d = 0;
    if (image.size() >= 8)
        std::memcpy(&d, image.data() + image.size() - 8, sizeof(d));
    return d;
}

/**
 * @return each block's 12 column codec tags as a string of digits, in
 * on-disk column order (op, rd, rs1, rs2, flags, target, imm, seq,
 * pc, nextPc, value, effAddr), walking the block and column
 * directories of a v3 image.
 */
std::vector<std::string>
blockTags(const std::vector<uint8_t> &image)
{
    std::vector<std::string> out;
    size_t at = 16; // file header
    while (at + 16 + 16 <= image.size()) {
        uint32_t payloadBytes = 0;
        std::memcpy(&payloadBytes, image.data() + at + 4, 4);
        size_t col = at + 16;
        std::string tags;
        for (int c = 0; c < 12; ++c) {
            uint32_t len = 0;
            std::memcpy(&len, image.data() + col + 1, 4);
            tags += static_cast<char>('0' + image[col]);
            col += 5 + len;
        }
        out.push_back(tags);
        at += 16 + payloadBytes;
    }
    return out;
}

/** Write @p chunks as one v3 image, one block per chunk. */
std::vector<uint8_t>
encodeBlocks(const std::vector<const TraceChunk *> &chunks,
             const std::string &path)
{
    {
        TraceWriter writer(path);
        for (const TraceChunk *c : chunks)
            writer.append(*c);
        EXPECT_TRUE(writer.close().ok());
    }
    std::vector<uint8_t> image = slurp(path);
    std::remove(path.c_str());
    return image;
}

TEST(TraceV3Bytes, EncoderOutputIsPinned)
{
    // The v3 writer's codec search (period scan, candidate sizes, tie
    // order) decides every byte of a trace file, and the file digests
    // that persistent caches and benchmarks key on. These images were
    // captured from the encoder that tried every candidate encoding
    // in full and kept the smallest; any rewrite of the search must
    // reproduce them exactly, under every SIMD dispatch mode.
    struct Pin
    {
        const char *kernel;
        uint64_t seed;
        size_t bytes;
        uint64_t digest;
        /// three full blocks and a partial one of 1000 records, or
        /// 40 full blocks and one of 17, which wrap the ring of
        /// blocks the writer encodes on helper threads five times
        uint64_t records = 3 * TraceChunk::capacity + 1000;
    };
    const uint64_t wrapping = 40 * TraceChunk::capacity + 17;
    const Pin pins[] = {
        {"mcf", 1, 47108, 0xcbe6ae052bf7b894ull},
        {"mcf", 7, 46509, 0x1f72c54b58bb0231ull},
        {"gzip", 1, 63951, 0x19f97383730c1d60ull},
        {"gzip", 7, 58026, 0x6c9e334fbeb20023ull},
        {"parser", 1, 121725, 0x236b7998e9a76689ull},
        {"parser", 7, 114672, 0xb9b69624d5dd91a8ull},
        {"gap", 1, 127171, 0x3711c9047a6b99e8ull},
        {"gap", 7, 125870, 0x23f901bb54d6d962ull},
        {"micro.stride", 1, 957, 0x6311d1530619714aull},
        {"micro.stride", 7, 957, 0x6311d1530619714aull},
        {"micro.periodic", 1, 3980, 0xee503c8b8df61f1eull},
        {"micro.periodic", 7, 3980, 0xee503c8b8df61f1eull},
        {"micro.affine", 1, 38660, 0xedf643a94c2e1475ull},
        {"micro.affine", 7, 38521, 0xac8bd7142ad58c71ull},
        {"micro.random", 1, 94651, 0x28f29b4b90db3887ull},
        {"micro.random", 7, 94690, 0xd44a5707e042533dull},
        {"mcf", 1, 608570, 0x94bc877a511c361bull, wrapping},
        {"mcf", 7, 608867, 0x79783a20d9172ffcull, wrapping},
        {"gzip", 1, 1799194, 0x0ea21ce00053a7e5ull, wrapping},
        {"gzip", 7, 1779995, 0x6e190f94f08dc436ull, wrapping},
    };
    const std::string path = tempRoot("pinned") + ".gdtr";
    for (const Pin &pin : pins) {
        auto trace = MaterializedTrace::generate(pin.kernel, pin.seed,
                                                 pin.records);
        ASSERT_EQ(trace->records(), pin.records) << pin.kernel;
        std::vector<const TraceChunk *> chunks;
        for (size_t b = 0; b < trace->blockCount(); ++b)
            chunks.push_back(&trace->block(b));
        std::vector<uint8_t> image = encodeBlocks(chunks, path);
        EXPECT_EQ(image.size(), pin.bytes)
            << pin.kernel << " seed " << pin.seed;
        EXPECT_EQ(footerDigest(image), pin.digest)
            << pin.kernel << " seed " << pin.seed << std::hex
            << " digest 0x" << footerDigest(image);
    }
}

/** An @p n-record block with every column zero. */
std::unique_ptr<TraceChunk>
zeroBlock(uint32_t n)
{
    auto c = std::make_unique<TraceChunk>();
    c->size = n;
    for (uint32_t i = 0; i < n; ++i) {
        c->inst[i] = isa::Instruction{};
        c->seq[i] = c->pc[i] = c->nextPc[i] = c->effAddr[i] = 0;
        c->value[i] = 0;
        c->flags[i] = 0;
    }
    return c;
}

TEST(TraceV3Bytes, EveryCodecAndTieRuleIsPinned)
{
    // Synthetic columns, each built to make one codec win: every tag
    // wins somewhere, and the tie rules are exercised where two
    // candidates encode to exactly the same size (noted per block).
    // Blocks of n < 8 skip the period search entirely.
    uint64_t rng = 42;
    std::vector<std::unique_ptr<TraceChunk>> blocks;

    // A full block: one codec per column.
    {
        const uint32_t n = TraceChunk::capacity;
        auto c = zeroBlock(n);
        const uint8_t ops[5] = {0, 1, 2, 0, 3};
        uint8_t rdByte = 0;
        uint32_t rdLeft = 0;
        int64_t walk = 0, noisy = 5000;
        for (uint32_t i = 0; i < n; ++i) {
            isa::Instruction &in = c->inst[i];
            // op: period-5 opcode pattern -> byteRleT
            in.op = static_cast<isa::Opcode>(ops[i % 5]);
            // rd: long irregular runs -> byteRle
            if (rdLeft == 0) {
                rdByte = static_cast<uint8_t>(splitmix(rng) % 32);
                rdLeft = 64 + static_cast<uint32_t>(splitmix(rng) % 256);
            }
            in.rd = rdByte;
            --rdLeft;
            // rs1: noise -> raw
            in.rs1 = static_cast<uint8_t>(splitmix(rng));
            // rs2: eight 512-long runs -> byteRle
            in.rs2 = static_cast<uint8_t>(i / 512);
            // flags: a set bit every 7th record -> byteRleT
            c->flags[i] = i % 7 == 0 ? 5 : 1;
            // target: constant stride -> deltaRle
            in.target = 1000 + 3 * i;
            // imm: a small random walk -> deltaVarint
            walk += static_cast<int64_t>(splitmix(rng) % 41) - 20;
            in.imm = walk;
            c->seq[i] = i;
            // pc: three interleaved constant strides -> deltaRleT
            c->pc[i] = 0x1000 * (1 + i % 3) + 8 * (i / 3);
            // nextPc: one strided phase in four, three noisy ones ->
            // deltaVarintT (deltaRleT pays a run byte per noisy delta)
            if (i % 4 == 0) {
                c->nextPc[i] = 0x100000 + 16 * (i / 4);
            } else {
                noisy += static_cast<int64_t>(splitmix(rng) % 41) - 20;
                c->nextPc[i] = static_cast<uint64_t>(noisy);
            }
            // value: noise -> raw
            c->value[i] = static_cast<int64_t>(splitmix(rng));
            // effAddr: each address four times -> deltaRleT
            c->effAddr[i] = 0x8000 + 8 * (i / 4);
        }
        blocks.push_back(std::move(c));
    }
    // n = 1: a 4-byte varint ties the raw u32 target (deltaVarint
    // wins), a one-byte imm beats deltaRle's two, a noisy value stays
    // raw, and every u8 column stays raw (byteRle needs two bytes).
    {
        auto c = zeroBlock(1);
        c->inst[0].op = static_cast<isa::Opcode>(2);
        c->inst[0].rd = 7;
        c->inst[0].target = 1u << 20;
        c->inst[0].imm = 5;
        c->seq[0] = 13288;
        c->pc[0] = 0x4000;
        c->nextPc[0] = 0x4004;
        c->value[0] = static_cast<int64_t>(splitmix(rng));
        blocks.push_back(std::move(c));
    }
    // n = 2: deltaVarint and deltaRle tie on {5, 10} (deltaRle wins);
    // byteRle ties raw on {3, 3} (byteRle wins).
    {
        auto c = zeroBlock(2);
        for (uint32_t i = 0; i < 2; ++i) {
            c->inst[i].rd = 3;
            c->inst[i].imm = 5 * (i + 1);
            c->value[i] = 5 * (i + 1);
            c->seq[i] = 13289 + i;
        }
        blocks.push_back(std::move(c));
    }
    // n = 5: constant strides and constant bytes.
    {
        auto c = zeroBlock(5);
        for (uint32_t i = 0; i < 5; ++i) {
            c->inst[i].op = static_cast<isa::Opcode>(1);
            c->inst[i].rs1 = static_cast<uint8_t>(i);
            c->pc[i] = 0x2000 + 4 * i;
            c->nextPc[i] = 0x2004 + 4 * i;
            c->value[i] = -3 * static_cast<int64_t>(i);
            c->seq[i] = 13291 + i;
        }
        blocks.push_back(std::move(c));
    }
    // n = 260: rd = 256 x 9 then 1 2 1 2. byteRle: (9,256) 3 bytes +
    // four 2-byte runs = 11; byteRleT at L = 2: L 1 byte + (9,128) 3
    // + (1,2) 2 + (9,128) 3 + (2,2) 2 = 11 — a tie, byteRleT wins.
    {
        auto c = zeroBlock(260);
        for (uint32_t i = 0; i < 260; ++i) {
            c->inst[i].rd = i < 256 ? 9 : static_cast<uint8_t>(1 + i % 2);
            c->seq[i] = 13296 + i;
        }
        blocks.push_back(std::move(c));
    }
    // n = 28: a value column on which deltaRleT (L = 2) and deltaRle
    // both take 27 bytes, under deltaVarint's 35: deltaRleT wins.
    {
        const int64_t v[28] = {74,  187, 82,  86,  90,  94,  98,
                               102, 106, 110, 114, 118, 302, 126,
                               130, 134, 138, 142, 146, 150, 154,
                               158, 162, 166, 170, 347, 178, 182};
        auto c = zeroBlock(28);
        for (uint32_t i = 0; i < 28; ++i) {
            c->value[i] = v[i];
            c->seq[i] = 13556 + i;
        }
        blocks.push_back(std::move(c));
    }
    // n = 22: an imm column on which deltaVarintT (L = 9) and
    // deltaVarint both take 28 bytes, under deltaRleT's 42 and
    // deltaRle's 50: deltaVarintT wins.
    {
        const int64_t v[22] = {125, 184, 130, 127, 187, 130, 129, 190,
                               130, 131, 193, 130, 133, 196, 130, 135,
                               343, 130, 137, 202, 130, 139};
        auto c = zeroBlock(22);
        for (uint32_t i = 0; i < 22; ++i) {
            c->inst[i].imm = v[i];
            c->seq[i] = 13584 + i;
        }
        blocks.push_back(std::move(c));
    }

    std::vector<const TraceChunk *> chunks;
    for (const auto &b : blocks)
        chunks.push_back(b.get());
    std::vector<uint8_t> image =
        encodeBlocks(chunks, tempRoot("synthetic") + ".gdtr");

    // Tags per block: 0 raw, 1 deltaVarint, 2 deltaRle, 3 byteRle,
    // 4 deltaRleT, 5 byteRleT, 6 deltaVarintT.
    const std::vector<std::string> wantTags = {
        "530352124604", // full block: one codec per column
        "000001111101", // n = 1
        "333332212222", // n = 2: deltaRle/deltaVarint, byteRle/raw ties
        "330332222222", // n = 5
        "353332222222", // n = 260: byteRleT/byteRle tie in rd
        "333332222242", // n = 28: deltaRleT/deltaRle tie in value
        "333332622222", // n = 22: deltaVarintT/deltaVarint tie in imm
    };
    EXPECT_EQ(blockTags(image), wantTags);
    std::string seen;
    for (const std::string &t : blockTags(image))
        seen += t;
    for (char tag = '0'; tag <= '6'; ++tag)
        EXPECT_NE(seen.find(tag), std::string::npos)
            << "no column won with tag " << tag;
    EXPECT_EQ(image.size(), 46041u);
    EXPECT_EQ(footerDigest(image), 0x9db1a969da445740ull)
        << std::hex << "digest 0x" << footerDigest(image);

    // The image decodes to the columns it was built from.
    std::vector<TraceRecord> got;
    ASSERT_TRUE(decodeImage(image, &got).end());
    size_t r = 0;
    for (const auto &b : blocks)
        for (uint32_t i = 0; i < b->size; ++i, ++r) {
            ASSERT_LT(r, got.size());
            EXPECT_EQ(got[r].inst.imm, b->inst[i].imm) << r;
            EXPECT_EQ(got[r].inst.rd, b->inst[i].rd) << r;
            EXPECT_EQ(got[r].value, b->value[i]) << r;
            EXPECT_EQ(got[r].nextPc, b->nextPc[i]) << r;
        }
    EXPECT_EQ(r, got.size());
}

/** The period scan as a full count of every candidate period. */
uint32_t
fullScanStridePeriod(const uint64_t *v, uint32_t n)
{
    if (n < 8)
        return 1;
    const uint32_t window = n < 2048 ? n : 2048;
    uint32_t bestL = 1;
    uint64_t bestScore = 0;
    for (uint32_t L = 2; L <= 48 && 2 * L < window; ++L) {
        uint64_t score = 0;
        for (uint32_t i = 2 * L; i < window; ++i)
            score += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
        score = score * window / (window - 2 * L);
        if (score > bestScore && score * 8 >= window) {
            bestScore = score;
            bestL = L;
        }
    }
    return bestL;
}

TEST(TraceV3Bytes, StridePeriodMatchesAFullScan)
{
    // detectStridePeriod drops a candidate period once it can no
    // longer win; the period it returns must be the one a full count
    // of every candidate gives, for the encoder's block windows and
    // the sampled profiler's 512-record prefixes alike.
    for (const char *kernel : {"parser", "mcf", "gzip", "micro.affine"}) {
        std::vector<TraceRecord> recs = generateRecords(kernel, 1, 60000);
        std::vector<uint64_t> pcs, values;
        for (const TraceRecord &r : recs) {
            pcs.push_back(r.pc);
            values.push_back(static_cast<uint64_t>(r.value));
        }
        for (uint32_t n : {7u, 8u, 37u, 300u, 512u, 1000u, 4096u}) {
            for (size_t at = 0; at + n <= pcs.size(); at += 1999) {
                for (const auto *col : {&pcs, &values}) {
                    const uint64_t *v = col->data() + at;
                    ASSERT_EQ(detectStridePeriod(v, n),
                              fullScanStridePeriod(v, n))
                        << kernel << " n " << n << " at " << at;
                }
            }
        }
    }

    // A period whose raw hits fall short of an eighth of the window
    // but whose normalized score does not: 60 planted lag-34 hits in a
    // 512-element window score 60 * 512 / 444 = 69 >= 64.
    uint64_t rng = 7;
    std::vector<uint64_t> v(512);
    for (uint64_t &x : v)
        x = splitmix(rng);
    for (uint32_t i = 400; i < 460; ++i)
        v[i] = 2 * v[i - 34] - v[i - 68];
    EXPECT_EQ(fullScanStridePeriod(v.data(), 512), 34u);
    EXPECT_EQ(detectStridePeriod(v.data(), 512), 34u);
}

// ------------------------------------------------ persistent tier

/** Store @p trace as the entry (@p kernel, @p seed, @p n) through a
 *  replay of it. @return what the store returns. */
std::shared_ptr<const MaterializedTrace>
storeReplay(DiskTraceCache &disk, const std::string &kernel,
            uint64_t seed, uint64_t n,
            std::shared_ptr<const MaterializedTrace> trace)
{
    CachedTraceSource replay(std::move(trace));
    return disk.store(kernel, seed, n, replay);
}

TEST(DiskTraceCache, StoreThenLoadRoundTrips)
{
    std::string root = tempRoot("storeload");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);

    auto trace = MaterializedTrace::generate("micro.stride", 1, 5000);
    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    storeReplay(disk, "micro.stride", 1, 5000, trace);
    auto loaded = disk.load("micro.stride", 1, 5000);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->records(), trace->records());
    ASSERT_EQ(loaded->blockCount(), trace->blockCount());
    for (size_t c = 0; c < trace->blockCount(); ++c) {
        const TraceChunk &a = trace->block(c);
        const TraceChunk &b = loaded->block(c);
        ASSERT_EQ(a.size, b.size);
        for (uint32_t i = 0; i < a.size; ++i) {
            EXPECT_EQ(a.value[i], b.value[i]);
            EXPECT_EQ(a.pc[i], b.pc[i]);
            EXPECT_EQ(a.flags[i], b.flags[i]);
        }
    }
    DiskTraceCache::Stats s = disk.snapshot();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    removeTree(root);
}

TEST(DiskTraceCache, EntryNameSanitizesSeparators)
{
    EXPECT_EQ(DiskTraceCache::entryName("micro.stride", 1, 5000),
              "micro.stride-s1-r5000-v3.gdtr");
    EXPECT_EQ(DiskTraceCache::entryName("a/b c", 3, 9),
              "a_b_c-s3-r9-v3.gdtr");
}

TEST(DiskTraceCache, CorruptEntryQuarantinedAndRegenerated)
{
    std::string root = tempRoot("quarantine");
    const std::string kernel = "micro.periodic";

    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_TRUE(acq.generated);
        EXPECT_FALSE(acq.fromDisk);
        EXPECT_EQ(cache.snapshot().diskStores, 1u);
    }

    // Flip a payload byte in the stored entry.
    std::string entry =
        root + "/" + DiskTraceCache::entryName(kernel, 9, 7000);
    std::vector<uint8_t> bytes = slurp(entry);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x01;
    {
        std::FILE *f = std::fopen(entry.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    // A fresh cache (fresh process, logically) detects the damage,
    // quarantines the entry, regenerates, and re-persists.
    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_TRUE(acq.generated);
        EXPECT_FALSE(acq.fromDisk);
        TraceCache::Stats s = cache.snapshot();
        EXPECT_EQ(s.diskCorruptRecoveries, 1u);
        EXPECT_EQ(s.diskStores, 1u);
    }
    struct stat st;
    EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0)
        << "corrupt entry was not quarantined";

    // And the regenerated entry serves the next process from disk.
    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_FALSE(acq.generated);
        EXPECT_TRUE(acq.fromDisk);
    }
    removeTree(root);
}

TEST(DiskTraceCache, EvictionHonoursByteCap)
{
    std::string root = tempRoot("evict");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    // Smaller than any one entry: micro.stride compresses to a few
    // hundred bytes, but never under the 32 bytes of header+footer.
    cfg.maxBytes = 64;
    DiskTraceCache disk(cfg);

    auto a = MaterializedTrace::generate("micro.stride", 1, 5000);
    auto b = MaterializedTrace::generate("micro.stride", 2, 5000);
    storeReplay(disk, "micro.stride", 1, 5000, a);
    storeReplay(disk, "micro.stride", 2, 5000, b); // sweeps seed 1 out

    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    EXPECT_NE(disk.load("micro.stride", 2, 5000), nullptr);
    DiskTraceCache::Stats s = disk.snapshot();
    EXPECT_GE(s.evictions, 1u);
    removeTree(root);
}

TEST(DiskTraceCache, FailedStoreWarnsAndStoresNothing)
{
    std::string root = tempRoot("squat");
    ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
    // A directory squatting on the store's temp path makes the
    // TraceWriter fail to create it (mkdir, not chmod: root-proof).
    std::string tmp = root + "/" +
                      DiskTraceCache::entryName("micro.stride", 1, 5000) +
                      ".tmp." + std::to_string(::getpid());
    ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);

    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);
    auto trace = MaterializedTrace::generate("micro.stride", 1, 5000);
    // Returns, no exit.
    EXPECT_EQ(storeReplay(disk, "micro.stride", 1, 5000, trace), nullptr);
    EXPECT_EQ(disk.snapshot().stores, 0u);
    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    EXPECT_EQ(disk.snapshot().misses, 1u);
    removeTree(root);
}

// -------------------------------------------------- cross-process

/** @return the child's exit code, or -1 on abnormal termination. */
int
waitForChild(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(DiskTraceCacheCrossProcess, ChildPopulatesParentReplays)
{
    std::string root = tempRoot("xproc");
    const std::string kernel = "micro.affine";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a separate process with its own (empty) memory
        // tier populates the shared disk tier.
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 11, 8000);
        ::_exit(acq.generated && !acq.fromDisk ? 0 : 3);
    }
    ASSERT_EQ(waitForChild(pid), 0);

    TraceCache cache;
    cache.setDiskRoot(root);
    auto acq = cache.acquire(kernel, 11, 8000);
    EXPECT_FALSE(acq.generated);
    EXPECT_TRUE(acq.fromDisk);
    EXPECT_EQ(cache.snapshot().diskHits, 1u);

    // Bit-identical to a from-scratch generation.
    auto want = generateRecords(kernel, 11, 8000);
    std::vector<TraceRecord> got;
    TraceRecord r;
    while (acq.source->next(r))
        got.push_back(r);
    expectSameRecords(got, want, "cross-process replay");
    removeTree(root);
}

TEST(DiskTraceCacheCrossProcess, ConcurrentWritersRaceSafely)
{
    std::string root = tempRoot("race");
    const std::string kernel = "micro.periodic";

    // Four processes generate and store the same entry at once; the
    // tmp-file + atomic-rename protocol means every interleaving
    // leaves one valid entry (all writers produce identical bytes).
    std::vector<pid_t> children;
    for (int i = 0; i < 4; ++i) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            TraceCache cache;
            cache.setDiskRoot(root);
            auto acq = cache.acquire(kernel, 21, 6000);
            ::_exit(acq.source ? 0 : 3);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children)
        EXPECT_EQ(waitForChild(pid), 0);

    // No temp litter; the entry is valid and replays identically.
    DIR *d = ::opendir(root.c_str());
    ASSERT_NE(d, nullptr);
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        EXPECT_EQ(name.find(".tmp."), std::string::npos)
            << "leftover temp file: " << name;
    }
    ::closedir(d);

    TraceCache cache;
    cache.setDiskRoot(root);
    auto acq = cache.acquire(kernel, 21, 6000);
    EXPECT_TRUE(acq.fromDisk);
    auto want = generateRecords(kernel, 21, 6000);
    std::vector<TraceRecord> got;
    TraceRecord r;
    while (acq.source->next(r))
        got.push_back(r);
    expectSameRecords(got, want, "post-race replay");
    removeTree(root);
}

// -------------------------------------------------- equivalence

TEST(TraceV3Equivalence, V2AndV3ReplaysDriveIdenticalResults)
{
    auto records = generateRecords("mcf", 1, 60000);
    std::string v2 = tempRoot("eqv2") + ".gdtr";
    std::string v3 = tempRoot("eqv3") + ".gdtr";
    writeRecords(v2, records, traceVersionV2);
    writeRecords(v3, records, traceVersionV3);

    auto run = [](const std::string &path) {
        TraceReader src;
        EXPECT_TRUE(src.open(path).ok());
        core::GDiffConfig cfg;
        cfg.order = 8;
        cfg.tableEntries = 0;
        core::GDiffPredictor gd(cfg);
        sim::ProfileConfig pcfg;
        pcfg.maxInstructions = 50'000;
        pcfg.warmupInstructions = 5'000;
        sim::ValueProfileRunner runner(pcfg);
        runner.addPredictor(gd);
        runner.run(src);
        return runner.results()[0].accuracyAll.value();
    };
    EXPECT_DOUBLE_EQ(run(v2), run(v3));
    std::remove(v2.c_str());
    std::remove(v3.c_str());
}

/** Run a small sweep and return {job key -> metrics}. */
std::map<std::string, std::vector<std::pair<std::string, double>>>
runSweep(unsigned threads, const std::string &cacheDir)
{
    runner::SweepSpec spec;
    spec.mode = runner::JobMode::Profile;
    spec.workloads = {"micro.stride", "micro.periodic"};
    spec.predictors = {"stride", "gdiff"};
    spec.orders = {4, 8};
    spec.seeds = {1, 2};
    spec.defaultInstructions = 12'000;
    spec.warmup = 1'000;

    runner::SweepRunner sweep(spec);
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.threads = threads;
    opt.traceCacheDir = cacheDir;
    sweep.run(opt);
    std::map<std::string,
             std::vector<std::pair<std::string, double>>> out;
    for (const auto &r : collect.records())
        out[r.spec.key()] = r.result.metrics;
    return out;
}

TEST(TraceV3Equivalence, DiskCachedSweepBitIdenticalToUncached)
{
    std::string root = tempRoot("sweep");
    TraceCache::global().clear();
    auto uncached = runSweep(1, "");
    ASSERT_EQ(uncached.size(), 16u);

    for (unsigned threads : {1u, 4u}) {
        // Cold pass (populates the disk tier) and warm pass (replays
        // from it) must both match the uncached metrics exactly.
        removeTree(root);
        TraceCache::global().clear();
        auto cold = runSweep(threads, root);
        EXPECT_EQ(cold, uncached) << "cold, threads=" << threads;

        TraceCache::global().clear();
        auto warm = runSweep(threads, root);
        EXPECT_EQ(warm, uncached) << "warm, threads=" << threads;
        TraceCache::Stats s = TraceCache::global().snapshot();
        EXPECT_EQ(s.generations, 0u)
            << "warm sweep regenerated a trace (threads=" << threads
            << ")";
        EXPECT_GE(s.diskHits, 4u);
    }
    TraceCache::global().setDiskRoot("");
    TraceCache::global().clear();
    removeTree(root);
}

// ------------------------------------------- lazy disk-tier traces

/** Write @p bytes over @p path. */
void
spill(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Every record @p src still yields, through fillRef(). */
std::vector<TraceRecord>
drainRecords(TraceSource &src)
{
    std::vector<TraceRecord> out;
    auto scratch = std::make_unique<TraceChunk>();
    while (const TraceChunk *c = src.fillRef(*scratch))
        for (uint32_t i = 0; i < c->size; ++i)
            out.push_back(c->record(i));
    return out;
}

/** @return the stored, not yet decoded entry for (@p kernel, 1, @p n)
 *  under @p root, storing it first if needed. */
std::shared_ptr<const MaterializedTrace>
loadLazy(const std::string &root, const std::string &kernel, uint64_t n)
{
    DiskTraceCache::Config cfg;
    cfg.root = root;
    auto disk = std::make_shared<DiskTraceCache>(cfg);
    auto trace = disk->load(kernel, 1, n);
    if (!trace) {
        storeReplay(*disk, kernel, 1, n,
                    MaterializedTrace::generate(kernel, 1, n));
        trace = disk->load(kernel, 1, n);
    }
    return trace;
}

/** Recompute every block digest and the file digest of a v3 image
 *  whose block structure is intact (a forger's work). */
void
forgeDigests(std::vector<uint8_t> &bytes)
{
    auto le32 = [&](size_t at) {
        uint32_t v;
        std::memcpy(&v, bytes.data() + at, 4);
        return v;
    };
    uint64_t fileDigest = codec::fnvOffsetBasis;
    size_t at = 16;
    while (at + 16 < bytes.size()) { // stop at the 16-byte footer
        uint32_t payloadBytes = le32(at + 4);
        uint64_t digest =
            codec::fnv1a(bytes.data() + at + 16, payloadBytes);
        std::memcpy(bytes.data() + at + 8, &digest, 8);
        fileDigest = codec::fnv1a(bytes.data() + at, 16 + payloadBytes,
                                  fileDigest);
        at += 16 + payloadBytes;
    }
    std::memcpy(bytes.data() + bytes.size() - 8, &fileDigest, 8);
}

/** @return the offset and length of column @p col of block @p b. */
std::pair<size_t, uint32_t>
columnSpan(const std::vector<uint8_t> &bytes, const TraceBlockRef &b,
           unsigned col)
{
    size_t at = b.payload;
    for (unsigned c = 0;; ++c) {
        uint32_t len;
        std::memcpy(&len, bytes.data() + at + 1, 4);
        if (c == col)
            return {at + 5, len};
        at += 5 + len;
    }
}

constexpr uint64_t kLazyRecords = 5 * TraceChunk::capacity + 100;

TEST(LazyDiskTrace, DamageAnywhereQuarantinesAtAcquire)
{
    // Verification at load covers blocks no reader will touch: each
    // case must be caught by acquire itself, before any decode.
    const std::string kernel = "mcf";
    std::string root = tempRoot("lazydamage");
    std::string entry =
        root + "/" + DiskTraceCache::entryName(kernel, 1, kLazyRecords);
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    {
        TraceCache cache;
        cache.setDiskRoot(root);
        ASSERT_TRUE(cache.acquire(kernel, 1, kLazyRecords).generated);
    }
    const std::vector<uint8_t> good = slurp(entry);
    std::vector<TraceBlockRef> index;
    ASSERT_TRUE(indexTraceImage(good.data(), good.size(), &index).ok());
    ASSERT_EQ(index.size(), 6u);

    auto flipped = [&](size_t at) {
        std::vector<uint8_t> b = good;
        b[at] ^= 0x10;
        return b;
    };
    std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
    const TraceBlockRef &last = index.back();
    cases.emplace_back("flip in the last block",
                       flipped(last.payload + last.payloadBytes / 2));
    for (size_t field : {0u, 4u, 8u, 15u})
        cases.emplace_back("flip in block 3's header at +" +
                               std::to_string(field),
                           flipped(index[3].payload - 16 + field));
    cases.emplace_back("flip in the footer magic",
                       flipped(good.size() - 14));
    cases.emplace_back("flip in the footer digest",
                       flipped(good.size() - 3));
    for (size_t keep : {good.size() / 2, good.size() - 1})
        cases.emplace_back(
            "truncation to " + std::to_string(keep) + " bytes",
            std::vector<uint8_t>(good.begin(), good.begin() + keep));

    for (const auto &[what, bytes] : cases) {
        spill(entry, bytes);
        ::unlink((entry + ".corrupt").c_str());
        TraceCache cache;
        cache.setDiskRoot(root);
        TraceCache::Acquired acq = cache.acquire(kernel, 1, kLazyRecords);
        EXPECT_TRUE(acq.generated) << what;
        EXPECT_FALSE(acq.fromDisk) << what;
        TraceCache::Stats s = cache.snapshot();
        EXPECT_EQ(s.diskCorruptRecoveries, 1u) << what;
        EXPECT_EQ(s.diskHits, 0u) << what;
        struct stat st;
        EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0)
            << what << ": not quarantined";
        expectSameRecords(drainRecords(*acq.source), want, what);
    }
    removeTree(root);
}

TEST(LazyDiskTrace, ForgedDigestBlockIsServedByRegeneration)
{
    // A malformed varint with both digests recomputed passes every
    // check at load and fails only when its block is decoded. The
    // stream must not abort or shorten: the trace quarantines the
    // entry, regenerates once, and serves the rest from the copy.
    // Column 7 (seq) is read only by a full decode; column 8 (pc)
    // also by the pc/value decode of the sampler's profiling pass.
    const std::string kernel = "mcf";
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    for (unsigned col : {7u, 8u}) {
        std::string root = tempRoot("forged");
        std::string entry = root + "/" +
                            DiskTraceCache::entryName(kernel, 1,
                                                      kLazyRecords);
        {
            TraceCache cache;
            cache.setDiskRoot(root);
            cache.acquire(kernel, 1, kLazyRecords);
        }
        std::vector<uint8_t> bytes = slurp(entry);
        std::vector<TraceBlockRef> index;
        ASSERT_TRUE(
            indexTraceImage(bytes.data(), bytes.size(), &index).ok());
        auto [at, len] = columnSpan(bytes, index[2], col);
        const uint8_t tag = bytes[at - 5];
        ASSERT_TRUE(tag == 1 || tag == 2 || tag == 4 || tag == 6)
            << "column " << col << " is not varint-coded (tag "
            << int(tag) << ")";
        std::memset(bytes.data() + at, 0xff, len); // never-ending varints
        forgeDigests(bytes);
        ASSERT_TRUE(
            indexTraceImage(bytes.data(), bytes.size(), &index).ok());
        spill(entry, bytes);

        TraceCache cache;
        cache.setDiskRoot(root);
        TraceCache::Acquired acq = cache.acquire(kernel, 1, kLazyRecords);
        EXPECT_TRUE(acq.fromDisk);
        if (col == 8) {
            // The profiling pass's view first: pc and value only.
            auto scratch = std::make_unique<TraceChunk>();
            uint64_t r = 0;
            while (const TraceChunk *c = acq.source->fillPcValue(*scratch))
                for (uint32_t i = 0; i < c->size; ++i, ++r) {
                    ASSERT_LT(r, want.size());
                    ASSERT_EQ(c->pc[i], want[r].pc) << "record " << r;
                    ASSERT_EQ(c->value[i], want[r].value) << "record " << r;
                }
            EXPECT_EQ(r, want.size());
            acq = cache.acquire(kernel, 1, kLazyRecords);
        }
        expectSameRecords(drainRecords(*acq.source), want,
                          "forged column " + std::to_string(col));
        TraceCache::Stats s = cache.snapshot();
        EXPECT_EQ(s.diskCorruptRecoveries, 1u);
        EXPECT_EQ(s.diskStores, 1u) << "regenerated entry not re-stored";
        struct stat st;
        EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0);

        // The re-stored entry is sound: a fresh cache replays it.
        TraceCache next;
        next.setDiskRoot(root);
        TraceCache::Acquired again = next.acquire(kernel, 1, kLazyRecords);
        EXPECT_TRUE(again.fromDisk);
        expectSameRecords(drainRecords(*again.source), want, "re-stored");
        EXPECT_EQ(next.snapshot().diskCorruptRecoveries, 0u);
        removeTree(root);
    }
}

TEST(LazyDiskTrace, SkipDecodesNoSkippedBlock)
{
    const std::string kernel = "mcf";
    std::string root = tempRoot("lazyskip");
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    const uint64_t offsets[] = {0,    1,    4095,         4096,
                                4097, 12300, kLazyRecords, kLazyRecords + 7};
    for (uint64_t skip : offsets) {
        auto trace = loadLazy(root, kernel, kLazyRecords);
        ASSERT_NE(trace, nullptr);
        ASSERT_EQ(trace->blockDecodes(), 0u);
        CachedTraceSource base(trace);
        SkipTraceSource src(base, skip);
        std::vector<TraceRecord> got = drainRecords(src);

        std::vector<TraceRecord> tail(
            want.begin() + std::min<uint64_t>(skip, want.size()),
            want.end());
        expectSameRecords(got, tail, "skip " + std::to_string(skip));
        // Blocks that end at or before the skip offset are skipped.
        size_t skippedBlocks = 0;
        for (uint64_t end = 0; skippedBlocks < trace->blockCount();
             ++skippedBlocks) {
            end += trace->blockRecords(skippedBlocks);
            if (end > skip)
                break;
        }
        for (size_t b = 0; b < trace->blockCount(); ++b)
            EXPECT_EQ(trace->decoded(b), b >= skippedBlocks)
                << "skip " << skip << ", block " << b;
        EXPECT_EQ(trace->blockDecodes(),
                  trace->blockCount() - skippedBlocks)
            << "skip " << skip;
    }
    removeTree(root);
}

TEST(LazyDiskTrace, FullReplaysDecodeEachBlockOnce)
{
    const std::string kernel = "mcf";
    std::string root = tempRoot("lazyonce");
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    auto trace = loadLazy(root, kernel, kLazyRecords);
    ASSERT_NE(trace, nullptr);
    const size_t image = trace->bytes();
    EXPECT_LT(image, trace->blockCount() * sizeof(TraceChunk));

    for (int pass = 0; pass < 2; ++pass) {
        CachedTraceSource replay(trace);
        expectSameRecords(drainRecords(replay), want,
                          "pass " + std::to_string(pass));
        EXPECT_EQ(trace->blockDecodes(), trace->blockCount())
            << "pass " << pass;
    }
    EXPECT_EQ(trace->bytes(),
              image + trace->blockCount() * sizeof(TraceChunk));
    removeTree(root);
}

TEST(LazyDiskTrace, ConcurrentReplaysAgree)
{
    const std::string kernel = "mcf";
    std::string root = tempRoot("lazyrace");
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    auto trace = loadLazy(root, kernel, kLazyRecords);
    ASSERT_NE(trace, nullptr);

    std::vector<std::vector<TraceRecord>> got(4);
    std::vector<std::thread> threads;
    for (auto &g : got)
        threads.emplace_back([&trace, &g] {
            CachedTraceSource replay(trace);
            g = drainRecords(replay);
        });
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < got.size(); ++i)
        expectSameRecords(got[i], want,
                          "replay " + std::to_string(i));
    for (size_t b = 0; b < trace->blockCount(); ++b)
        EXPECT_TRUE(trace->decoded(b)) << "block " << b;
    // Lost publish races decode twice but publish once.
    EXPECT_GE(trace->blockDecodes(), trace->blockCount());
    removeTree(root);
}

// ------------------------------------------- streamed disk-tier misses

/** Compare @p got with @p want block by block, column by column. */
void
expectSameBlocks(const MaterializedTrace &got,
                 const std::vector<const TraceChunk *> &want,
                 const std::string &what)
{
    ASSERT_EQ(got.blockCount(), want.size()) << what;
    for (size_t b = 0; b < want.size(); ++b) {
        const TraceChunk &g = got.block(b), &w = *want[b];
        ASSERT_EQ(g.size, w.size) << what << ", block " << b;
        for (uint32_t i = 0; i < w.size; ++i) {
            bool same = g.inst[i].op == w.inst[i].op &&
                        g.inst[i].rd == w.inst[i].rd &&
                        g.inst[i].rs1 == w.inst[i].rs1 &&
                        g.inst[i].rs2 == w.inst[i].rs2 &&
                        g.inst[i].target == w.inst[i].target &&
                        g.inst[i].imm == w.inst[i].imm &&
                        g.seq[i] == w.seq[i] && g.pc[i] == w.pc[i] &&
                        g.nextPc[i] == w.nextPc[i] &&
                        g.value[i] == w.value[i] &&
                        g.effAddr[i] == w.effAddr[i] &&
                        g.flags[i] == w.flags[i];
            ASSERT_TRUE(same) << what << ": block " << b << ", record "
                              << i << " differs";
        }
    }
}

/** @return the blocks of @p trace, in order. */
std::vector<const TraceChunk *>
blocksOf(const MaterializedTrace &trace)
{
    std::vector<const TraceChunk *> out;
    for (size_t b = 0; b < trace.blockCount(); ++b)
        out.push_back(&trace.block(b));
    return out;
}

TEST(StreamedDiskMiss, MissKeepsOnlyTheVerifiedImage)
{
    const std::string kernel = "mcf";
    std::string root = tempRoot("streamimage");
    std::string entry =
        root + "/" + DiskTraceCache::entryName(kernel, 1, kLazyRecords);

    // The store itself: nothing decoded, only the image resident.
    {
        DiskTraceCache::Config cfg;
        cfg.root = root;
        auto disk = std::make_shared<DiskTraceCache>(cfg);
        Workload w = makeWorkload(kernel, 1);
        auto exec = w.makeExecutor();
        auto trace = disk->store(kernel, 1, kLazyRecords, *exec);
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(trace->records(), kLazyRecords);
        EXPECT_EQ(trace->blockDecodes(), 0u);
        for (size_t b = 0; b < trace->blockCount(); ++b)
            EXPECT_FALSE(trace->decoded(b)) << "block " << b;
        EXPECT_EQ(trace->bytes(), slurp(entry).size());
        EXPECT_EQ(disk->snapshot().stores, 1u);
        EXPECT_EQ(disk->snapshot().hits, 0u);
    }
    ::unlink(entry.c_str());

    // Through the cache: one generation, one store, no disk hit, and
    // the resident bytes are the image's until a replay decodes.
    TraceCache cache;
    cache.setDiskRoot(root);
    TraceCache::Acquired acq = cache.acquire(kernel, 1, kLazyRecords);
    EXPECT_TRUE(acq.generated);
    EXPECT_FALSE(acq.fromDisk);
    EXPECT_GT(acq.generateSeconds, 0.0);
    TraceCache::Stats s = cache.snapshot();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.diskStores, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    const size_t image = slurp(entry).size();
    ASSERT_GT(image, 0u);
    EXPECT_EQ(s.residentBytes, image);

    std::vector<TraceRecord> got = drainRecords(*acq.source);
    expectSameRecords(got, generateRecords(kernel, 1, kLazyRecords),
                      "streamed miss replay");
    const size_t blocks = (kLazyRecords + TraceChunk::capacity - 1) /
                          TraceChunk::capacity;
    EXPECT_EQ(cache.snapshot().residentBytes,
              image + blocks * sizeof(TraceChunk));
    removeTree(root);
}

TEST(StreamedDiskMiss, ReplayMatchesGenerateColumnForColumn)
{
    // Budgets that are not multiples of the block size, so the last
    // chunk is trimmed, and one that is.
    const std::pair<const char *, uint64_t> cases[] = {
        {"mcf", kLazyRecords},
        {"micro.periodic", 3 * TraceChunk::capacity + 1},
        {"gzip", TraceChunk::capacity - 1},
        {"micro.affine", 2 * TraceChunk::capacity},
    };
    std::string root = tempRoot("streamcols");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    auto disk = std::make_shared<DiskTraceCache>(cfg);
    for (const auto &[kernel, n] : cases) {
        Workload w = makeWorkload(kernel, 3);
        auto exec = w.makeExecutor();
        auto streamed = disk->store(kernel, 3, n, *exec);
        ASSERT_NE(streamed, nullptr) << kernel;
        auto want = MaterializedTrace::generate(kernel, 3, n);
        EXPECT_EQ(streamed->records(), n) << kernel;
        expectSameBlocks(*streamed, blocksOf(*want), kernel);
    }
    removeTree(root);
}

/**
 * 3 set-up records, then 3000 trips of a 5-record loop: the stream
 * halts at 15003 records, and its last block is partial.
 */
isa::Program
haltingProgram()
{
    using namespace isa::reg;
    isa::ProgramBuilder b("halting");
    isa::Label top = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 3000);
    b.li(s8, 0x100000);
    b.bind(top);
    b.addi(t0, t0, 1);
    b.addi(s1, s1, 8);
    b.store(s1, s8, 0);
    b.load(s2, s8, 0);
    b.blt(t0, t1, top);
    b.halt();
    return b.build();
}

/** @return every chunk @p exec fills, as MaterializedTrace::generate()
 *  keeps them for a budget the stream never reaches. */
std::vector<std::unique_ptr<TraceChunk>>
fillAll(Executor &exec)
{
    std::vector<std::unique_ptr<TraceChunk>> chunks;
    for (;;) {
        auto c = std::make_unique<TraceChunk>();
        if (!exec.fill(*c))
            break;
        chunks.push_back(std::move(c));
    }
    return chunks;
}

TEST(StreamedDiskMiss, KernelThatHaltsBeforeItsBudget)
{
    // The stream halts short of the budget.
    auto program = haltingProgram;
    const uint64_t budget = 20000, halted = 15003;

    // What MaterializedTrace::generate() keeps: every chunk the
    // executor fills, up to the budget.
    Executor reference(program());
    std::vector<std::unique_ptr<TraceChunk>> chunks = fillAll(reference);
    std::vector<const TraceChunk *> want;
    uint64_t total = 0;
    for (const auto &c : chunks) {
        want.push_back(c.get());
        total += c->size;
    }
    ASSERT_EQ(total, halted);

    std::string root = tempRoot("streamhalt");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    auto disk = std::make_shared<DiskTraceCache>(cfg);
    Executor exec(program());
    auto streamed = disk->store("halting", 1, budget, exec);
    ASSERT_NE(streamed, nullptr);
    EXPECT_EQ(streamed->records(), halted);
    expectSameBlocks(*streamed, want, "halting kernel");
    // The stored entry loads back as the same stream.
    auto loaded = disk->load("halting", 1, budget);
    ASSERT_NE(loaded, nullptr);
    expectSameBlocks(*loaded, want, "halting kernel, reloaded");
    removeTree(root);
}

/**
 * Stream the first @p records records of @p source to @p path through
 * a writer that keeps its image, trimming the last chunk as a store
 * does. @return the writer's image, with its block index in @p index.
 */
TraceImage
writeImage(TraceSource &source, uint64_t records, const std::string &path,
           std::vector<TraceBlockRef> *index)
{
    TraceWriter writer = TraceWriter::keepingImage(path, records);
    auto chunk = std::make_unique<TraceChunk>();
    uint64_t remaining = records;
    while (remaining > 0 && source.fill(*chunk)) {
        if (chunk->size > remaining)
            chunk->size = static_cast<uint32_t>(remaining);
        remaining -= chunk->size;
        writer.append(*chunk);
    }
    EXPECT_TRUE(writer.close().ok()) << writer.status().message;
    return writer.takeImage(index);
}

TEST(StreamedDiskMiss, WriterIndexMatchesAFullVerify)
{
    // A store adopts the writer's image and index without verifying
    // them again. Each must equal what a full verify of those bytes
    // finds, the bytes must be the published entry, and the adopted
    // trace must replay the generated stream. The cases: one block
    // (encoded before any helper starts), 41 blocks and a tail (the
    // ring wraps five times), and a kernel that halts inside its last
    // block.
    struct Case
    {
        const char *workload;
        uint64_t records;
    };
    const Case cases[] = {
        {"micro.periodic", TraceChunk::capacity - 3},
        {"gzip", 41 * TraceChunk::capacity + 77},
        {"halting", 20000},
    };
    std::string root = tempRoot("writerindex");
    ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
    DiskTraceCache::Config cfg;
    cfg.root = root;
    auto disk = std::make_shared<DiskTraceCache>(cfg);
    for (const Case &c : cases) {
        const std::string what = c.workload;
        const bool halting = what == "halting";
        auto executor = [&] {
            return halting ? std::make_unique<Executor>(haltingProgram())
                           : makeWorkload(c.workload, 1).makeExecutor();
        };

        auto source = executor();
        std::vector<TraceBlockRef> index;
        const std::string written = root + "/writer.out";
        TraceImage image = writeImage(*source, c.records, written, &index);
        const std::vector<uint8_t> file = slurp(written);
        ASSERT_EQ(file.size(), image.size) << what;
        EXPECT_EQ(std::memcmp(file.data(), image.data(), image.size), 0)
            << what << ": the writer's file differs from its image";
        std::vector<TraceBlockRef> verified;
        ASSERT_TRUE(indexTraceImage(image.data(), image.size, &verified)
                        .ok())
            << what;
        EXPECT_TRUE(index == verified) << what;
        EXPECT_GE(image.map.size(), image.size) << what;
        EXPECT_LT(image.map.size() - image.size,
                  static_cast<size_t>(::sysconf(_SC_PAGESIZE)))
            << what << ": the image kept its unused reservation";

        source = executor();
        auto stored = disk->store(c.workload, 1, c.records, *source);
        ASSERT_NE(stored, nullptr) << what;
        std::vector<uint8_t> entry = slurp(
            root + "/" + DiskTraceCache::entryName(c.workload, 1, c.records));
        ASSERT_EQ(entry.size(), image.size) << what;
        EXPECT_EQ(std::memcmp(entry.data(), image.data(), image.size), 0)
            << what << ": the entry differs from the writer's bytes";
        EXPECT_EQ(stored->bytes(), entry.size()) << what;

        if (halting) {
            Executor reference(haltingProgram());
            auto chunks = fillAll(reference);
            std::vector<const TraceChunk *> want;
            for (const auto &chunk : chunks)
                want.push_back(chunk.get());
            ASSERT_EQ(index.size(), want.size());
            EXPECT_LT(index.back().records, TraceChunk::capacity);
            expectSameBlocks(*stored, want, what);
        } else {
            auto want = MaterializedTrace::generate(c.workload, 1, c.records);
            EXPECT_EQ(index.size(), want->blockCount()) << what;
            expectSameBlocks(*stored, blocksOf(*want), what);
        }
    }
    removeTree(root);
}

TEST(StreamedDiskMiss, CorruptAfterStoreServesTheWritersBytes)
{
    // The storing process serves the image its writer digested, never
    // the file: damage to the published entry after the store cannot
    // reach its replays. The next process's load catches it.
    const std::string kernel = "mcf";
    std::string root = tempRoot("corruptafter");
    std::string entry =
        root + "/" + DiskTraceCache::entryName(kernel, 1, kLazyRecords);
    const std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);

    TraceCache storing;
    storing.setDiskRoot(root);
    TraceCache::Acquired acq = storing.acquire(kernel, 1, kLazyRecords);
    ASSERT_TRUE(acq.generated);
    ASSERT_EQ(storing.snapshot().diskStores, 1u);

    // Flip one payload byte of the published entry before any block
    // of the stored trace is decoded.
    std::vector<uint8_t> bytes = slurp(entry);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x20;
    spill(entry, bytes);

    expectSameRecords(drainRecords(*acq.source), want,
                      "storing process after the flip");
    EXPECT_EQ(storing.snapshot().diskCorruptRecoveries, 0u);

    // A fresh cache on the same root quarantines the entry, counts one
    // corrupt recovery, regenerates and re-stores.
    {
        TraceCache fresh;
        fresh.setDiskRoot(root);
        TraceCache::Acquired again = fresh.acquire(kernel, 1, kLazyRecords);
        EXPECT_TRUE(again.generated);
        EXPECT_FALSE(again.fromDisk);
        TraceCache::Stats s = fresh.snapshot();
        EXPECT_EQ(s.diskCorruptRecoveries, 1u);
        EXPECT_EQ(s.generations, 1u);
        EXPECT_EQ(s.diskStores, 1u);
        expectSameRecords(drainRecords(*again.source), want,
                          "fresh process after the flip");
    }
    struct stat st;
    EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0)
        << "the corrupt entry was not quarantined";

    // The re-stored entry loads.
    TraceCache next;
    next.setDiskRoot(root);
    TraceCache::Acquired hit = next.acquire(kernel, 1, kLazyRecords);
    EXPECT_TRUE(hit.fromDisk);
    expectSameRecords(drainRecords(*hit.source), want, "re-stored entry");
    removeTree(root);
}

TEST(StreamedDiskMiss, EntryIsByteIdenticalToAStoredGeneration)
{
    const std::string kernel = "mcf";
    std::string streamedRoot = tempRoot("streambytes");
    std::string storedRoot = tempRoot("storedbytes");
    {
        TraceCache cache;
        cache.setDiskRoot(streamedRoot);
        ASSERT_TRUE(cache.acquire(kernel, 1, kLazyRecords).generated);
    }
    {
        DiskTraceCache::Config cfg;
        cfg.root = storedRoot;
        DiskTraceCache disk(cfg);
        ASSERT_NE(storeReplay(disk, kernel, 1, kLazyRecords,
                              MaterializedTrace::generate(kernel, 1,
                                                          kLazyRecords)),
                  nullptr);
    }
    const std::string name =
        DiskTraceCache::entryName(kernel, 1, kLazyRecords);
    std::vector<uint8_t> streamed = slurp(streamedRoot + "/" + name);
    std::vector<uint8_t> stored = slurp(storedRoot + "/" + name);
    ASSERT_FALSE(streamed.empty());
    EXPECT_TRUE(streamed == stored)
        << "streamed entry (" << streamed.size()
        << " bytes) differs from the stored generation ("
        << stored.size() << " bytes)";
    removeTree(streamedRoot);
    removeTree(storedRoot);
}

TEST(StreamedDiskMiss, SquattedTempPathStillServes)
{
    const std::string kernel = "micro.periodic";
    const uint64_t n = 9000;
    std::string root = tempRoot("streamsquat");
    ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
    std::string tmp = root + "/" + DiskTraceCache::entryName(kernel, 1, n) +
                      ".tmp." + std::to_string(::getpid());
    ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);

    TraceCache cache;
    cache.setDiskRoot(root);
    TraceCache::Acquired acq = cache.acquire(kernel, 1, n); // no exit
    EXPECT_TRUE(acq.generated);
    EXPECT_FALSE(acq.fromDisk);
    TraceCache::Stats s = cache.snapshot();
    EXPECT_EQ(s.diskStores, 0u);
    EXPECT_EQ(s.generations, 1u);
    expectSameRecords(drainRecords(*acq.source),
                      generateRecords(kernel, 1, n), "squatted store");
    removeTree(root);
}

TEST(StreamedDiskMiss, FailedRenameServesTheVerifiedImage)
{
    // A directory squatting on the entry path fails the rename (and
    // the load) but not the write: the verified image still serves.
    const std::string kernel = "micro.stride";
    const uint64_t n = 9000;
    std::string root = tempRoot("streamrename");
    ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
    std::string entry = root + "/" + DiskTraceCache::entryName(kernel, 1, n);
    ASSERT_EQ(::mkdir(entry.c_str(), 0755), 0);

    TraceCache cache;
    cache.setDiskRoot(root);
    TraceCache::Acquired acq = cache.acquire(kernel, 1, n);
    EXPECT_TRUE(acq.generated);
    EXPECT_FALSE(acq.fromDisk);
    TraceCache::Stats s = cache.snapshot();
    EXPECT_EQ(s.diskStores, 0u);
    EXPECT_LT(s.residentBytes, sizeof(TraceChunk))
        << "the failed rename did not serve the compressed image";
    expectSameRecords(drainRecords(*acq.source),
                      generateRecords(kernel, 1, n), "failed rename");
    removeTree(root);
}

TEST(StreamedDiskMiss, ConcurrentColdAcquiresGenerateAndStoreOnce)
{
    const std::string kernel = "mcf";
    std::string root = tempRoot("streamrace");
    std::vector<TraceRecord> want =
        generateRecords(kernel, 1, kLazyRecords);
    TraceCache cache;
    cache.setDiskRoot(root);

    std::vector<std::vector<TraceRecord>> got(4);
    std::vector<std::thread> threads;
    for (auto &g : got)
        threads.emplace_back([&cache, &kernel, &g] {
            TraceCache::Acquired acq =
                cache.acquire(kernel, 1, kLazyRecords);
            g = drainRecords(*acq.source);
        });
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < got.size(); ++i)
        expectSameRecords(got[i], want, "thread " + std::to_string(i));
    TraceCache::Stats s = cache.snapshot();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.diskStores, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 3u);
    removeTree(root);
}

} // namespace
} // namespace workload
} // namespace gdiff
