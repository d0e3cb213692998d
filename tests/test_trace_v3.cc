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
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/gdiff.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "sim/profile.hh"
#include "util/varint.hh"
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

/** Materialize @p kernel and flatten its first records to a vector. */
std::vector<TraceRecord>
generateRecords(const std::string &kernel, uint64_t seed, uint64_t n)
{
    auto trace = MaterializedTrace::generate(kernel, seed, n);
    std::vector<TraceRecord> out;
    out.reserve(trace->records());
    for (const auto &chunk : trace->chunks())
        for (uint32_t i = 0; i < chunk->size; ++i)
            out.push_back(chunk->record(i));
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
    auto trace = MaterializedTrace::generate("micro.periodic", 3, 9000);
    std::string a = tempRoot("bychunk") + ".gdtr";
    std::string b = tempRoot("byrecord") + ".gdtr";
    {
        TraceWriter writer(a);
        for (const auto &chunk : trace->chunks())
            writer.append(*chunk);
        writer.close();
    }
    {
        TraceWriter writer(b);
        for (const auto &chunk : trace->chunks())
            for (uint32_t i = 0; i < chunk->size; ++i)
                writer.append(chunk->record(i));
        writer.close();
    }
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
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

// ------------------------------------------------ persistent tier

TEST(DiskTraceCache, StoreThenLoadRoundTrips)
{
    std::string root = tempRoot("storeload");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);

    auto trace = MaterializedTrace::generate("micro.stride", 1, 5000);
    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    disk.store("micro.stride", 1, 5000, *trace);
    auto loaded = disk.load("micro.stride", 1, 5000);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->records(), trace->records());
    ASSERT_EQ(loaded->chunks().size(), trace->chunks().size());
    for (size_t c = 0; c < trace->chunks().size(); ++c) {
        const TraceChunk &a = *trace->chunks()[c];
        const TraceChunk &b = *loaded->chunks()[c];
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
    disk.store("micro.stride", 1, 5000, *a);
    disk.store("micro.stride", 2, 5000, *b); // sweeps seed 1 out

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
    disk.store("micro.stride", 1, 5000, *trace); // returns, no exit
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

} // namespace
} // namespace workload
} // namespace gdiff
