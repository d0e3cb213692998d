/**
 * @file
 * Trace-file round-trip tests: records survive write/read unchanged,
 * replayed traces drive the same predictor results as live execution,
 * and malformed files are rejected with typed, sticky errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/gdiff.hh"
#include "sim/profile.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_trace_" + tag +
           ".bin";
}

TEST(TraceIo, RoundTripPreservesRecords)
{
    std::string path = tempPath("roundtrip");
    Workload w = makeWorkload("parser", 1);
    auto exec = w.makeExecutor();

    std::vector<TraceRecord> original;
    {
        TraceWriter writer(path);
        TraceRecord r;
        while (original.size() < 5000 && exec->next(r)) {
            writer.append(r);
            original.push_back(r);
        }
        writer.close();
        EXPECT_EQ(writer.written(), original.size());
    }

    TraceReader src;
    ASSERT_TRUE(src.open(path).ok());
    EXPECT_EQ(src.totalRecords(), original.size());
    TraceRecord r;
    size_t i = 0;
    while (src.next(r)) {
        ASSERT_LT(i, original.size());
        const TraceRecord &o = original[i];
        EXPECT_EQ(r.seq, o.seq);
        EXPECT_EQ(r.pc, o.pc);
        EXPECT_EQ(r.nextPc, o.nextPc);
        EXPECT_EQ(r.value, o.value);
        EXPECT_EQ(r.effAddr, o.effAddr);
        EXPECT_EQ(r.taken, o.taken);
        EXPECT_EQ(r.inst.op, o.inst.op);
        EXPECT_EQ(r.inst.rd, o.inst.rd);
        EXPECT_EQ(r.inst.rs1, o.inst.rs1);
        EXPECT_EQ(r.inst.rs2, o.inst.rs2);
        EXPECT_EQ(r.inst.imm, o.inst.imm);
        EXPECT_EQ(r.inst.target, o.inst.target);
        ++i;
    }
    EXPECT_EQ(i, original.size());
    // End is sticky too: the v3 footer is not read a second time.
    EXPECT_FALSE(src.next(r));
    EXPECT_TRUE(src.status().end()) << src.status().message;
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayMatchesLiveExecution)
{
    std::string path = tempPath("replay");
    {
        Workload w = makeWorkload("mcf", 1);
        auto exec = w.makeExecutor();
        TraceWriter writer(path);
        TraceRecord r;
        for (int i = 0; i < 60'000 && exec->next(r); ++i)
            writer.append(r);
    }

    auto run = [](TraceSource &src) {
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

    Workload w = makeWorkload("mcf", 1);
    auto live = w.makeExecutor();
    double live_acc = run(*live);

    TraceReader replay;
    ASSERT_TRUE(replay.open(path).ok());
    double replay_acc = run(replay);

    EXPECT_DOUBLE_EQ(live_acc, replay_acc);
    std::remove(path.c_str());
}

TEST(TraceIo, RewindReplaysFromTheTop)
{
    std::string path = tempPath("rewind");
    {
        Workload w = makeWorkload("bzip2", 1);
        auto exec = w.makeExecutor();
        TraceWriter writer(path);
        TraceRecord r;
        for (int i = 0; i < 100 && exec->next(r); ++i)
            writer.append(r);
    }
    TraceReader src;
    ASSERT_TRUE(src.open(path).ok());
    TraceRecord first;
    ASSERT_TRUE(src.next(first));
    TraceRecord r;
    while (src.next(r)) {
    }
    EXPECT_TRUE(src.status().end());
    ASSERT_TRUE(src.rewind().ok());
    TraceRecord again;
    ASSERT_TRUE(src.next(again));
    EXPECT_EQ(again.seq, first.seq);
    EXPECT_EQ(again.pc, first.pc);
    std::remove(path.c_str());
}

// ------------------------------------------------- typed errors
//
// Malformed input comes back as a TraceIoStatus with a message; the
// process survives. Command-line tools turn these into fatal().

TEST(TraceIoErrors, MissingFileIsIoError)
{
    TraceReader reader;
    TraceIoResult res = reader.open("/nonexistent/nope.bin");
    EXPECT_EQ(res.status, TraceIoStatus::IoError);
    EXPECT_NE(res.message.find("cannot open"), std::string::npos)
        << res.message;
}

TEST(TraceIoErrors, WriterOnDirectoryReportsIoError)
{
    // A directory cannot be opened for writing, even by root.
    TraceWriter writer(::testing::TempDir());
    TraceRecord r;
    writer.append(r); // dropped: the writer has already failed
    TraceIoResult res = writer.close();
    EXPECT_EQ(res.status, TraceIoStatus::IoError);
    EXPECT_NE(res.message.find("cannot create"), std::string::npos)
        << res.message;
    EXPECT_EQ(writer.status().status, TraceIoStatus::IoError);
}

/** Append @p blocks full blocks of @p kernel's stream to @p writer. */
void
appendBlocks(TraceWriter &writer, const char *kernel, int blocks)
{
    Workload w = makeWorkload(kernel, 1);
    auto exec = w.makeExecutor();
    auto chunk = std::make_unique<TraceChunk>();
    for (int b = 0; b < blocks; ++b) {
        ASSERT_TRUE(exec->fill(*chunk));
        ASSERT_EQ(chunk->size, TraceChunk::capacity);
        writer.append(*chunk);
    }
}

TEST(TraceIoErrors, WriterToFullDiskFailsBeforeClose)
{
    // Every write to /dev/full fails. With 20 blocks appended, at
    // most seven wait in the encode ring, so the writer has already
    // committed, and failed to write, the rest: the failure shows
    // before close(), which drains nothing more and returns it.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    TraceWriter writer("/dev/full");
    ASSERT_TRUE(writer.status().ok());
    appendBlocks(writer, "gzip", 20);
    EXPECT_EQ(writer.status().status, TraceIoStatus::IoError);
    TraceIoResult res = writer.close();
    EXPECT_EQ(res.status, TraceIoStatus::IoError);
    EXPECT_NE(res.message.find("cannot write"), std::string::npos)
        << res.message;
    EXPECT_EQ(writer.status().status, TraceIoStatus::IoError);
}

TEST(TraceIoErrors, WriterDestroyedUnclosedFinishesTheFile)
{
    // The destructor commits every block still in the encode ring, in
    // order, and joins the helpers: the file reads back whole.
    std::string path = tempPath("unclosed");
    {
        TraceWriter writer(path);
        appendBlocks(writer, "mcf", 20);
    }
    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    EXPECT_EQ(reader.totalRecords(), 20u * TraceChunk::capacity);
    auto chunk = std::make_unique<TraceChunk>();
    uint64_t records = 0;
    while (reader.fill(*chunk))
        records += chunk->size;
    EXPECT_TRUE(reader.status().end()) << reader.status().message;
    EXPECT_EQ(records, 20u * TraceChunk::capacity);

    Workload w = makeWorkload("mcf", 1);
    auto live = w.makeExecutor();
    ASSERT_TRUE(reader.rewind().ok());
    TraceRecord a, b;
    for (uint64_t i = 0; i < records; ++i) {
        ASSERT_TRUE(reader.next(a));
        ASSERT_TRUE(live->next(b));
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.value, b.value);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------- version matrix
//
// Writers emit v2 or v3; readers are simulated at both eras via the
// maxVersion parameter. Every cell of the matrix must either accept
// transparently or reject with an error naming both the found and
// the supported versions.

std::string
writeSmallTrace(const char *tag, uint32_t version)
{
    std::string path = tempPath(tag);
    Workload w = makeWorkload("bzip2", 1);
    auto exec = w.makeExecutor();
    TraceWriter writer(path, version);
    TraceRecord r;
    for (int i = 0; i < 500 && exec->next(r); ++i)
        writer.append(r);
    writer.close();
    return path;
}

TEST(TraceIoVersionMatrix, V2ReaderRejectsV3FileNamingBothVersions)
{
    std::string path = writeSmallTrace("v2rdr_v3file", traceVersionV3);
    TraceReader reader;
    TraceIoResult res = reader.open(path, traceVersionV2);
    EXPECT_EQ(res.status, TraceIoStatus::BadVersion);
    // The error must name what was found and what would have worked.
    EXPECT_NE(res.message.find("version 3"), std::string::npos)
        << res.message;
    EXPECT_NE(res.message.find("2"), std::string::npos) << res.message;
    std::remove(path.c_str());
}

TEST(TraceIoVersionMatrix, V3ReaderAcceptsV2FileTransparently)
{
    std::string v2 = writeSmallTrace("matrix_v2", traceVersionV2);
    std::string v3 = writeSmallTrace("matrix_v3", traceVersionV3);

    auto drain = [](const std::string &path) {
        TraceReader reader;
        TraceIoResult res = reader.open(path);
        EXPECT_TRUE(res.ok()) << res.message;
        std::vector<TraceRecord> records;
        auto chunk = std::make_unique<TraceChunk>();
        while ((res = reader.read(*chunk)).ok())
            for (uint32_t i = 0; i < chunk->size; ++i)
                records.push_back(chunk->record(i));
        EXPECT_TRUE(res.end()) << res.message;
        return records;
    };

    auto a = drain(v2);
    auto b = drain(v3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].effAddr, b[i].effAddr);
    }
    std::remove(v2.c_str());
    std::remove(v3.c_str());
}

TEST(TraceIoVersionMatrix, EachEraReaderAcceptsItsOwnFormat)
{
    for (uint32_t ver : {traceVersionV2, traceVersionV3}) {
        std::string path = writeSmallTrace("matrix_own", ver);
        TraceReader reader;
        TraceIoResult res = reader.open(path, ver);
        EXPECT_TRUE(res.ok()) << "v" << ver << ": " << res.message;
        EXPECT_EQ(reader.version(), ver);
        std::remove(path.c_str());
    }
}

/** Write @p bytes bytes of @p data to a fresh file at @p path. */
void
writeBytes(const std::string &path, const void *data, size_t bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data, 1, bytes, f);
    std::fclose(f);
}

TEST(TraceIoErrors, WrongVersionIsBadVersion)
{
    std::string path = tempPath("badversion");
    // A structurally valid header whose version field is from the
    // future: magic "GDTR", version 999, zero records.
    const uint32_t header[4] = {0x52544447, 999, 0, 0};
    writeBytes(path, header, sizeof(header));
    TraceReader reader;
    TraceIoResult res = reader.open(path);
    EXPECT_EQ(res.status, TraceIoStatus::BadVersion);
    EXPECT_NE(res.message.find("version 999"), std::string::npos)
        << res.message;
    std::remove(path.c_str());
}

TEST(TraceIoErrors, TruncatedHeaderIsTruncated)
{
    std::string path = tempPath("shortheader");
    // Only half a header: valid magic, then EOF.
    const uint32_t magic = 0x52544447;
    writeBytes(path, &magic, sizeof(magic));
    TraceReader reader;
    TraceIoResult res = reader.open(path);
    EXPECT_EQ(res.status, TraceIoStatus::Truncated);
    EXPECT_NE(res.message.find("truncated"), std::string::npos)
        << res.message;
    std::remove(path.c_str());
}

TEST(TraceIoErrors, JunkIsBadMagic)
{
    std::string path = tempPath("badmagic");
    const char junk[32] = "this is not a trace file";
    writeBytes(path, junk, sizeof(junk));
    TraceReader reader;
    TraceIoResult res = reader.open(path);
    EXPECT_EQ(res.status, TraceIoStatus::BadMagic);
    EXPECT_NE(res.message.find("bad magic"), std::string::npos)
        << res.message;
    std::remove(path.c_str());
}

TEST(TraceIoErrors, TruncatedFileStopsFillAndStaysTruncated)
{
    std::string path = tempPath("trunc");
    {
        TraceWriter writer(path);
        Workload w = makeWorkload("bzip2", 1);
        auto exec = w.makeExecutor();
        TraceRecord r;
        for (int i = 0; i < 10 && exec->next(r); ++i)
            writer.append(r);
        EXPECT_TRUE(writer.close().ok());
    }
    // Chop the last record in half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(0, truncate(path.c_str(), size - 32));
    }
    TraceReader src;
    ASSERT_TRUE(src.open(path).ok());
    auto chunk = std::make_unique<TraceChunk>();
    while (src.fill(*chunk)) {
    }
    TraceIoResult res = src.status();
    EXPECT_EQ(res.status, TraceIoStatus::Truncated);
    EXPECT_NE(res.message.find("truncated"), std::string::npos)
        << res.message;

    // Sticky: every later read and fill reports the same failure.
    TraceIoResult again = src.read(*chunk);
    EXPECT_EQ(again.status, TraceIoStatus::Truncated);
    EXPECT_EQ(again.message, res.message);
    EXPECT_EQ(chunk->size, 0u);
    EXPECT_FALSE(src.fill(*chunk));
    EXPECT_EQ(src.status().message, res.message);
    std::remove(path.c_str());
}

TEST(TraceIoErrors, DamagedBlockFailureIsSticky)
{
    // Two blocks; a flipped byte in the first block's payload. A
    // reader that forgot the failure would decode block two next.
    std::string path = tempPath("sticky");
    {
        TraceWriter writer(path);
        Workload w = makeWorkload("bzip2", 1);
        auto exec = w.makeExecutor();
        TraceRecord r;
        for (uint32_t i = 0; i < TraceChunk::capacity + 100; ++i) {
            ASSERT_TRUE(exec->next(r));
            writer.append(r);
        }
        ASSERT_TRUE(writer.close().ok());
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        // file header (16 bytes) + first block header (16 bytes)
        std::fseek(f, 16 + 16 + 1, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, 16 + 16 + 1, SEEK_SET);
        std::fputc(c ^ 0x20, f);
        std::fclose(f);
    }
    TraceReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    auto chunk = std::make_unique<TraceChunk>();
    TraceIoResult first = reader.read(*chunk);
    EXPECT_EQ(first.status, TraceIoStatus::DigestMismatch)
        << first.message;
    for (int i = 0; i < 2; ++i) {
        TraceIoResult again = reader.read(*chunk);
        EXPECT_EQ(again.status, first.status);
        EXPECT_EQ(again.message, first.message);
        EXPECT_EQ(chunk->size, 0u);
    }
    EXPECT_FALSE(reader.fill(*chunk));
    std::remove(path.c_str());
}

} // namespace
} // namespace workload
} // namespace gdiff
