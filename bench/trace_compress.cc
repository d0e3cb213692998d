/**
 * @file
 * Trace format v3 compression harness: how much smaller is the
 * stride-delta-compressed format than raw v2, and what does the codec
 * cost on the encode and decode paths?
 *
 * For each kernel the harness materializes one stream, writes it as
 * v2 and as v3, and reports:
 *
 *   v2 MiB / v3 MiB / ratio    on-disk footprint (v2 ÷ v3)
 *   enc Mrec/s                 v3 encode throughput: records over
 *                              the writer's wall time, with its
 *                              helper threads encoding blocks in
 *                              parallel (so it also scales with the
 *                              cores free to them)
 *   dec Mrec/s                 v3 decode throughput
 *   v2rd Mrec/s                v2 decode throughput (the baseline the
 *                              v3 reader must not fall behind)
 *
 * Gates (scripts/check.sh and CI):
 *   --require-ratio=N     every *stride-dominant* kernel (micro.stride,
 *                         micro.periodic) must compress at least Nx —
 *                         the paper's stride locality, applied to our
 *                         own storage (4x is the floor).
 *   --require-decode=F    aggregate v3 decode rate must be at least F
 *                         times the v2 read rate (1.0 = "compression
 *                         never makes reading slower").
 * With --json=FILE the per-kernel numbers are written as one JSON
 * document (uploaded from CI as BENCH_trace_v3.json).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "stats/table.hh"
#include "util/logging.hh"
#include "workload/trace_cache.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

using Clock = std::chrono::steady_clock;

/// kernels whose value streams are stride-dominant (constant or
/// periodic per-PC strides); the compression and decode-throughput
/// gates apply to exactly these
const std::vector<std::string> strideKernels = {"micro.stride",
                                                "micro.periodic"};
/// mixed/irregular kernels (micro.affine is by construction a
/// *random-order* walk — global stride locality without local
/// strides), reported for context: no gates, raw fallback keeps
/// them near 1x at worst
const std::vector<std::string> contextKernels = {
    "micro.affine", "mcf", "gzip", "micro.random"};

long
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fclose(f);
    return n;
}

/** Write @p trace to @p path in format @p version, timed. */
double
timedWrite(const workload::MaterializedTrace &trace,
           const std::string &path, uint32_t version,
           workload::TraceIoResult *status)
{
    auto t0 = Clock::now();
    workload::TraceWriter writer(path, version);
    for (size_t i = 0; i < trace.blockCount(); ++i)
        writer.append(trace.block(i));
    *status = writer.close();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Open and drain @p path through TraceReader, timed. @return seconds;
 * the reader's final status (End, or why it stopped) in @p status.
 */
double
timedRead(const std::string &path, uint64_t *checksum,
          workload::TraceIoResult *status)
{
    auto t0 = Clock::now();
    workload::TraceReader reader;
    reader.open(path);
    auto chunk = std::make_unique<workload::TraceChunk>();
    while (reader.fill(*chunk)) {
        for (uint32_t i = 0; i < chunk->size; ++i)
            *checksum += static_cast<uint64_t>(chunk->value[i]) ^
                         chunk->effAddr[i];
    }
    *status = reader.status();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
mrps(uint64_t records, double seconds)
{
    return seconds > 0
               ? static_cast<double>(records) / seconds / 1e6
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    double requireRatio = 0.0;
    double requireDecode = 0.0;
    std::string jsonPath;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--require-ratio=", 16) == 0)
            requireRatio = std::atof(argv[i] + 16);
        else if (std::strncmp(argv[i], "--require-decode=", 17) == 0)
            requireDecode = std::atof(argv[i] + 17);
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
        else
            rest.push_back(argv[i]);
    }
    bench::BenchOptions o = bench::BenchOptions::parse(
        static_cast<int>(rest.size()), rest.data());

    bench::banner("trace format v3 compression",
                  "on-disk footprint and codec throughput, v3 "
                  "(stride-delta) vs v2 (raw columns)",
                  o);

    std::vector<std::string> kernels = strideKernels;
    kernels.insert(kernels.end(), contextKernels.begin(),
                   contextKernels.end());

    stats::Table t("trace compression (v2 vs v3)", "kernel");
    t.addColumn("v2 MiB");
    t.addColumn("v3 MiB");
    t.addColumn("ratio");
    t.addColumn("enc Mrec/s");
    t.addColumn("dec Mrec/s");
    t.addColumn("v2rd Mrec/s");

    const uint64_t budget = o.instructions;
    double minStrideRatio = -1.0;
    double totalV3Read = 0, totalV2Read = 0;
    uint64_t sink = 0;
    std::string jsonKernels;
    bool gateFail = false;

    for (const auto &name : kernels) {
        auto trace =
            workload::MaterializedTrace::generate(name, o.seed,
                                                  budget);
        std::string v2Path =
            formatString("bench_compress_%s.v2.gdtr", name.c_str());
        std::string v3Path =
            formatString("bench_compress_%s.v3.gdtr", name.c_str());

        // Every write and read must succeed before any number is
        // reported: a failed one would time a partial stream.
        workload::TraceIoResult io[4];
        timedWrite(*trace, v2Path, workload::traceVersionV2, &io[0]);
        double encSec = timedWrite(*trace, v3Path,
                                   workload::traceVersionV3, &io[1]);

        long v2Bytes = fileBytes(v2Path);
        long v3Bytes = fileBytes(v3Path);
        double ratio = v3Bytes > 0 ? static_cast<double>(v2Bytes) /
                                         static_cast<double>(v3Bytes)
                                   : 0.0;

        double v2Sec = timedRead(v2Path, &sink, &io[2]);
        double decSec = timedRead(v3Path, &sink, &io[3]);
        std::remove(v2Path.c_str());
        std::remove(v3Path.c_str());
        for (const workload::TraceIoResult &r : io) {
            if (r.failed())
                fatal("%s", r.message.c_str());
        }

        uint64_t records = trace->records();

        bool strideDominant = false;
        for (const auto &k : strideKernels)
            strideDominant = strideDominant || k == name;
        if (strideDominant) {
            // Both gates are scoped to the stride-dominant kernels:
            // that is where the format's thesis must hold.
            totalV3Read += decSec;
            totalV2Read += v2Sec;
            if (minStrideRatio < 0 || ratio < minStrideRatio)
                minStrideRatio = ratio;
        }

        t.beginRow(name);
        t.cellDouble(static_cast<double>(v2Bytes) / (1 << 20), 2);
        t.cellDouble(static_cast<double>(v3Bytes) / (1 << 20), 2);
        t.cellDouble(ratio, 2);
        t.cellDouble(mrps(records, encSec), 2);
        t.cellDouble(mrps(records, decSec), 2);
        t.cellDouble(mrps(records, v2Sec), 2);

        char row[320];
        std::snprintf(
            row, sizeof(row),
            "%s\"%s\":{\"v2_bytes\":%ld,\"v3_bytes\":%ld,"
            "\"ratio\":%.3f,\"encode_mrps\":%.3f,"
            "\"decode_mrps\":%.3f,\"v2_read_mrps\":%.3f}",
            jsonKernels.empty() ? "" : ",", name.c_str(), v2Bytes,
            v3Bytes, ratio, mrps(records, encSec),
            mrps(records, decSec), mrps(records, v2Sec));
        jsonKernels += row;
    }
    bench::emit(t, o);

    double decodeVsV2 =
        totalV3Read > 0 ? totalV2Read / totalV3Read : 0.0;
    std::printf("min stride-dominant compression ratio: %.2fx; "
                "v3 decode vs v2 read (stride-dominant): %.2fx "
                "(checksum %llu)\n",
                minStrideRatio, decodeVsV2,
                static_cast<unsigned long long>(sink));

    if (!jsonPath.empty()) {
        std::FILE *jf = std::fopen(jsonPath.c_str(), "wb");
        if (!jf) {
            std::fprintf(stderr, "cannot create JSON file '%s'\n",
                         jsonPath.c_str());
            return 1;
        }
        std::fprintf(jf,
                     "{\"bench\":\"trace_compress\","
                     "\"instructions\":%llu,\"kernels\":{%s},"
                     "\"min_stride_ratio\":%.3f,"
                     "\"decode_vs_v2_read\":%.3f}\n",
                     static_cast<unsigned long long>(budget),
                     jsonKernels.c_str(), minStrideRatio,
                     decodeVsV2);
        std::fclose(jf);
    }

    if (requireRatio > 0 && minStrideRatio < requireRatio) {
        std::fprintf(stderr,
                     "FAIL: stride-dominant compression ratio %.2fx "
                     "below required %.2fx\n",
                     minStrideRatio, requireRatio);
        gateFail = true;
    }
    if (requireDecode > 0 && decodeVsV2 < requireDecode) {
        std::fprintf(stderr,
                     "FAIL: v3 decode %.2fx of v2 read, below "
                     "required %.2fx\n",
                     decodeVsV2, requireDecode);
        gateFail = true;
    }
    return gateFail ? 1 : 0;
}
