/**
 * @file
 * Bit-exact pins of every value-speculation scheme's pipeline run.
 *
 * test_paper_golden pins IPC to 1e-9 and test_paper_results compares
 * schemes only against each other, so neither notices a change to the
 * shared history and table structures (RingHistory, PcIndexedTable,
 * the writeback queue) that moves a counter without moving an IPC
 * digit. These pins record the exact integer books of a ~200k-record
 * run per scheme and kernel: cycles, the coverage/accuracy numerators
 * and denominators, the missing-load ratios, the front-end stall
 * counters and the full value-delay histogram.
 *
 * A deliberate model change regenerates the table: each failure
 * prints the run's actual row in the table's own syntax.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "util/varint.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace {

/** One pinned run and its exact integer results. */
struct Pin
{
    const char *kernel;
    const char *scheme;
    uint64_t tableEntries;     ///< gdiff / local table size (0 = unlimited)
    uint64_t functionalWarmup; ///< records trained without timing
    uint64_t cycles;
    uint64_t covHits, covTotal;
    uint64_t accHits, accTotal;
    uint64_t rawHits, rawTotal;
    uint64_t missCovHits, missCovTotal;
    uint64_t missAccHits, missAccTotal;
    uint64_t icacheBubbles, redirectBubbles, robStalls;
    uint64_t delaySamples, delayOverflow, delayDigest;
};

/** gtest printer: name the run instead of dumping its bytes. */
void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << p.kernel << "/" << p.scheme << " table " << p.tableEntries
        << " functional warm-up " << p.functionalWarmup;
}

constexpr uint64_t pinInstructions = 160'000;
constexpr uint64_t pinWarmup = 40'000;

/** FNV-1a over every in-range value-delay bucket count. */
uint64_t
delayDigest(const stats::Histogram &h)
{
    uint64_t d = codec::fnvOffsetBasis;
    for (size_t b = 0; b < h.numBuckets(); ++b) {
        uint64_t c = h.bucket(b);
        d = codec::fnv1a(&c, sizeof(c), d);
    }
    return d;
}

Pin
runPin(const Pin &spec)
{
    workload::Workload w = workload::makeWorkload(spec.kernel, 1);
    auto exec = w.makeExecutor();
    auto scheme = runner::makeScheme(spec.scheme, 32, spec.tableEntries);
    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               *scheme);
    pipeline::PipelineStats s =
        pipe.run(*exec, pinInstructions, pinWarmup,
                 /*measureFromRetire=*/spec.functionalWarmup > 0,
                 spec.functionalWarmup);
    EXPECT_EQ(s.instructions, pinInstructions);

    Pin got = spec;
    got.cycles = s.cycles;
    got.covHits = s.coverage.hits();
    got.covTotal = s.coverage.total();
    got.accHits = s.gatedAccuracy.hits();
    got.accTotal = s.gatedAccuracy.total();
    got.rawHits = scheme->rawAccuracy().hits();
    got.rawTotal = scheme->rawAccuracy().total();
    got.missCovHits = s.missLoadCoverage.hits();
    got.missCovTotal = s.missLoadCoverage.total();
    got.missAccHits = s.missLoadAccuracy.hits();
    got.missAccTotal = s.missLoadAccuracy.total();
    got.icacheBubbles = s.icacheBubbleCycles;
    got.redirectBubbles = s.redirectBubbleCycles;
    got.robStalls = s.robStallCycles;
    got.delaySamples = s.valueDelay.samples();
    got.delayOverflow = s.valueDelay.overflow();
    got.delayDigest = delayDigest(s.valueDelay);
    return got;
}

/** @return @p p as one initializer row of the pin table. */
std::string
row(const Pin &p)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"%s\", \"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ",\n     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ",\n     %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ",\n     %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ",\n     %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
        "ull},",
        p.kernel, p.scheme, p.tableEntries, p.functionalWarmup,
        p.cycles, p.covHits, p.covTotal, p.accHits, p.accTotal,
        p.rawHits, p.rawTotal, p.missCovHits, p.missCovTotal,
        p.missAccHits, p.missAccTotal, p.icacheBubbles,
        p.redirectBubbles, p.robStalls, p.delaySamples,
        p.delayOverflow, p.delayDigest);
    return buf;
}

// Captured from the model before the writeback queue, the HGVQ
// windows and the unlimited PC tables were rewritten; every later
// revision must reproduce them exactly.
const Pin pins[] = {
    {"mcf", "baseline", 8192, 0, 81761,
     0, 171043, 0, 0, 0, 0,
     0, 18379, 0, 0,
     0, 1935, 50745,
     136833, 1678, 0xca75d9b528807bdfull},
    {"mcf", "l_stride", 8192, 0, 69386,
     131978, 171043, 91963, 131978, 105970, 170978,
     13379, 18379, 8073, 13379,
     0, 1699, 34466,
     136833, 2119, 0xfc9bff6f622e07f8ull},
    {"mcf", "l_context", 8192, 0, 75926,
     93000, 171043, 65922, 93000, 76384, 145500,
     1871, 18379, 934, 1871,
     0, 1680, 42308,
     136833, 3007, 0x2fec9141a8ecebf1ull},
    {"mcf", "sgvq", 8192, 0, 81788,
     148, 171043, 6, 148, 2802, 170818,
     0, 18379, 0, 0,
     0, 1941, 50778,
     136833, 1698, 0xa5f74ea8dc3b90e0ull},
    {"mcf", "hgvq", 8192, 0, 67963,
     139074, 171043, 96225, 139074, 108275, 170978,
     15511, 18379, 10030, 15511,
     0, 1727, 32223,
     136833, 2412, 0x7c3b8ccdc7f0e99dull},
    {"gzip", "baseline", 8192, 0, 81427,
     0, 143624, 0, 0, 0, 0,
     0, 2061, 0, 0,
     0, 35455, 7962,
     115501, 316, 0x83065ae28635b83full},
    {"gzip", "l_stride", 8192, 0, 73715,
     31822, 143624, 23281, 31822, 26503, 143580,
     132, 2061, 43, 132,
     0, 26531, 9310,
     115501, 244, 0xe34ac430c5a26ff6ull},
    {"gzip", "l_context", 8192, 0, 75372,
     27575, 143624, 20522, 27575, 22499, 89829,
     0, 2061, 0, 0,
     0, 28709, 8705,
     115501, 234, 0xff2db1730655cb33ull},
    {"gzip", "sgvq", 8192, 0, 81427,
     623, 143624, 225, 623, 1587, 140822,
     0, 2061, 0, 0,
     0, 35453, 7962,
     115501, 324, 0x00accc2b5e4fb722ull},
    {"gzip", "hgvq", 8192, 0, 75181,
     39535, 143624, 25719, 39535, 31349, 143580,
     163, 2061, 53, 163,
     0, 28167, 9093,
     115501, 260, 0xfd8b0791540f5e9dull},
    {"mcf", "l_context", 0, 0, 75926,
     93000, 171043, 65922, 93000, 76384, 145500,
     1871, 18379, 934, 1871,
     0, 1680, 42308,
     136833, 3007, 0x2fec9141a8ecebf1ull},
    {"mcf", "sgvq", 0, 0, 81788,
     148, 171043, 6, 148, 2802, 170818,
     0, 18379, 0, 0,
     0, 1941, 50778,
     136833, 1698, 0xa5f74ea8dc3b90e0ull},
    {"mcf", "hgvq", 0, 0, 67963,
     139074, 171043, 96225, 139074, 108275, 170978,
     15511, 18379, 10030, 15511,
     0, 1727, 32223,
     136833, 2412, 0x7c3b8ccdc7f0e99dull},
    {"gzip", "hgvq", 8192, 30000, 76709,
     56505, 165470, 41768, 56505, 47405, 165426,
     158, 2539, 50, 158,
     0, 27250, 11691,
     115898, 318, 0x3e1ae11f946ca3e6ull},
};

class SchemePin : public ::testing::TestWithParam<Pin>
{
};

TEST_P(SchemePin, ExactPipelineBooks)
{
    const Pin &want = GetParam();
    Pin got = runPin(want);
    bool same =
        got.cycles == want.cycles && got.covHits == want.covHits &&
        got.covTotal == want.covTotal && got.accHits == want.accHits &&
        got.accTotal == want.accTotal && got.rawHits == want.rawHits &&
        got.rawTotal == want.rawTotal &&
        got.missCovHits == want.missCovHits &&
        got.missCovTotal == want.missCovTotal &&
        got.missAccHits == want.missAccHits &&
        got.missAccTotal == want.missAccTotal &&
        got.icacheBubbles == want.icacheBubbles &&
        got.redirectBubbles == want.redirectBubbles &&
        got.robStalls == want.robStalls &&
        got.delaySamples == want.delaySamples &&
        got.delayOverflow == want.delayOverflow &&
        got.delayDigest == want.delayDigest;
    EXPECT_TRUE(same) << "pinned:\n"
                      << row(want) << "\nactual:\n"
                      << row(got);
}

std::string
pinName(const ::testing::TestParamInfo<Pin> &info)
{
    std::string n = std::string(info.param.kernel) + "_" +
                    info.param.scheme;
    if (info.param.tableEntries == 0)
        n += "_unlimited";
    if (info.param.functionalWarmup > 0)
        n += "_fwarm";
    return n;
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemePin, ::testing::ValuesIn(pins),
                         pinName);

} // namespace
} // namespace gdiff
