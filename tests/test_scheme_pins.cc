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

#include "check/fuzzer.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "util/random.hh"
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

// ------------------------------------------------ stressed machines

/**
 * Addresses the canned stream stores to and loads from: 0 and ~0, and
 * three groups that share a home slot in the pipeline's store table at
 * every ROB size up to 256 (its hash keeps the top bits of a product,
 * so a shared slot in the largest table is shared in every smaller
 * one). The first group collides with 0 in slot 0, the second with ~0,
 * and the third sits in the last slot, so its probes wrap to slot 0.
 */
const uint64_t cannedAddrs[] = {
    0, ~uint64_t(0),
    0x10006b70, 0x10007588, 0x10007fa0, 0x10012090,
    0x10012aa8, 0x100134c0, 0x1001d5b0,
    0x10003058, 0x10003a70, 0x10004488, 0x1000e578,
    0x1000ef90, 0x1000f9a8, 0x10019a98,
    0x100089b8, 0x100093d0, 0x10009de8, 0x10013ed8,
    0x100148f0, 0x10015308, 0x1001f3f8, 0x1001fe10,
};

TEST(CannedStoreLoadStream, AddressesShareHomeSlots)
{
    // The groups collide at every ROB size the pins use and beyond;
    // if the table's hash changes, pick new addresses here.
    for (unsigned rob : {1u, 4u, 64u, 200u, 256u}) {
        pipeline::StoreReadyTable t(rob);
        const size_t last = t.capacity() - 1;
        for (size_t i = 2; i < 9; ++i)
            EXPECT_EQ(t.homeSlot(cannedAddrs[i]), 0u) << rob;
        for (size_t i = 9; i < 16; ++i) {
            EXPECT_EQ(t.homeSlot(cannedAddrs[i]),
                      t.homeSlot(~uint64_t(0)))
                << rob;
        }
        for (size_t i = 16; i < std::size(cannedAddrs); ++i)
            EXPECT_EQ(t.homeSlot(cannedAddrs[i]), last) << rob;
    }
}

/**
 * A canned 12-instruction loop body replayed for a fixed number of
 * iterations. Each body has a divide feeding a store, loads that read
 * either that store's address, one of cannedAddrs, or one of 8192
 * other addresses (which churn the store table through its
 * rebuilds), and a stride-predictable counter.
 */
class CannedStoreLoadStream : public workload::TraceSource
{
  public:
    explicit CannedStoreLoadStream(uint64_t iterations)
        : left(iterations * bodyOps)
    {
    }

    bool
    next(workload::TraceRecord &r) override
    {
        using isa::Opcode;
        namespace reg = isa::reg;
        if (left == 0)
            return false;
        --left;
        const unsigned slot = static_cast<unsigned>(seq % bodyOps);
        r = workload::TraceRecord();
        r.seq = seq++;
        r.pc = 0x400000 + isa::instBytes * slot;
        r.nextPc = r.pc + isa::instBytes;
        r.value = static_cast<int64_t>(rng.next() >> 40);
        auto op = [&](Opcode o, isa::Reg rd, isa::Reg rs1,
                      isa::Reg rs2) {
            r.inst.op = o;
            r.inst.rd = rd;
            r.inst.rs1 = rs1;
            r.inst.rs2 = rs2;
        };
        switch (slot) {
          case 0:
            op(Opcode::Div, reg::t0, reg::t1, reg::t2);
            break;
          case 1:
          case 5:
          case 9:
            op(Opcode::Store, reg::zero, reg::t3,
               slot == 1 ? reg::t0 : reg::t5);
            lastStore = r.effAddr = address();
            break;
          case 2:
          case 6:
          case 10:
            op(Opcode::Load, slot == 2 ? reg::t4 : reg::t6, reg::t3,
               reg::zero);
            r.effAddr = rng.chancePercent(50) ? lastStore : address();
            if (slot == 6)
                r.value = static_cast<int64_t>(r.effAddr >> 3);
            break;
          case 3:
          case 11:
            op(Opcode::Add, reg::t5, reg::t4, reg::t6);
            break;
          case 4:
            op(Opcode::Addi, reg::t1, reg::t1, reg::zero);
            r.value = static_cast<int64_t>(seq / bodyOps);
            break;
          case 7:
            op(Opcode::Mul, reg::t2, reg::t6, reg::t1);
            break;
          default:
            op(Opcode::Rem, reg::t7, reg::t2, reg::t4);
            break;
        }
        return true;
    }

  private:
    static constexpr uint64_t bodyOps = 12;

    uint64_t
    address()
    {
        if (rng.chancePercent(50))
            return cannedAddrs[rng.below(std::size(cannedAddrs))];
        return 0x20000000 + 8 * rng.below(8192);
    }

    Xorshift64Star rng{0x5eed};
    uint64_t left;
    uint64_t seq = 0;
    uint64_t lastStore = 0;
};

/** One hgvq run on a machine that stresses the cycle loop. */
struct StressPin
{
    const char *source;  ///< "mcf", "fuzz3" or "canned"
    const char *machine; ///< "rob4", "rob200" or "longlat"
    uint64_t instructions;
    uint64_t cycles;
    uint64_t covHits, covTotal;
    uint64_t accHits, accTotal;
    uint64_t missCovHits, missCovTotal;
    uint64_t missAccHits, missAccTotal;
    uint64_t delaySamples, delayOverflow, delayDigest;
};

void
PrintTo(const StressPin &p, std::ostream *os)
{
    *os << p.source << " on " << p.machine;
}

/** @return the machine a StressPin names, with the checker on. */
pipeline::PipelineConfig
stressMachine(const std::string &name)
{
    pipeline::PipelineConfig cfg;
    cfg.check.enabled = true;
    if (name == "rob4") {
        cfg.robSize = 4;
    } else if (name == "rob200") {
        cfg.robSize = 200;
    } else {
        EXPECT_EQ(name, "longlat");
        cfg.divLatency = 60;
        cfg.dcache.missPenalty = 100;
    }
    return cfg;
}

StressPin
runStressPin(const StressPin &spec)
{
    const std::string src = spec.source;
    auto scheme = runner::makeScheme("hgvq", 32, 8192);
    pipeline::OooPipeline pipe(stressMachine(spec.machine), *scheme);
    pipeline::PipelineStats s;
    if (src == "canned") {
        CannedStoreLoadStream stream(3'000);
        s = pipe.run(stream, 32'000, 4'000);
    } else if (src == "fuzz3") {
        check::FuzzProgramConfig pcfg;
        pcfg.seed = 3;
        workload::Workload w = check::fuzzProgram(pcfg);
        auto exec = w.makeExecutor();
        s = pipe.run(*exec, 1'000'000'000, 2'000);
    } else {
        workload::Workload w = workload::makeWorkload(src, 1);
        auto exec = w.makeExecutor();
        s = pipe.run(*exec, pinInstructions, pinWarmup);
    }
    EXPECT_EQ(s.checkViolations, 0u)
        << spec.source << " on " << spec.machine << ": "
        << (s.checkReports.empty() ? "(no report)"
                                   : s.checkReports.front());

    StressPin got = spec;
    got.instructions = s.instructions;
    got.cycles = s.cycles;
    got.covHits = s.coverage.hits();
    got.covTotal = s.coverage.total();
    got.accHits = s.gatedAccuracy.hits();
    got.accTotal = s.gatedAccuracy.total();
    got.missCovHits = s.missLoadCoverage.hits();
    got.missCovTotal = s.missLoadCoverage.total();
    got.missAccHits = s.missLoadAccuracy.hits();
    got.missAccTotal = s.missLoadAccuracy.total();
    got.delaySamples = s.valueDelay.samples();
    got.delayOverflow = s.valueDelay.overflow();
    got.delayDigest = delayDigest(s.valueDelay);
    return got;
}

/** @return @p p as one initializer row of the stress table. */
std::string
stressRow(const StressPin &p)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"%s\", \"%s\", %" PRIu64 ", %" PRIu64 ",\n     %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n     %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n     %" PRIu64
        ", %" PRIu64 ", 0x%016" PRIx64 "ull},",
        p.source, p.machine, p.instructions, p.cycles, p.covHits,
        p.covTotal, p.accHits, p.accTotal, p.missCovHits,
        p.missCovTotal, p.missAccHits, p.missAccTotal, p.delaySamples,
        p.delayOverflow, p.delayDigest);
    return buf;
}

// Small ROBs stall dispatch on nearly every record; a 200-entry ROB and
// long latencies let completions run far ahead of dispatch, and the
// canned stream keeps store-to-load dependences on colliding addresses
// live. Captured from the model with the sorted writeback ring and the
// hash-map store table; the wheel and the bounded table must reproduce
// them exactly.
const StressPin stressPins[] = {
    {"mcf", "rob4", 160000, 327452,
     158704, 171043, 119315, 158704,
     17150, 18379, 12011, 17150,
     136833, 0, 0x2373b21df4811a75ull},
    {"mcf", "rob200", 160000, 45546,
     93638, 171043, 59583, 93638,
     9806, 18379, 4867, 9806,
     136833, 69016, 0x966d18900b13b931ull},
    {"mcf", "longlat", 160000, 307432,
     143391, 171043, 102127, 143391,
     15740, 18379, 10554, 15740,
     136833, 3654, 0x8578af6f99a1f0dcull},
    {"fuzz3", "rob4", 18000, 48240,
     17461, 17600, 17461, 17461,
     0, 0, 0, 0,
     15840, 0, 0x5f2fcd5f19442a66ull},
    {"fuzz3", "rob200", 18000, 4526,
     17446, 17600, 17446, 17446,
     0, 0, 0, 0,
     15840, 2872, 0x8845a18cca3993ceull},
    {"fuzz3", "longlat", 18000, 15582,
     17448, 17600, 17448, 17448,
     0, 0, 0, 0,
     15840, 0, 0x5e04741261767071ull},
    {"canned", "rob4", 32000, 146931,
     2995, 27000, 2995, 2995,
     0, 196, 0, 0,
     24000, 0, 0xc930addb8695fe27ull},
    {"canned", "rob200", 32000, 17458,
     2995, 27000, 2995, 2995,
     0, 196, 0, 0,
     24000, 9584, 0xea7eae6c88da0e5full},
    {"canned", "longlat", 32000, 71782,
     2995, 27000, 2995, 2995,
     0, 196, 0, 0,
     24000, 452, 0xec92d9a68fbd6cb8ull},
};

class StressedMachinePin : public ::testing::TestWithParam<StressPin>
{
};

TEST_P(StressedMachinePin, ExactPipelineBooks)
{
    const StressPin &want = GetParam();
    StressPin got = runStressPin(want);
    bool same = got.instructions == want.instructions &&
                got.cycles == want.cycles &&
                got.covHits == want.covHits &&
                got.covTotal == want.covTotal &&
                got.accHits == want.accHits &&
                got.accTotal == want.accTotal &&
                got.missCovHits == want.missCovHits &&
                got.missCovTotal == want.missCovTotal &&
                got.missAccHits == want.missAccHits &&
                got.missAccTotal == want.missAccTotal &&
                got.delaySamples == want.delaySamples &&
                got.delayOverflow == want.delayOverflow &&
                got.delayDigest == want.delayDigest;
    EXPECT_TRUE(same) << "pinned:\n"
                      << stressRow(want) << "\nactual:\n"
                      << stressRow(got);
}

std::string
stressPinName(const ::testing::TestParamInfo<StressPin> &info)
{
    return std::string(info.param.source) + "_" + info.param.machine;
}

INSTANTIATE_TEST_SUITE_P(Machines, StressedMachinePin,
                         ::testing::ValuesIn(stressPins), stressPinName);

} // namespace
} // namespace gdiff
