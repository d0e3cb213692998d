/**
 * @file
 * OOO timing-model tests: IPC bounds, dependence serialisation,
 * cache and branch-penalty sensitivity, value-speculation effects,
 * the writeback ordering that drives the predictor schemes, and the
 * bounded store-to-load table.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "isa/program_builder.hh"
#include "pipeline/ooo_model.hh"
#include "util/random.hh"
#include "workload/executor.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace pipeline {
namespace {

using namespace isa;
using namespace isa::reg;

/** Straight-line independent ALU work in an endless loop. */
isa::Program
independentLoop()
{
    ProgramBuilder b("indep");
    Label top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < 16; ++i)
        b.addi(static_cast<Reg>(t0 + (i % 8)), s1, i);
    b.jump(top);
    return b.build();
}

/** A serial dependence chain: every op feeds the next. */
isa::Program
serialLoop()
{
    ProgramBuilder b("serial");
    Label top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < 16; ++i)
        b.addi(t0, t0, 1);
    b.jump(top);
    return b.build();
}

PipelineStats
runProgram(const isa::Program &p, uint64_t instructions,
           VpScheme *scheme = nullptr,
           const PipelineConfig &cfg = PipelineConfig::paper())
{
    workload::Executor exec(p);
    NoPrediction local;
    OooPipeline pipe(cfg, scheme ? *scheme : local);
    return pipe.run(exec, instructions, instructions / 10);
}

TEST(OooPipeline, IndependentWorkReachesWidthBound)
{
    PipelineStats s = runProgram(independentLoop(), 50'000);
    // 16 ALU ops + 1 jump per iteration, 4-wide machine: IPC must
    // approach (though never exceed) the machine width.
    EXPECT_GT(s.ipc, 3.0);
    EXPECT_LE(s.ipc, 4.05);
}

TEST(OooPipeline, SerialChainBoundByLatency)
{
    PipelineStats s = runProgram(serialLoop(), 50'000);
    // Every addi waits for its predecessor: IPC ~ 1 even on a 4-wide
    // machine.
    EXPECT_LT(s.ipc, 1.3);
    EXPECT_GT(s.ipc, 0.5);
}

TEST(OooPipeline, SerialBeatenByValuePrediction)
{
    // A perfectly stride-predictable serial chain: with value
    // speculation, consumers break free of the chain.
    LocalScheme scheme(
        std::make_unique<predictors::StridePredictor>(1024),
        "l_stride");
    PipelineStats base = runProgram(serialLoop(), 50'000);
    PipelineStats sped = runProgram(serialLoop(), 50'000, &scheme);
    EXPECT_GT(sped.ipc, base.ipc * 1.5);
    EXPECT_GT(sped.coverage.value(), 0.8);
    EXPECT_GT(sped.gatedAccuracy.value(), 0.9);
}

TEST(OooPipeline, CacheMissesSlowLoads)
{
    // Pointer-walk over a working set far larger than the D-cache vs
    // one that fits: the former must be slower.
    auto make_walk = [](int64_t words) {
        ProgramBuilder b("walk");
        Label top = b.newLabel();
        b.bind(top);
        b.load(t1, s1, 0);     // serialising load (chases itself)
        b.addi(s1, t1, 0);
        b.jump(top);
        Program p = b.build();
        workload::Workload w;
        w.program = p;
        // circular pointer chain with 64-byte pitch
        for (int64_t i = 0; i < words; ++i) {
            w.memoryImage.emplace_back(
                0x10000000 + static_cast<uint64_t>(i) * 64,
                0x10000000 +
                    static_cast<int64_t>(((i + 1) % words) * 64));
        }
        w.initialRegs[s1] = 0x10000000;
        return w;
    };

    NoPrediction s1_, s2_;
    workload::Workload small = make_walk(64);      // 4 KiB
    workload::Workload big = make_walk(32768);     // 2 MiB
    auto e1 = small.makeExecutor();
    auto e2 = big.makeExecutor();
    OooPipeline p1(PipelineConfig::paper(), s1_);
    OooPipeline p2(PipelineConfig::paper(), s2_);
    PipelineStats r1 = p1.run(*e1, 30'000, 3'000);
    PipelineStats r2 = p2.run(*e2, 30'000, 3'000);
    EXPECT_LT(r2.ipc, r1.ipc * 0.5);
    EXPECT_GT(r2.dcacheMissRate, 0.9);
    EXPECT_LT(r1.dcacheMissRate, 0.1);
}

TEST(OooPipeline, MispredictedBranchesCostCycles)
{
    // Alternating vs data-dependent (pseudo-random) branch.
    auto make_branchy = [](bool random) {
        ProgramBuilder b("branchy");
        Label top = b.newLabel();
        Label skip = b.newLabel();
        b.bind(top);
        b.load(t1, s1, 0);     // selector word
        b.addi(s1, s1, 8);
        b.andi(t2, t1, 1);
        b.beq(t2, zero, skip);
        b.addi(t3, t3, 1);
        b.bind(skip);
        b.addi(t4, t4, 1);
        b.blt(s1, a2, top);
        b.addi(s1, a1, 0);
        b.jump(top);
        workload::Workload w;
        w.program = b.build();
        Xorshift64Star rng(7);
        for (int64_t i = 0; i < 8192; ++i) {
            int64_t v = random ? static_cast<int64_t>(rng.below(2))
                               : 0;
            w.memoryImage.emplace_back(
                0x10000000 + static_cast<uint64_t>(i) * 8, v);
        }
        w.initialRegs[s1] = 0x10000000;
        w.initialRegs[a1] = 0x10000000;
        w.initialRegs[a2] = 0x10000000 + 8192 * 8;
        return w;
    };

    NoPrediction n1, n2;
    workload::Workload easy = make_branchy(false);
    workload::Workload hard = make_branchy(true);
    auto e1 = easy.makeExecutor();
    auto e2 = hard.makeExecutor();
    OooPipeline p1(PipelineConfig::paper(), n1);
    OooPipeline p2(PipelineConfig::paper(), n2);
    PipelineStats r1 = p1.run(*e1, 40'000, 8'000);
    PipelineStats r2 = p2.run(*e2, 40'000, 8'000);
    EXPECT_GT(r1.branchAccuracy, 0.95);
    EXPECT_LT(r2.branchAccuracy, 0.9);
    EXPECT_LT(r2.ipc, r1.ipc);
}

TEST(OooPipeline, ValueDelayGrowsWithLoadLatency)
{
    // The serialising pointer walk has long dispatch-to-writeback
    // intervals; the delay histogram must reflect producers flowing
    // past in-flight loads.
    workload::Workload w = workload::makeWorkload("mcf", 1);
    auto exec = w.makeExecutor();
    NoPrediction scheme;
    OooPipeline pipe(PipelineConfig::paper(), scheme);
    PipelineStats s = pipe.run(*exec, 60'000, 10'000);
    EXPECT_GT(s.valueDelay.mean(), 2.0);
    EXPECT_GT(s.valueDelay.samples(), 10'000u);
}

TEST(OooPipeline, MissingLoadStatsPopulated)
{
    workload::Workload w = workload::makeWorkload("mcf", 1);
    auto exec = w.makeExecutor();
    core::GDiffConfig gcfg;
    gcfg.order = 32;
    gcfg.tableEntries = 8192;
    HgvqScheme scheme(gcfg);
    OooPipeline pipe(PipelineConfig::paper(), scheme);
    PipelineStats s = pipe.run(*exec, 80'000, 20'000);
    EXPECT_GT(s.missLoadCoverage.total(), 1000u);
    EXPECT_GT(s.missLoadCoverage.value(), 0.2);
}

TEST(OooPipeline, StallAttributionMatchesKernelCharacter)
{
    // gcc is front-end bound (rotating indirect calls): redirect
    // bubbles dominate. mcf is memory bound: ROB stalls dominate.
    auto run = [](const char *name) {
        workload::Workload w = workload::makeWorkload(name, 1);
        auto exec = w.makeExecutor();
        NoPrediction scheme;
        OooPipeline pipe(PipelineConfig::paper(), scheme);
        return pipe.run(*exec, 80'000, 20'000);
    };
    PipelineStats gcc_s = run("gcc");
    PipelineStats mcf_s = run("mcf");
    EXPECT_GT(gcc_s.redirectBubbleCycles, gcc_s.robStallCycles);
    EXPECT_GT(mcf_s.robStallCycles, mcf_s.redirectBubbleCycles * 4);
    // attribution never exceeds total cycles
    EXPECT_LE(gcc_s.redirectBubbleCycles + gcc_s.icacheBubbleCycles,
              gcc_s.cycles * 2);
}

TEST(BranchPredictor, GsharePredictsStablePatterns)
{
    BranchPredictor bp(PipelineConfig::paper());
    workload::TraceRecord r;
    r.inst.op = isa::Opcode::Beq;
    r.pc = 0x400100;
    unsigned correct = 0;
    for (int i = 0; i < 200; ++i) {
        r.taken = true; // always taken
        if (bp.predictAndTrain(r))
            ++correct;
    }
    EXPECT_GT(correct, 180u);
}

TEST(BranchPredictor, RasMatchesCallReturnPairs)
{
    BranchPredictor bp(PipelineConfig::paper());
    workload::TraceRecord call;
    call.inst.op = isa::Opcode::Jal;
    call.pc = isa::indexToPc(10);
    call.nextPc = isa::indexToPc(100);
    call.taken = true;

    workload::TraceRecord ret;
    ret.inst.op = isa::Opcode::Jr;
    ret.pc = isa::indexToPc(105);
    ret.nextPc = isa::indexToPc(11); // return to call site + 1
    ret.taken = true;

    for (int i = 0; i < 10; ++i) {
        bp.predictAndTrain(call);
        EXPECT_TRUE(bp.predictAndTrain(ret));
    }
    EXPECT_DOUBLE_EQ(bp.indirectAccuracy().value(), 1.0);
}

TEST(BranchPredictor, RotatingIndirectTargetsMispredict)
{
    BranchPredictor bp(PipelineConfig::paper());
    workload::TraceRecord jalr;
    jalr.inst.op = isa::Opcode::Jalr;
    jalr.pc = isa::indexToPc(10);
    jalr.taken = true;
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        jalr.nextPc = isa::indexToPc(
            static_cast<uint32_t>(100 + (i % 7) * 50));
        if (bp.predictAndTrain(jalr))
            ++correct;
    }
    // last-target BTB cannot track 7 rotating targets
    EXPECT_LT(correct, 20u);
}

TEST(StoreReadyTable, AnswersEveryStoreInTheWindow)
{
    // Against an unbounded map: an address whose last store is among
    // the last `window` stores must read back exactly; one never
    // stored reads 0; an older one may read either. Fresh addresses
    // outnumber the table's slots many times over, so it rebuilds
    // from its ring again and again.
    for (unsigned window : {1u, 4u, 64u, 200u}) {
        StoreReadyTable t(window);
        struct Last
        {
            uint64_t cycle, store;
        };
        std::unordered_map<uint64_t, Last> model;
        Xorshift64Star rng(window);
        auto pick = [&]() -> uint64_t {
            switch (rng.below(4)) {
              case 0:
                return rng.chancePercent(50) ? 0 : ~uint64_t(0);
              case 1:
                return 8 * rng.below(16);
              case 2:
                return rng.next();
              default:
                return 0x10000000 + 8 * rng.below(4 * window + 8);
            }
        };
        uint64_t stores = 0;
        for (uint64_t step = 1; step <= 200'000; ++step) {
            uint64_t addr = pick();
            if (rng.chancePercent(40)) {
                t.insert(addr, step);
                model[addr] = {step, stores++};
                continue;
            }
            uint64_t got = t.lookup(addr);
            auto it = model.find(addr);
            if (it == model.end()) {
                ASSERT_EQ(got, 0u) << "window " << window;
            } else if (stores - it->second.store <= window) {
                ASSERT_EQ(got, it->second.cycle)
                    << "window " << window << " addr " << addr;
            } else {
                ASSERT_TRUE(got == 0 || got == it->second.cycle)
                    << "window " << window << " addr " << addr;
            }
        }
    }
}

} // namespace
} // namespace pipeline
} // namespace gdiff
