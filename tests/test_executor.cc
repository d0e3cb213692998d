/**
 * @file
 * Functional-simulator tests: instruction semantics, trace-record
 * contents, control flow, and memory behaviour.
 */

#include <gtest/gtest.h>

#include <limits>

#include "isa/program_builder.hh"
#include "workload/executor.hh"

namespace gdiff {
namespace workload {
namespace {

using namespace isa;
using namespace isa::reg;

/** Run the program until halt (or a step cap) and return the trace. */
std::vector<TraceRecord>
runAll(Executor &e, uint64_t cap = 10000)
{
    std::vector<TraceRecord> out;
    TraceRecord r;
    while (out.size() < cap && e.next(r))
        out.push_back(r);
    return out;
}

TEST(Executor, AluArithmetic)
{
    ProgramBuilder b("alu");
    b.li(t0, 7);
    b.li(t1, 5);
    b.add(t2, t0, t1);  // 12
    b.sub(t3, t0, t1);  // 2
    b.mul(t4, t0, t1);  // 35
    b.div(t5, t0, t1);  // 1
    b.rem(t6, t0, t1);  // 2
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t2), 12);
    EXPECT_EQ(e.reg(t3), 2);
    EXPECT_EQ(e.reg(t4), 35);
    EXPECT_EQ(e.reg(t5), 1);
    EXPECT_EQ(e.reg(t6), 2);
}

TEST(Executor, LogicalAndShifts)
{
    ProgramBuilder b("logic");
    b.li(t0, 0b1100);
    b.li(t1, 0b1010);
    b.and_(t2, t0, t1); // 0b1000
    b.or_(t3, t0, t1);  // 0b1110
    b.xor_(t4, t0, t1); // 0b0110
    b.slli(t5, t0, 2);  // 48
    b.srli(t6, t0, 2);  // 3
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t2), 0b1000);
    EXPECT_EQ(e.reg(t3), 0b1110);
    EXPECT_EQ(e.reg(t4), 0b0110);
    EXPECT_EQ(e.reg(t5), 48);
    EXPECT_EQ(e.reg(t6), 3);
}

TEST(Executor, SraSignExtends)
{
    ProgramBuilder b("sra");
    b.li(t0, -16);
    b.li(t1, 2);
    b.sra(t2, t0, t1);  // -4
    b.srl(t3, t0, t1);  // huge positive
    b.srai(t4, t0, 3);  // -2
    b.srai(t5, t0, 0);  // -16
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t2), -4);
    EXPECT_GT(e.reg(t3), 0);
    EXPECT_EQ(e.reg(t4), -2);
    EXPECT_EQ(e.reg(t5), -16);
}

TEST(Executor, DivRemEdgeCases)
{
    ProgramBuilder b("divedge");
    b.li(t0, 42);
    b.li(t1, 0);
    b.div(t2, t0, t1); // RISC-V: x/0 == -1
    b.rem(t3, t0, t1); // RISC-V: x%0 == x
    b.li(t4, std::numeric_limits<int64_t>::min());
    b.li(t5, -1);
    b.div(t6, t4, t5); // wraps to INT64_MIN
    b.rem(t7, t4, t5); // 0
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t2), -1);
    EXPECT_EQ(e.reg(t3), 42);
    EXPECT_EQ(e.reg(t6), std::numeric_limits<int64_t>::min());
    EXPECT_EQ(e.reg(t7), 0);
}

TEST(Executor, SltVariants)
{
    ProgramBuilder b("slt");
    b.li(t0, -5);
    b.li(t1, 3);
    b.slt(t2, t0, t1);  // 1
    b.slt(t3, t1, t0);  // 0
    b.slti(t4, t0, 0);  // 1
    b.slti(t5, t1, 3);  // 0
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t2), 1);
    EXPECT_EQ(e.reg(t3), 0);
    EXPECT_EQ(e.reg(t4), 1);
    EXPECT_EQ(e.reg(t5), 0);
}

TEST(Executor, ZeroRegisterIsHardwired)
{
    ProgramBuilder b("zero");
    b.li(zero, 99);
    b.addi(t0, zero, 3);
    b.halt();
    Executor e(b.build());
    auto trace = runAll(e);
    EXPECT_EQ(e.reg(zero), 0);
    EXPECT_EQ(e.reg(t0), 3);
    // The write to r0 reports value 0 (not 99).
    EXPECT_FALSE(trace[0].producesValue());
}

TEST(Executor, LoadStoreRoundTrip)
{
    ProgramBuilder b("mem");
    b.li(t0, 0x10000);
    b.li(t1, 12345);
    b.store(t1, t0, 8);
    b.load(t2, t0, 8);
    b.load(t3, t0, 16); // untouched memory reads zero
    b.halt();
    Executor e(b.build());
    auto trace = runAll(e);
    EXPECT_EQ(e.reg(t2), 12345);
    EXPECT_EQ(e.reg(t3), 0);
    // Effective addresses recorded in the trace.
    EXPECT_EQ(trace[2].effAddr, 0x10008u);
    EXPECT_TRUE(trace[2].isStore());
    EXPECT_EQ(trace[3].effAddr, 0x10008u);
    EXPECT_TRUE(trace[3].isLoad());
    EXPECT_EQ(trace[3].value, 12345);
}

TEST(Executor, MemoryImagePreload)
{
    ProgramBuilder b("img");
    b.li(t0, 0x20000);
    b.load(t1, t0, 0);
    b.halt();
    Executor e(b.build());
    e.memory().write64(0x20000, -777);
    runAll(e);
    EXPECT_EQ(e.reg(t1), -777);
}

TEST(Executor, BranchesTakenAndNot)
{
    ProgramBuilder b("br");
    Label skip = b.newLabel();
    b.li(t0, 1);
    b.li(t1, 1);
    b.beq(t0, t1, skip);   // taken
    b.li(t2, 111);         // skipped
    b.bind(skip);
    b.li(t3, 222);
    b.halt();
    Executor e(b.build());
    auto trace = runAll(e);
    EXPECT_EQ(e.reg(t2), 0);
    EXPECT_EQ(e.reg(t3), 222);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_TRUE(trace[2].isCondBranch());
    EXPECT_EQ(trace[2].nextPc, trace[3].pc);
}

TEST(Executor, LoopExecutesExactCount)
{
    ProgramBuilder b("loop");
    Label top = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 10);
    b.bind(top);
    b.addi(t0, t0, 1);
    b.blt(t0, t1, top);
    b.halt();
    Executor e(b.build());
    runAll(e);
    EXPECT_EQ(e.reg(t0), 10);
}

TEST(Executor, JalAndJr)
{
    ProgramBuilder b("call");
    Label func = b.newLabel();
    Label after = b.newLabel();
    b.jal(ra, func);       // #0
    b.bind(after);
    b.li(t5, 5);           // #1
    b.halt();              // #2
    b.bind(func);
    b.li(t6, 6);           // #3
    b.jr(ra);              // #4
    Executor e(b.build());
    auto trace = runAll(e);
    EXPECT_EQ(e.reg(t5), 5);
    EXPECT_EQ(e.reg(t6), 6);
    // jal recorded the correct return address.
    EXPECT_EQ(static_cast<uint64_t>(e.reg(ra)), indexToPc(1));
    EXPECT_TRUE(trace[0].taken);
}

TEST(Executor, JalrIndirectCall)
{
    ProgramBuilder b("icall");
    Label func = b.newLabel();
    b.li(t0, 0);           // patched below: needs func's pc
    b.jalr(ra, t0);        // #1
    b.li(t1, 1);           // #2
    b.halt();              // #3
    b.bind(func);
    b.li(t2, 2);           // #4
    b.jr(ra);              // #5
    Program p = b.build();

    // Recreate with the real target address now that we know it.
    ProgramBuilder b2("icall2");
    Label func2 = b2.newLabel();
    b2.li(t0, static_cast<int64_t>(indexToPc(4)));
    b2.jalr(ra, t0);
    b2.li(t1, 1);
    b2.halt();
    b2.bind(func2);
    b2.li(t2, 2);
    b2.jr(ra);
    Executor e(b2.build());
    runAll(e);
    EXPECT_EQ(e.reg(t1), 1);
    EXPECT_EQ(e.reg(t2), 2);
}

TEST(Executor, HaltStopsStream)
{
    ProgramBuilder b("halt");
    b.li(t0, 1);
    b.halt();
    b.li(t1, 9); // unreachable
    Executor e(b.build());
    auto trace = runAll(e);
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_TRUE(e.halted());
    TraceRecord r;
    EXPECT_FALSE(e.next(r));
    EXPECT_EQ(e.reg(t1), 0);
}

TEST(Executor, TraceSequenceNumbers)
{
    ProgramBuilder b("seq");
    b.li(t0, 1);
    b.li(t1, 2);
    b.li(t2, 3);
    b.halt();
    Executor e(b.build());
    auto trace = runAll(e);
    ASSERT_EQ(trace.size(), 3u);
    for (uint64_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].seq, i);
        EXPECT_EQ(trace[i].pc, indexToPc(static_cast<uint32_t>(i)));
    }
    EXPECT_EQ(e.instructionsRetired(), 3u);
}

TEST(Memory, AlignedSparseAccess)
{
    Memory m;
    EXPECT_EQ(m.read64(0x5000), 0);
    m.write64(0x5000, 42);
    m.write64(0x5008, -1);
    EXPECT_EQ(m.read64(0x5000), 42);
    EXPECT_EQ(m.read64(0x5008), -1);
    EXPECT_GE(m.allocatedPages(), 1u);
    m.clear();
    EXPECT_EQ(m.read64(0x5000), 0);
}

// The one-page cache in front of the page map must never change what
// a read returns or which pages exist.

TEST(Memory, ReadMissAfterCachedPageAllocatesNothing)
{
    Memory m;
    m.write64(0x5000, 7);
    EXPECT_EQ(m.read64(0x5008), 0); // the cached page, unwritten word
    const size_t pages = m.allocatedPages();
    EXPECT_EQ(m.read64(0x6000), 0); // absent page right after it
    EXPECT_EQ(m.allocatedPages(), pages);
    EXPECT_EQ(m.read64(0x5000), 7);
}

TEST(Memory, WriteAfterReadMissAllocates)
{
    Memory m;
    EXPECT_EQ(m.read64(0x9000), 0);
    EXPECT_EQ(m.allocatedPages(), 0u);
    m.write64(0x9000, -5);
    EXPECT_EQ(m.allocatedPages(), 1u);
    EXPECT_EQ(m.read64(0x9000), -5);
}

TEST(Memory, AlternatingPagesReadBack)
{
    Memory m;
    for (int64_t i = 0; i < 64; ++i) {
        m.write64(0x1000 + 8 * static_cast<uint64_t>(i), i);
        m.write64(0x20000 + 8 * static_cast<uint64_t>(i), -i);
    }
    EXPECT_EQ(m.allocatedPages(), 2u);
    for (int64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(m.read64(0x1000 + 8 * static_cast<uint64_t>(i)), i);
        EXPECT_EQ(m.read64(0x20000 + 8 * static_cast<uint64_t>(i)), -i);
    }
}

TEST(Memory, ReadAfterClearIsZero)
{
    Memory m;
    m.write64(0x3000, 11);
    EXPECT_EQ(m.read64(0x3000), 11); // cached
    m.clear();
    EXPECT_EQ(m.allocatedPages(), 0u);
    EXPECT_EQ(m.read64(0x3000), 0);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

TEST(MemoryDeath, UnalignedAccess)
{
    Memory m;
    EXPECT_DEATH(m.write64(0x5001, 1), "unaligned");
    EXPECT_DEATH((void)m.read64(0x5004 + 1), "unaligned");
}

} // namespace
} // namespace workload
} // namespace gdiff
