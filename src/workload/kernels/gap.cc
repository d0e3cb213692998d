/**
 * @file
 * The "gap" kernel: computer-algebra-style generational values.
 *
 * The paper singles gap out (§3): its values come from long
 * hard-to-predict computation chains, so *no* predictor does well,
 * and the only global correlations sit at distances just beyond a
 * small GVQ — which is why gap's gdiff accuracy is maximised at a
 * non-zero value delay (Fig. 10) and improves sharply when the queue
 * grows from 8 to 32 entries.
 *
 * Construction: each outer iteration runs a 7-op non-linear chain
 * (mul/xor/shift only — no additive structure), then *reuses* chain
 * values with constant offsets exactly 9 producers back, adds
 * counter-style local food, and with 50% probability appends a noisy
 * variable-length tail that randomises cross-iteration distances.
 */

#include "workload/kernels.hh"

#include "isa/program_builder.hh"
#include "util/random.hh"

namespace gdiff {
namespace workload {
namespace kernels {

using namespace isa;
using namespace isa::reg;

namespace {

constexpr int64_t seedWords = 65536; // 512 KiB of generator seeds
constexpr uint64_t seedBase = dataBase;
constexpr uint64_t seedEnd = seedBase + seedWords * 8;

} // anonymous namespace

Workload
makeGap(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 5);

    for (int64_t i = 0; i < seedWords; ++i) {
        w.memoryImage.emplace_back(
            seedBase + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(rng.next() >> 8));
    }

    ProgramBuilder b("gap");
    Label top = b.newLabel();
    Label skip_tail = b.newLabel();

    b.bind(top);
    uint32_t loop_head = b.here();
    b.load(t1, s1, 0);     // G1: generator seed (hard)
    b.addi(s1, s1, 8);     // G2: seed-table advance (local food)

    // 7-op non-linear chain: t2..t8, no additive structure between
    // links (one short-distance reuse keeps a sliver of in-window
    // global predictability, as fig. 8 shows for gap)
    b.mul(t2, t1, s4);     // C1
    b.srli(t3, t2, 13);    // C2
    b.xor_(t4, t3, t2);    // C3
    b.addi(a2, t4, 12);    // CD1: short-distance reuse of C3
    b.mul(t5, t4, s6);     // C4
    b.srli(t6, t5, 7);     // C5
    b.xor_(t7, t6, t5);    // C6
    b.mul(t8, t7, s4);     // C7

    // Reuses of values exactly 9 producers back at each reuse's own
    // position: just beyond an 8-entry GVQ at zero delay, but visible
    // once the value delay shifts the window (the paper's gap anomaly
    // in Fig. 10) or the queue grows to 32 (§3's observation).
    b.addi(v0, t1, 40);    // R1: the seed (9 back)
    b.addi(v1, s1, 56);    // R2: the advanced pointer (9 back)
    b.addi(t9, t2, 72);    // R3: chain link C1 (9 back)
    b.addi(t0, t3, 88);    // R4: chain link C2 (9 back)
    b.addi(a2, t4, 44);    // R5: chain link C3 (9 back)
    b.addi(s0, t5, 52);    // R6: chain link C4 (9 back)

    // local-stride food: a bookkeeping block unrolled four times, so
    // its cross-block strides stay within a small global window at
    // any delay, without a sawtooth trip counter ------------------------
    for (int u = 0; u < 4; ++u) {
        b.addi(s2, s2, 24);    // m1: strided counter
        b.addi(a0, s2, 4);     // m2: derived (diff 4)
        b.addi(a1, a0, 8);     // m3: second derived link
        b.addi(s3, s3, -8);    // m4: strided counter
        b.addi(a1, s3, 12);    // m5: derived (diff 12)
    }

    // 50% variable-length noisy tail -----------------------------------
    b.andi(t2, t1, 1);     // S1: selector (hard)
    b.beq(t2, zero, skip_tail);
    b.mul(t3, t8, s6);     // T1..T4: more generational noise
    b.srli(t4, t3, 11);
    b.xor_(t5, t4, t3);
    b.mul(t6, t5, s4);
    b.bind(skip_tail);

    b.store(t8, s8, 0);    //     log the chain result
    b.blt(s1, a3, top);    //     loop branch: taken until wrap
    b.addi(s1, gp, 0);     //     rare seed-table rewind
    b.jump(top);

    w.program = b.build();

    w.initialRegs[s1] = static_cast<int64_t>(seedBase);
    // odd multipliers for the non-linear chain
    w.initialRegs[s4] = static_cast<int64_t>(0x9e3779b97f4a7c15ull);
    w.initialRegs[s6] = static_cast<int64_t>(0xbf58476d1ce4e5b9ull);
    w.initialRegs[gp] = static_cast<int64_t>(seedBase);
    w.initialRegs[a3] = static_cast<int64_t>(seedEnd);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
