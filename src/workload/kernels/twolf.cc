/**
 * @file
 * The "twolf" kernel: standard-cell-placement cost evaluation.
 *
 * Cells are allocated sequentially, and their coordinate fields are
 * affine in the cell's own address (cells placed in allocation order
 * along rows). The annealer evaluates swap costs between a randomly
 * chosen cell and its allocation neighbour, so the coordinate loads
 * and every derived quantity carry constant *global* strides while
 * the random pair selection destroys all local-history locality —
 * this is the benchmark where the paper reports one of gdiff's
 * largest wins over local predictors (up to +34% accuracy).
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

constexpr int64_t numCells = 8192;
constexpr int64_t cellBytes = 32;
constexpr uint64_t cellBase = dataBase;
constexpr uint64_t cellEnd = cellBase + numCells * cellBytes;
constexpr int64_t pickWords = 32768; // pre-scaled random pick table
constexpr uint64_t pickBase = cellEnd;
constexpr uint64_t pickEnd = pickBase + pickWords * 8;

constexpr int64_t x0 = 0x400000;
constexpr int64_t y0 = 0x900000;

} // anonymous namespace

Workload
makeTwolf(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 6);

    // Cells: coordinates affine in the address with matching pitch.
    for (int64_t i = 0; i < numCells; ++i) {
        uint64_t cell = cellBase + static_cast<uint64_t>(i * cellBytes);
        int64_t x = x0 + 32 * i;
        int64_t y = y0 + 32 * i;
        if (rng.chancePercent(5))
            x += static_cast<int64_t>(rng.below(64)) - 32;
        if (rng.chancePercent(5))
            y += static_cast<int64_t>(rng.below(64)) - 32;
        w.memoryImage.emplace_back(cell + 0, x);
        w.memoryImage.emplace_back(cell + 8, y);
        w.memoryImage.emplace_back(cell + 16,
                                   static_cast<int64_t>(rng.below(4096)));
    }

    // Pick table: pre-scaled byte offsets of random cells (never the
    // last cell, so the +32 neighbour always exists).
    for (int64_t i = 0; i < pickWords; ++i) {
        w.memoryImage.emplace_back(
            pickBase + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(rng.below(numCells - 1)) * cellBytes);
    }

    ProgramBuilder b("twolf");
    Label top = b.newLabel();

    b.bind(top);
    uint32_t loop_head = b.here();
    b.load(t1, s1, 0);     // W1: random pick offset (hard)
    b.addi(s1, s1, 8);     // W2: pick-table advance (local food)
    b.add(t2, s2, t1);     // W3: a = cellBase + pick; diff == cellBase
    b.addi(t3, t2, 32);    // W4: b = allocation neighbour; diff == 32
    uint32_t ax_load = b.here();
    b.load(t4, t2, 0);     // W5: a->x; affine in t2 (x - addr const)
    b.addi(s0, t4, 0);     // W5a: keep a->x live for the reuse slots
    b.load(t5, t3, 0);     // W6: b->x; t5 - t4 == 32
    b.sub(t6, t5, t4);     // W7: dx ≈ 32 (stride-0 local)
    b.addi(v0, t6, 16);    // W7a: derived from dx (diff 16, exact)
    b.load(t7, t2, 8);     // W8: a->y; t7 - t4 == y0 - x0
    b.load(t8, t3, 8);     // W9: b->y
    b.sub(t9, t8, t7);     // W10: dy ≈ 32
    b.addi(v1, t9, 24);    // W10a: derived from dy (diff 24, exact)
    b.add(v0, t6, t9);     // W11: swap cost ≈ 64
    b.store(v0, s8, 0);    //     spill the cost
    b.load(v1, s8, 0);     // W12: FILL reload of the cost
    b.add(t0, v1, s4);     // W13: chain off the reload
    b.addi(t4, t0, 8);     // W14: second chain link
    b.addi(t6, t4, -20);   // W14a: third chain link
    b.addi(t4, t6, 44);    // W14b: fourth chain link
    b.addi(t6, t4, 4);     // W14c: fifth chain link
    // Cross-iteration reuse: the previous and before-previous moves'
    // a->x coordinates (random picks, so locally unpredictable) are
    // reloaded — long-distance global stride food.
    b.load(t7, s8, 16);    // RL1: a->x from two moves back
    b.addi(t8, t7, 12);    // RL2: chain
    b.load(t7, s8, 8);     // RL3: a->x from one move back
    b.store(t7, s8, 16);   //      age to depth two
    b.store(s0, s8, 8);    //      current move's a->x to depth one
    b.addi(s3, s3, 1);     // W15: accepted-move counter
    // Replace the just-consumed pick with a fresh pseudo-random one
    // (annealing never repeats its move sequence): rolling LCG, kept
    // a multiple of 64 so the chosen cell and its +32 neighbour stay
    // inside the initialised array.
    b.mul(s6, s6, s5);     // W16: LCG state (hard)
    b.srli(t5, s6, 13);    // W17: scrambled (hard)
    b.andi(t5, t5, 0x3ffc0); // W18: bounded pick offset (hard)
    b.store(t5, s1, -8);   //      overwrite the slot just read
    b.blt(s1, a2, top);    //     loop branch: taken until wrap
    b.addi(s1, a1, 0);     //     rare pick-table rewind
    b.jump(top);

    w.program = b.build();

    w.initialRegs[s1] = static_cast<int64_t>(pickBase);
    w.initialRegs[s2] = static_cast<int64_t>(cellBase);
    w.initialRegs[s4] = 48;
    w.initialRegs[s5] = 2862933555777941757ll; // LCG multiplier
    w.initialRegs[s6] = static_cast<int64_t>(
        seed * 2 + 0x9e3779b97f4a7c15ull);     // odd LCG state
    w.initialRegs[a1] = static_cast<int64_t>(pickBase);
    w.initialRegs[a2] = static_cast<int64_t>(pickEnd);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    w.markers.emplace_back("ax_load", indexToPc(ax_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
