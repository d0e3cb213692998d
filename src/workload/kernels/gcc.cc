/**
 * @file
 * The "gcc" kernel: a compiler-like workload with a large static
 * footprint and irregular inter-procedural control flow.
 *
 * 48 small functions are *generated* from four body templates and
 * called through a pseudo-random worklist of function addresses —
 * modelling a compiler's pass dispatch over heterogeneous IR nodes.
 * The rotating indirect-call targets defeat last-target prediction
 * (gcc-like front-end behaviour), and the mixture of templates gives
 * the mid-pack value predictability the paper shows for gcc:
 *
 *  - template A (constant folding): global counters, local food;
 *  - template B (field walk): loads affine in the node address plus
 *    a spill/fill reload — global-stride food;
 *  - template C (spill-heavy): two live values spilled and reloaded;
 *  - template D (hashing): non-linear noise, hard for everyone.
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

constexpr int64_t numFuncs = 48;
constexpr uint64_t globalsBase = dataBase; // one 64-word global block
constexpr uint64_t nodeBase = dataBase + 0x1000;
constexpr int64_t numNodes = 8192;
constexpr int64_t nodeBytes = 48;
constexpr uint64_t nodeEnd = nodeBase + numNodes * nodeBytes;
constexpr uint64_t workBase = nodeEnd;
// Large enough that a measurement run does not lap the worklist: the
// pass sequence must not look like a short memorisable cycle.
constexpr int64_t workWords = 65536;
constexpr uint64_t workEnd = workBase + workWords * 8;

} // anonymous namespace

Workload
makeGcc(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 10);

    // ---- IR nodes: two affine fields and one noisy field ---------------
    for (int64_t i = 0; i < numNodes; ++i) {
        uint64_t node = nodeBase + static_cast<uint64_t>(i * nodeBytes);
        int64_t kind = 0x6000 + 48 * i; // affine in the address
        int64_t uses = 0x9000 + 48 * i;
        if (rng.chancePercent(10))
            uses += static_cast<int64_t>(rng.below(32)) - 16;
        w.memoryImage.emplace_back(node + 0, kind);
        w.memoryImage.emplace_back(node + 8, uses);
        w.memoryImage.emplace_back(node + 16,
                                   static_cast<int64_t>(rng.next() >> 9));
    }

    ProgramBuilder b("gcc");
    Label disp_top = b.newLabel();
    Label wrap_work = b.newLabel();
    Label wrap_node = b.newLabel();
    Label after_wraps = b.newLabel();

    // ------------------------- dispatcher ------------------------------
    // The argument move follows the node advance directly so that the
    // duplicate sits one producer away in the global history.
    b.bind(disp_top);
    uint32_t dispatch_load = b.here();
    b.load(t1, s1, 0);        // next pass address (pseudo-random)
    b.addi(s1, s1, 8);        // worklist advance
    b.jalr(ra, t1);           // rotating indirect call
    b.addi(s2, s2, nodeBytes);// next IR node (strided)
    b.addi(a0, s2, 0);        // argument for the *next* call (dup)
    b.bge(s1, a2, wrap_work);
    b.bge(s2, a3, wrap_node);
    b.bind(after_wraps);
    b.jump(disp_top);

    b.bind(wrap_work);
    b.addi(s1, a1, 0);
    b.jump(after_wraps);
    b.bind(wrap_node);
    b.li(s2, static_cast<int64_t>(nodeBase));
    b.jump(after_wraps);

    // --------------------- generated functions -------------------------
    std::vector<uint64_t> func_pcs;
    for (int64_t f = 0; f < numFuncs; ++f) {
        func_pcs.push_back(isa::indexToPc(b.here()));
        // Template mix: 25% constant folding, 35% field walk, 30%
        // spill-heavy, 10% hashing noise — compilers spend most time
        // in IR traversal and regalloc-style spill code.
        uint64_t roll = rng.below(100);
        unsigned tmpl = roll < 25 ? 0 : roll < 60 ? 1 : roll < 90 ? 2 : 3;
        int64_t goff = static_cast<int64_t>(rng.below(32)) * 8;
        int64_t c1 = 4 + static_cast<int64_t>(rng.below(8)) * 4;
        switch (tmpl) {
          case 0: // A: constant folding over a private global counter
            b.load(t2, gp, goff);
            b.addi(t3, t2, c1);
            b.addi(t4, t3, c1);
            b.store(t4, gp, goff);
            b.li(t5, c1 * 16);
            b.add(v0, t4, t5);
            b.addi(t6, v0, 12);  // folded-constant chain
            b.addi(t7, t6, -4);
            break;
          case 1: // B: field walk over the IR node
            b.load(t2, a0, 0);   // kind: affine in a0
            b.load(t3, a0, 8);   // uses: t3 - t2 ≈ const
            b.sub(t4, t3, t2);   // ≈ const (stride-0)
            b.store(t4, s8, 0);  // spill
            b.load(t5, s8, 0);   // FILL reload
            b.add(v0, t5, t2);
            b.addi(t6, t2, c1);  // kind-derived chain
            b.addi(t7, t3, c1);  // uses-derived chain
            break;
          case 2: // C: spill-heavy
            b.load(t2, a0, 8);
            b.addi(t3, t2, c1);
            b.store(t3, s8, 8);
            b.load(t4, a0, 0);
            b.store(t4, s8, 16);
            b.load(t5, s8, 8);   // FILL of t3
            b.load(t6, s8, 16);  // FILL of t4
            b.add(v0, t5, t6);   // (hard: sum of two moving values)
            b.addi(t7, t5, 8);   // fill-derived chain
            b.addi(t8, t6, 20);
            break;
          default: // D: hashing noise
            b.load(t2, a0, 16);  // noisy field
            b.mul(t3, t2, s4);
            b.srli(t4, t3, 11);
            b.xor_(t5, t4, t3);
            b.addi(v0, t5, 0);
            break;
        }
        b.jr(ra);
    }

    w.program = b.build();

    // ---- worklist: pseudo-random pass sequence --------------------------
    for (int64_t i = 0; i < workWords; ++i) {
        w.memoryImage.emplace_back(
            workBase + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(func_pcs[rng.below(numFuncs)]));
    }

    w.initialRegs[s1] = static_cast<int64_t>(workBase);
    w.initialRegs[s2] = static_cast<int64_t>(nodeBase);
    w.initialRegs[a0] = static_cast<int64_t>(nodeBase);
    w.initialRegs[gp] = static_cast<int64_t>(globalsBase);
    w.initialRegs[s4] = static_cast<int64_t>(0x9e3779b97f4a7c15ull);
    w.initialRegs[a1] = static_cast<int64_t>(workBase);
    w.initialRegs[a2] = static_cast<int64_t>(workEnd);
    w.initialRegs[a3] = static_cast<int64_t>(nodeEnd - nodeBytes);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("dispatch_load", indexToPc(dispatch_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
