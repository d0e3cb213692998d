/**
 * @file
 * The "mcf" kernel: network-simplex-style pointer chasing over
 * sequentially allocated arc and node arrays.
 *
 * The paper (§6, §7, citing Serrano & Wu) attributes mcf's strong
 * global stride locality to dynamic memory allocation: arc->tail and
 * arc->head pointer *values* are affine in the arc's own address, so
 * the difference between a loaded pointer and the value that produced
 * its address is constant — invisible to local predictors once the
 * scan order skips irregularly, but exactly the "variable stride"
 * form N = N-k + a0 that gdiff captures.
 *
 * Two phases alternate:
 *  - arc scan: walks the arc array with a data-dependent skip
 *    (breaking local stride) and chases tail/head node pointers;
 *  - node refresh: a tight sequential sweep where both local and
 *    global predictors do well.
 *
 * The combined working set (arcs 1 MiB + nodes 1 MiB, one per cache
 * line) dwarfs the 64 KiB D-cache, reproducing mcf's memory-bound
 * character.
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

// One arc and one node per 64-byte cache line: the scan touches a
// fresh line almost every iteration, reproducing mcf's memory-bound
// character (the paper quotes a 44% L1 D-cache miss rate).
constexpr int64_t numArcs = 16384;
constexpr int64_t arcBytes = 64;
constexpr int64_t numNodes = 16384;
constexpr int64_t nodeBytes = 64;

constexpr uint64_t arcBase = dataBase;
constexpr uint64_t arcEnd = arcBase + numArcs * arcBytes;
constexpr uint64_t nodeBase = arcEnd;
constexpr uint64_t nodeEnd = nodeBase + numNodes * nodeBytes;

constexpr int64_t cost0 = 1000;
constexpr int64_t potential0 = 5000000;
constexpr int64_t depth0 = 9000000;

} // anonymous namespace

Workload
makeMcf(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 2);

    // ---- arcs -----------------------------------------------------------
    // The scan is a *linked* traversal: arc->next carries the address
    // of the next arc to visit. Skip distances have runs (the simplex
    // scan revisits contiguous basis regions), so the next pointer is
    // partially stride-predictable — and since the whole scan
    // serialises through this frequently-missing load, predicting it
    // is exactly what buys mcf its large value-speculation speedup
    // (paper §7).
    int64_t skip = 1;
    for (int64_t j = 0; j < numArcs; ++j) {
        uint64_t arc = arcBase + static_cast<uint64_t>(j * arcBytes);
        int64_t tail = static_cast<int64_t>(
            nodeBase + static_cast<uint64_t>((j % numNodes) * nodeBytes));
        int64_t head = static_cast<int64_t>(
            nodeBase +
            static_cast<uint64_t>(((j + 1) % numNodes) * nodeBytes));
        int64_t cost = cost0 + 64 * j;
        if (rng.chancePercent(4))
            cost += static_cast<int64_t>(rng.below(512)) - 256;
        if (!rng.chancePercent(85))
            skip = 1 + static_cast<int64_t>(rng.below(3));
        int64_t next = static_cast<int64_t>(
            arcBase +
            static_cast<uint64_t>(((j + skip) % numArcs) * arcBytes));
        w.memoryImage.emplace_back(arc + 0, tail);
        w.memoryImage.emplace_back(arc + 8, head);
        w.memoryImage.emplace_back(arc + 16, cost);
        w.memoryImage.emplace_back(arc + 24, next);
    }

    // ---- nodes ----------------------------------------------------------
    for (int64_t i = 0; i < numNodes; ++i) {
        uint64_t node = nodeBase + static_cast<uint64_t>(i * nodeBytes);
        int64_t pot = potential0 + 64 * i;
        if (rng.chancePercent(4))
            pot += static_cast<int64_t>(rng.below(256)) - 128;
        w.memoryImage.emplace_back(node + 0, pot);
        w.memoryImage.emplace_back(node + 8, depth0 + 64 * i);
    }

    // ---- program ---------------------------------------------------------
    ProgramBuilder b("mcf");
    Label super_top = b.newLabel();
    Label scan_top = b.newLabel();
    Label refresh_top = b.newLabel();
    Label wrap_node = b.newLabel();
    Label refresh_enter = b.newLabel();

    b.bind(super_top);
    b.li(s2, 0);              // arc-phase counter reset

    // ------------------------- arc scan phase ---------------------------
    b.bind(scan_top);
    uint32_t scan_head = b.here();
    b.load(t6, s1, 24);       // A1: next-arc pointer (linked scan;
                              //     the serialising, missing load)
    b.addi(s1, t6, 0);        // A2: follow the link
    uint32_t tail_load = b.here();
    b.load(t1, s1, 0);        // A3: tail ptr; t1 - s1 == nodeBase-arcBase
    b.load(t2, s1, 8);        // A4: head ptr; t2 - t1 == 32
    b.load(t3, t1, 0);        // A5: tail->potential; affine in t1
    b.load(t4, t2, 0);        // A6: head->potential; t4 - t3 == 32
    b.load(t5, s1, 16);       // A7: cost; affine in s1 (rare noise)
    b.sub(t7, t3, t4);        // A8: potential difference (≈ -32)
    b.add(t8, t5, t7);        // A9: reduced cost; t8 - t5 ≈ const
    b.store(t8, s8, 0);       //     spill the reduced cost
    b.slti(t9, t8, cost0 + 32 * numArcs); // A10: basis test (near-const)
    b.load(t0, s8, 0);        // A11: FILL reload of the reduced cost
    b.add(v0, t0, s7);        // A12: chain off the reload
    b.add(v1, v0, s4);        // A13: second chain link
    b.addi(v0, v1, -16);      // A14: third chain link
    b.add(v1, t5, s7);        // A15: chain off the cost load
    // Cross-arc reuse: the previous arc's reduced cost is reloaded
    // at a global distance of one full scan iteration.
    b.load(v0, s8, 8);        // RL1: reduced cost of the previous arc
    b.addi(v1, v0, 8);        // RL2: chain
    b.load(v0, s8, 0);        // RL3: this arc's reduced cost (dup)
    b.store(v0, s8, 8);       //      age it for the next iteration
    b.addi(s2, s2, 1);        // A16: phase counter
    b.blt(s2, s5, scan_top);  //     16 arcs per phase

    // ----------------------- node refresh phase -------------------------
    // Unrolled four ways so few instances of each static instruction
    // are in flight at once.
    b.li(s3, 0);
    b.bind(refresh_top);
    for (int64_t u = 0; u < 4; ++u) {
        int64_t off = nodeBytes * u;
        b.load(t1, s6, off);      // R1: potential (strided)
        b.load(t2, s6, off + 8);  // R2: depth (strided, clean)
        b.add(t3, t1, s4);        // R3: bumped potential
        b.store(t3, s6, off);     //     potentials drift per pass
        b.sub(t4, t2, t1);        // R4: depth - potential (≈ const)
        b.add(t5, t4, t2);        // R5: chain off the difference
    }
    b.addi(s6, s6, nodeBytes * 4); // R6: sequential advance
    b.addi(s3, s3, 4);            // R7: refresh counter
    b.bge(s6, a3, wrap_node); //     rare wrap of the node walker
    b.bind(refresh_enter);
    b.blt(s3, a0, refresh_top); // 16 nodes per phase
    b.jump(super_top);

    // ------------------------- rare wrap blocks -------------------------
    b.bind(wrap_node);
    b.addi(s6, gp, 0);
    b.jump(refresh_enter);

    w.program = b.build();

    // ---- initial registers ----------------------------------------------
    w.initialRegs[s1] = static_cast<int64_t>(arcBase);  // arc walker
    w.initialRegs[s6] = static_cast<int64_t>(nodeBase); // node walker
    w.initialRegs[s4] = 24;   // chain constant
    w.initialRegs[s5] = 24;   // arcs per phase
    w.initialRegs[s7] = 48;   // chain constant
    w.initialRegs[a0] = 8;    // nodes per phase
    w.initialRegs[a1] = static_cast<int64_t>(arcBase);
    w.initialRegs[a2] = static_cast<int64_t>(arcEnd);
    // leave headroom for the 4-way-unrolled refresh block
    w.initialRegs[a3] =
        static_cast<int64_t>(nodeEnd - 3 * nodeBytes);
    w.initialRegs[gp] = static_cast<int64_t>(nodeBase);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("scan_head", indexToPc(scan_head));
    w.markers.emplace_back("tail_load", indexToPc(tail_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
