/**
 * @file
 * The "vpr" kernel: FPGA place-and-route cost sweeps.
 *
 * Phase 1 is a tight nested sweep over a routing grid whose occupancy
 * values are affine in the grid address — friendly to both local and
 * global stride predictors. Phase 2 walks a randomly ordered net
 * worklist where each net's pin pointers are self-relative (pin
 * blocks allocated right after the net header), so pointer loads and
 * capacity fields carry constant global strides that local
 * predictors cannot see.
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

constexpr int64_t gridW = 64;
constexpr int64_t gridH = 64;
constexpr uint64_t gridBase = dataBase;
constexpr uint64_t gridEnd = gridBase + gridW * gridH * 8;

constexpr int64_t numNets = 4096;
constexpr int64_t netBytes = 96; // header (2 words) + 2 pin blocks
constexpr uint64_t netBase = gridEnd;
constexpr uint64_t netEnd = netBase + numNets * netBytes;

constexpr int64_t workWords = 16384;
constexpr uint64_t workBase = netEnd;
constexpr uint64_t workEnd = workBase + workWords * 8;

constexpr int64_t occ0 = 0x50000;

} // anonymous namespace

Workload
makeVpr(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 7);

    // Grid occupancy: affine in the address, light noise.
    for (int64_t i = 0; i < gridW * gridH; ++i) {
        int64_t v = occ0 + 8 * i;
        if (rng.chancePercent(5))
            v += static_cast<int64_t>(rng.below(32)) - 16;
        w.memoryImage.emplace_back(gridBase + static_cast<uint64_t>(i) * 8,
                                   v);
    }

    // Nets: header {srcPin*, dstPin*}, then two pin blocks in-line.
    // Pin pointers are self-relative: src = net + 16, dst = net + 56.
    for (int64_t n = 0; n < numNets; ++n) {
        uint64_t net = netBase + static_cast<uint64_t>(n * netBytes);
        w.memoryImage.emplace_back(net + 0,
                                   static_cast<int64_t>(net + 16));
        w.memoryImage.emplace_back(net + 8,
                                   static_cast<int64_t>(net + 56));
        // pin capacities: affine in the pin address with pitch 1
        int64_t cap_src = static_cast<int64_t>(net + 16) + 0x30000;
        int64_t cap_dst = static_cast<int64_t>(net + 56) + 0x30000;
        if (rng.chancePercent(20))
            cap_src += static_cast<int64_t>(rng.below(128)) - 64;
        if (rng.chancePercent(20))
            cap_dst += static_cast<int64_t>(rng.below(128)) - 64;
        w.memoryImage.emplace_back(net + 16, cap_src);
        w.memoryImage.emplace_back(net + 56, cap_dst);
    }

    // Worklist: random net addresses.
    for (int64_t i = 0; i < workWords; ++i) {
        uint64_t net = netBase + rng.below(numNets) * netBytes;
        w.memoryImage.emplace_back(
            workBase + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(net));
    }

    ProgramBuilder b("vpr");
    Label sweep_top = b.newLabel();
    Label net_top = b.newLabel();
    Label net_phase = b.newLabel();
    Label wrap_grid = b.newLabel();
    Label wrap_work = b.newLabel();
    Label after_wrap_work = b.newLabel();
    Label outer = b.newLabel();

    // -------------------- phase 1: grid sweep ------------------------
    b.bind(outer);
    b.li(s3, 0);               // column counter
    // Unrolled four ways, as a compiler would vectorise a row sweep.
    b.bind(sweep_top);
    uint32_t sweep_head = b.here();
    for (int64_t u = 0; u < 4; ++u) {
        b.load(t1, s1, 8 * u);      // V1: cell occupancy (strided)
        b.load(t2, s1, 8 * u + 8);  // V2: right nbr; t2 - t1 == 8
        b.load(t3, s1, 8 * u + gridW * 8); // V3: down neighbour
        b.sub(t4, t2, t1);          // V4: horizontal gradient (≈8)
        b.add(t5, t4, t3);          // V5: congestion score
        b.store(t5, s8, 0);         //     log the score
    }
    b.addi(s1, s1, 32);        // V6: sweep advance
    b.addi(s3, s3, 4);         // V7: column counter
    b.blt(s3, a0, sweep_top);  //     48 cells per phase
    b.bge(s1, a2, wrap_grid);  //     rare grid wrap
    b.jump(net_phase);
    b.bind(wrap_grid);
    b.addi(s1, a1, 0);

    // -------------------- phase 2: net walk --------------------------
    b.bind(net_phase);
    b.li(s3, 0);
    b.bind(net_top);
    uint32_t net_head = b.here();
    b.load(t1, s5, 0);         // N1: random net address (hard)
    b.addi(s5, s5, 8);         // N2: worklist advance
    b.load(t2, t1, 0);         // N3: src pin ptr; t2 - t1 == 16
    b.load(t3, t1, 8);         // N4: dst pin ptr; t3 - t2 == 40
    b.load(t4, t2, 0);         // N5: src capacity; affine in t2
    b.load(t5, t3, 0);         // N6: dst capacity; t5 - t4 ≈ 40
    b.sub(t6, t5, t4);         // N7: slack (≈ const)
    b.add(v0, t6, s4);         // N8: chain off the slack
    b.addi(s3, s3, 1);         // N9: net counter
    b.blt(s3, a3, net_top);    //     12 nets per phase
    b.bge(s5, gp, wrap_work);  //     rare worklist wrap
    b.bind(after_wrap_work);
    b.jump(outer);

    b.bind(wrap_work);
    b.addi(s5, s6, 0);
    b.jump(after_wrap_work);

    w.program = b.build();

    w.initialRegs[s1] = static_cast<int64_t>(gridBase);
    w.initialRegs[s5] = static_cast<int64_t>(workBase);
    w.initialRegs[s6] = static_cast<int64_t>(workBase);
    w.initialRegs[s4] = 16;
    w.initialRegs[a0] = 48; // grid cells per phase
    w.initialRegs[a3] = 12; // nets per phase
    w.initialRegs[a1] = static_cast<int64_t>(gridBase);
    // leave room for the unrolled down-neighbour loads at the grid end
    w.initialRegs[a2] =
        static_cast<int64_t>(gridEnd - (gridW + 8) * 8);
    w.initialRegs[gp] = static_cast<int64_t>(workEnd);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("sweep_head", indexToPc(sweep_head));
    w.markers.emplace_back("net_head", indexToPc(net_head));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
