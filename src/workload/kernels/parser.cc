/**
 * @file
 * The "parser" kernel: the paper's flagship example of global stride
 * locality (paper §2, Figs. 1, 2 and 4).
 *
 * Structure: a circular list of interleaved (node, string) allocations
 *
 *     chunk_i @ dataBase + 80*i:
 *         +0   node.next    -> chunk_{i+1} (circular)
 *         +8   node.string  -> chunk_i + 16
 *         +16  string.len      (noisy, hard to predict; Fig. 1)
 *         +24  string.cap      == len + 64 (constant offset)
 *         +32  string.tok      == tokBase + 80*i (allocation-ordered)
 *
 * Because nodes and strings are allocated in the order they are
 * referenced, the ->next and ->string loads have a constant global
 * stride (paper Fig. 4). The string length is spilled to the frame
 * and reloaded a few instructions later on both control paths — the
 * register spill/fill reload of paper Fig. 2, locally unpredictable
 * (Fig. 1) but exactly predictable from the global value history.
 *
 * Expected per-producer predictability (L = local stride, G = gdiff):
 *
 *     P1  ld next        L+  (stride 80/iter)       G- (distance > 8)
 *     P2  ld string      L+ G+ (t2 - t1 == -64)
 *     P3  advance        L+ G+ (duplicates t1)
 *     P4  ld len         L- G-  (the noisy correlated load)
 *     P5  andi selector  L- G-
 *     P6  addi len+24    G+ only
 *     P7  ld cap         G+ only (cap - len == 64)
 *     P8  ld tok         L+ G+ (tok - next == const: same pitch)
 *     P9  FILL reload    G+ only (diff 0 vs P4; paper Fig. 1 load)
 *     P10 add off fill   G+ only
 *     M1-M3 LCG mutation L- G-  (keeps the stream non-cyclic)
 *     M4  new cap        G+ (diff 64 off M3)
 *     P11 FILL2 reload   G+ only (diff 0 vs P7)
 *     P12-P18 score chain G+ only
 *     RL1-RL3 cross-iteration score reuses: G+ at one/two full
 *             iterations' distance (pipeline-visible correlations)
 */

#include "workload/kernels.hh"

#include "isa/program_builder.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace gdiff {
namespace workload {
namespace kernels {

using namespace isa;
using namespace isa::reg;

namespace {

/// chunk pitch: node (16B) + string (64B) from one allocator
constexpr int64_t chunkBytes = 80;
/// number of chunks; 512 * 80B = 40 KiB, resident in the 64 KiB D$
constexpr int64_t numChunks = 512;
/// base of the synthetic token stream embedded in each string
constexpr int64_t tokBase = 0x2000;

/**
 * Noisy string lengths in the style of paper Fig. 1: mostly multiples
 * of 24 with zeros interspersed, no stride or short periodicity.
 */
int64_t
stringLength(uint64_t i, Xorshift64Star &rng)
{
    (void)i;
    uint64_t h = rng.next();
    if ((h & 7) < 2)
        return 0;
    return 24 * static_cast<int64_t>(20 + ((h >> 8) % 25));
}

} // anonymous namespace

Workload
makeParser(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 1);

    // ---- data segment -------------------------------------------------
    for (int64_t i = 0; i < numChunks; ++i) {
        uint64_t chunk = dataBase + static_cast<uint64_t>(chunkBytes * i);
        uint64_t next =
            dataBase + static_cast<uint64_t>(chunkBytes *
                                             ((i + 1) % numChunks));
        w.memoryImage.emplace_back(chunk + 0,
                                   static_cast<int64_t>(next));
        w.memoryImage.emplace_back(chunk + 8,
                                   static_cast<int64_t>(chunk + 16));
        w.memoryImage.emplace_back(chunk + 16, stringLength(
                                       static_cast<uint64_t>(i), rng));
        // cap == len + 64: a constant offset from the noisy length
        w.memoryImage.emplace_back(
            chunk + 24, w.memoryImage[w.memoryImage.size() - 1].second +
                            64);
        // tok advances with the allocator pitch, so tok - next is
        // constant across the walk
        w.memoryImage.emplace_back(chunk + 32, tokBase + chunkBytes * i);
    }

    // ---- program -------------------------------------------------------
    ProgramBuilder b("parser");
    Label top = b.newLabel();
    Label odd = b.newLabel();
    Label merge = b.newLabel();
    Label wrap = b.newLabel();

    b.bind(top);
    uint32_t loop_head = b.here();
    b.load(t1, s1, 0);    // P1: node->next
    b.load(t2, s1, 8);    // P2: node->string
    b.addi(s1, t1, 0);    // P3: advance the walker
    uint32_t len_load = b.here();
    b.load(t3, t2, 0);    // P4: string->len (noisy; "correlated load")
    b.store(t3, s8, 0);   //     spill len to the frame
    b.andi(t6, t3, 8);    // P5: path selector from a noisy bit
    b.addi(t4, t3, 24);   // P6: derived from the noisy len
    b.load(t7, t2, 8);    // P7: string->cap == len + 64
    b.store(t7, s8, 8);   //     spill cap
    b.load(t8, t2, 16);   // P8: string->tok (allocation-pitch stride)
    b.bne(t6, zero, odd);

    // Both paths rewrite the chunk's length from a never-repeating
    // LCG so the global value stream cannot become a memorisable
    // cycle (real parser inputs do not repeat), and both have the
    // same producer count so the FILL and merge-block distances stay
    // fixed across paths (paper Fig. 2 notes the correlation holds on
    // both control paths).

    // even path --------------------------------------------------------
    uint32_t fill_load = b.here();
    b.load(v0, s8, 0);    // P9: FILL reload of len (paper Fig. 1 load)
    b.add(t5, v0, s4);    // P10: len + 24
    b.mul(s7, s7, s6);    // M1: rolling LCG state (hard)
    b.srli(t9, s7, 11);   // M2: scrambled bits (hard)
    b.andi(t9, t9, 1016); // M3: new length, multiple of 8 (hard)
    b.store(t9, t2, 0);
    b.addi(t0, t9, 64);   // M4: new cap (keeps cap == len + 64)
    b.store(t0, t2, 8);
    b.jump(merge);

    // odd path ----------------------------------------------------------
    b.bind(odd);
    b.load(v0, s8, 0);    // P9': FILL reload, identical distance
    b.add(t5, v0, s4);    // P10': len + 24 (same offset on both paths)
    b.mul(s7, s7, s6);    // M1': LCG state (hard)
    b.srli(t9, s7, 13);   // M2': different scramble (hard)
    b.andi(t9, t9, 1016); // M3': new length (hard)
    b.store(t9, t2, 0);
    b.addi(t0, t9, 64);   // M4': new cap
    b.store(t0, t2, 8);
    // fall through to merge

    b.bind(merge);
    b.load(t9, s8, 8);    // P11: FILL2 reload of cap
    b.add(t0, t9, s4);    // P12: cap + 24
    b.addi(t9, t0, -8);   // P13: scoring chain off the reload
    b.addi(t0, t9, 36);   // P14
    b.add(t9, t5, s5);    // P15: chain off the path result
    b.addi(t0, t9, 4);    // P16
    b.addi(t9, t0, 20);   // P17
    b.addi(t0, t9, -12);  // P18
    // Cross-iteration temporaries: scores from one and two chunks ago
    // are reloaded and compared — global stride locality at distances
    // of one/two full iterations, far beyond any local history and
    // beyond the pipeline's in-flight window.
    b.load(v1, s8, 24);   // RL1: score from two iterations back
    b.addi(t9, v1, 8);    // RL2: chain off it
    b.load(t0, s8, 16);   // RL3: score from one iteration back
    b.store(t0, s8, 24);  //      age it to depth two
    b.store(t5, s8, 16);  //      current score becomes depth one
    b.bne(t1, s0, top);   //     circular walk: taken until wrap

    // wrap block: once per numChunks iterations --------------------------
    b.bind(wrap);
    b.load(t0, s8, 24);   // epoch counter in memory
    b.addi(t0, t0, 1);
    b.store(t0, s8, 24);
    b.jump(top);

    w.program = b.build();

    // ---- initial registers ---------------------------------------------
    w.initialRegs[s0] = static_cast<int64_t>(dataBase); // list head
    w.initialRegs[s1] = static_cast<int64_t>(dataBase); // walker
    w.initialRegs[s4] = 24;                             // path constants
    w.initialRegs[s5] = 40;
    w.initialRegs[s6] = 2862933555777941757ll;          // LCG multiplier
    w.initialRegs[s7] = static_cast<int64_t>(
        seed * 2 + 0x9e3779b97f4a7c15ull);              // odd LCG state
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    w.markers.emplace_back("len_load", indexToPc(len_load));
    w.markers.emplace_back("fill_load", indexToPc(fill_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
