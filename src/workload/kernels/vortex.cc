/**
 * @file
 * The "vortex" kernel: an object-database-style call-heavy workload.
 *
 * A main loop walks an object table and calls a two-deep validation
 * chain. Live values are spilled across the calls and reloaded in the
 * epilogues at fixed producer distances (the function bodies have
 * fixed producer counts), giving the spill/fill global-stride
 * correlations the paper attributes to call-heavy codes. Object
 * fields are affine in the object address; flags are noisy. The
 * short, fixed define-use distances give vortex the bounded
 * value-delay profile the paper's Fig. 12 plots.
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

constexpr int64_t numObjects = 8192;
constexpr int64_t objBytes = 64;
constexpr uint64_t objBase = dataBase;
constexpr uint64_t objEnd = objBase + numObjects * objBytes;

constexpr int64_t size0 = 0x80000;
constexpr int64_t ref0 = 0x20000;

} // anonymous namespace

Workload
makeVortex(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 8);

    for (int64_t i = 0; i < numObjects; ++i) {
        uint64_t obj = objBase + static_cast<uint64_t>(i * objBytes);
        int64_t size = size0 + 64 * i;
        if (rng.chancePercent(5))
            size += static_cast<int64_t>(rng.below(64)) - 32;
        w.memoryImage.emplace_back(obj + 8, size);
        w.memoryImage.emplace_back(obj + 16,
                                   static_cast<int64_t>(rng.below(256)));
        w.memoryImage.emplace_back(obj + 24, ref0 + 64 * i);
        // cross-reference to a random peer object (databases chase
        // foreign keys in an order unrelated to allocation)
        uint64_t peer =
            objBase + rng.below(numObjects) * static_cast<uint64_t>(
                                                  objBytes);
        w.memoryImage.emplace_back(obj + 32,
                                   static_cast<int64_t>(peer));
        // two immutable index fields, affine in the object address
        w.memoryImage.emplace_back(obj + 40, 0x40000 + 64 * i);
        w.memoryImage.emplace_back(obj + 48, 0xa0000 + 64 * i);
    }

    ProgramBuilder b("vortex");
    Label main_top = b.newLabel();
    Label fval = b.newLabel();
    Label ffield = b.newLabel();
    Label skip_mut = b.newLabel();

    // ------------------------- main loop ------------------------------
    b.bind(main_top);
    uint32_t loop_head = b.here();
    b.addi(s2, s2, objBytes); // O1: object pointer advance
    b.addi(a0, s2, 0);        // O2: argument move (duplicates s2)
    b.jal(ra, fval);          //     call the validator
    b.add(t0, v0, s4);        // O3: chain off the return value
    b.store(t0, s7, 0);       //     log the result
    b.addi(s7, s7, 8);        // O4: log pointer advance
    b.addi(s3, s3, 1);        // O5: object counter
    // Every other iteration, re-link one object to a fresh pseudo-
    // random peer so the cross-reference stream never settles into a
    // memorisable cycle. The block sits at the loop tail so its
    // conditional execution cannot disturb the producer distances of
    // the call-body correlations above.
    b.andi(t4, s3, 1);        // OM0: alternating gate
    b.bne(t4, zero, skip_mut);
    b.mul(s6, s6, s1);        // OM1: rolling LCG state (hard)
    b.srli(t9, s6, 17);       // OM2: scrambled (hard)
    b.andi(t9, t9, 0x7ffc0);  // OM3: bounded peer offset (hard)
    b.add(t9, t9, a1);        // OM4: peer address (diff == objBase)
    b.store(t9, s2, 32);
    b.bind(skip_mut);
    b.blt(s2, a2, main_top);  //     loop branch: taken until wrap
    b.addi(s2, a1, 0);        //     rare: rewind the object walker
    b.addi(s7, gp, 0);        //     and the result log
    b.jump(main_top);

    // --------------------- fval(a0 = obj) ------------------------------
    // Fixed-length body: every producer distance is stable. The peer
    // block comes first so the size/refcnt/fill correlations further
    // down all stay within an 8-entry global window of their sources.
    b.bind(fval);
    b.store(ra, s8, 0);       //     save the return address
    b.load(t2, a0, 8);        // F1: obj->size; affine in a0 (1 back)
    b.store(t2, s8, 8);       //     spill the live size
    b.load(t3, a0, 16);       // F2: obj->flags (noisy)
    b.andi(t4, t3, 7);        // F3: flag field extract (noisy)
    b.addi(t5, t2, 48);       // F4: derived from size
    b.jal(ra, ffield);        //     nested call
    b.load(t6, s8, 8);        // F5: FILL of the size (diff -48 vs F4)
    b.addi(t7, t6, 24);       // F6: derived from the fill
    b.addi(t6, t7, 24);       // F7: validation score
    // foreign-key chase: the peer pointer is random, but every peer
    // field is affine in it — global-stride-only locality
    b.load(t8, a0, 32);       // FP1: peer pointer (random order)
    uint32_t peer_size_load = b.here();
    b.load(t9, t8, 8);        // FP2: peer size; affine in the pointer
    b.sub(t0, t9, t8);        // FP3: ≈ size0 - objBase (stride-0)
    b.addi(v1, t0, 16);       // FP4: chain off the peer slack
    b.load(t6, t8, 40);       // FP5: peer index; affine in FP1
    b.addi(t7, t6, 12);       // FP6: chain
    b.load(t6, t8, 48);       // FP7: second peer index; diff vs FP5
    b.addi(t7, t6, 28);       // FP8: chain
    // Cross-call reuse: peer indices from one and two calls back are
    // reloaded — random values (locally unpredictable) at global
    // distances of one/two full call bodies.
    b.load(v1, s8, 32);       // RL1: peer index from two calls back
    b.addi(t0, v1, 20);       // RL2: chain
    b.load(t3, s8, 24);       // RL3: peer index from one call back
    b.store(t3, s8, 32);      //      age to depth two
    b.store(t6, s8, 24);      //      current peer index to depth one
    b.addi(t6, t7, -4);       // FP9: chain
    b.addi(t7, t6, 36);       // FP10: chain
    b.addi(v0, t7, 4);        // F8: return value (chain tail)
    b.load(ra, s8, 0);        //     restore the return address
    b.jr(ra);

    // --------------------- ffield(a0 = obj) ----------------------------
    b.bind(ffield);
    b.load(t8, a0, 24);       // G1: obj->refcnt; diff vs F1 constant
    b.addi(t9, t8, 1);        // G2: bump
    b.store(t9, a0, 24);      //     write back (drifts +1 per pass)
    b.addi(t0, t9, 16);       // G3: chain off the bumped count
    b.add(v0, t8, s5);        // G4: result logged, chains off refcnt
    b.store(v0, gp, -8);      //     (memory log, not a producer)
    b.jr(ra);

    w.program = b.build();

    w.initialRegs[s2] = static_cast<int64_t>(objBase);
    w.initialRegs[s4] = 16;
    w.initialRegs[s5] = 32;
    w.initialRegs[s1] = 2862933555777941757ll; // LCG multiplier
    w.initialRegs[s6] = static_cast<int64_t>(
        seed * 2 + 0x9e3779b97f4a7c15ull);     // odd LCG state
    w.initialRegs[s7] = static_cast<int64_t>(objEnd); // result log
    w.initialRegs[gp] = static_cast<int64_t>(objEnd);
    w.initialRegs[a1] = static_cast<int64_t>(objBase);
    w.initialRegs[a2] = static_cast<int64_t>(objEnd - objBytes);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    w.markers.emplace_back("peer_size_load", indexToPc(peer_size_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
