#include "workload/micro.hh"

#include "isa/program_builder.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/kernels.hh"

namespace gdiff {
namespace workload {

using namespace isa;
using namespace isa::reg;

namespace {

/** Three independent per-PC strides. */
Workload
makeStride(uint64_t)
{
    ProgramBuilder b("micro.stride");
    Label top = b.newLabel();
    b.bind(top);
    b.addi(s1, s1, 8);
    b.addi(s2, s2, -24);
    b.addi(s3, s3, 136);
    b.jump(top);
    Workload w;
    w.program = b.build();
    return w;
}

/** A repeating per-PC stride pattern (+1, +5, -2). */
Workload
makePeriodic(uint64_t)
{
    ProgramBuilder b("micro.periodic");
    Label top = b.newLabel();
    Label no_wrap = b.newLabel();
    b.bind(top);
    b.addi(t0, t0, 1);     // phase counter
    b.slti(t1, t0, 3);
    b.bne(t1, zero, no_wrap);
    b.li(t0, 0);           // wrap the phase
    b.bind(no_wrap);
    // value advances by a phase-dependent stride: +1, +5, -2
    // stride = 1 + 4*(phase==1) - 3*(phase==2), computed branchily so
    // the value stream is periodic-stride and nothing else.
    {
        Label p1 = b.newLabel(), p2 = b.newLabel(), done = b.newLabel();
        b.li(t2, 1);
        b.beq(t0, t2, p1);
        b.li(t3, 2);
        b.beq(t0, t3, p2);
        b.addi(s1, s1, 1); // phase 0
        b.jump(done);
        b.bind(p1);
        b.addi(s1, s1, 5); // phase 1
        b.jump(done);
        b.bind(p2);
        b.addi(s1, s1, -2); // phase 2
        b.bind(done);
    }
    b.jump(top);
    Workload w;
    w.program = b.build();
    return w;
}

/** LCG values spilled and reloaded: diff-0 global stride. */
Workload
makeSpillFill(uint64_t seed)
{
    ProgramBuilder b("micro.spillfill");
    Label top = b.newLabel();
    b.bind(top);
    b.mul(s7, s7, s6);    // hard value source
    b.srli(t1, s7, 16);
    b.store(t1, s8, 0);
    b.load(t2, s8, 0);    // the fill (diff 0, distance 1)
    b.addi(t3, t2, 40);   // derived (constant diff, distance 1)
    b.jump(top);
    Workload w;
    w.program = b.build();
    w.initialRegs[s6] = 2862933555777941757ll;
    w.initialRegs[s7] =
        static_cast<int64_t>(seed * 2 + 0x9e3779b97f4a7c15ull);
    w.initialRegs[s8] = static_cast<int64_t>(kernels::frameBase);
    return w;
}

/** Random-order walks where loaded fields are affine in the address. */
Workload
makeAffine(uint64_t seed)
{
    constexpr int64_t cells = 4096;
    Workload w;
    Xorshift64Star rng(seed + 17);
    for (int64_t i = 0; i < cells; ++i) {
        w.memoryImage.emplace_back(
            kernels::dataBase + static_cast<uint64_t>(i) * 16,
            0x5000 + 16 * i); // field affine in the address
    }
    uint64_t pick_base = kernels::dataBase + cells * 16;
    for (int64_t i = 0; i < 8192; ++i) {
        w.memoryImage.emplace_back(
            pick_base + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(rng.below(cells)) * 16);
    }
    ProgramBuilder b("micro.affine");
    Label top = b.newLabel();
    b.bind(top);
    b.load(t1, s1, 0);    // random pick offset (hard)
    b.addi(s1, s1, 8);
    b.add(t2, s2, t1);    // cell address (diff == cellBase)
    b.load(t3, t2, 0);    // affine field (diff == const)
    b.blt(s1, a2, top);
    b.addi(s1, a1, 0);
    b.jump(top);
    w.program = b.build();
    w.initialRegs[s1] = static_cast<int64_t>(pick_base);
    w.initialRegs[s2] = static_cast<int64_t>(kernels::dataBase);
    w.initialRegs[a1] = static_cast<int64_t>(pick_base);
    w.initialRegs[a2] = static_cast<int64_t>(pick_base + 8192 * 8);
    return w;
}

/** x = w[j] + w[k] + c with both inputs noisy: the paper's Eq. 1
 * with two terms, which no predictor here captures. */
Workload
makePairSum(uint64_t seed)
{
    ProgramBuilder b("micro.pairsum");
    Label top = b.newLabel();
    b.bind(top);
    b.mul(s7, s7, s6);    // noise a
    b.srli(t1, s7, 16);
    b.mul(s7, s7, s6);    // noise b
    b.srli(t2, s7, 16);
    b.add(t3, t1, t2);    // the pair-sum value
    b.addi(t4, t3, 48);   // and a +const chain off it
    b.jump(top);
    Workload w;
    w.program = b.build();
    w.initialRegs[s6] = 2862933555777941757ll;
    w.initialRegs[s7] =
        static_cast<int64_t>(seed * 2 + 0x9e3779b97f4a7c15ull);
    return w;
}

/** Pure LCG noise. */
Workload
makeRandom(uint64_t seed)
{
    ProgramBuilder b("micro.random");
    Label top = b.newLabel();
    b.bind(top);
    b.mul(s7, s7, s6);
    b.srli(t1, s7, 8);
    b.xor_(t2, t1, s7);
    b.jump(top);
    Workload w;
    w.program = b.build();
    w.initialRegs[s6] = 2862933555777941757ll;
    w.initialRegs[s7] =
        static_cast<int64_t>(seed * 2 + 0x9e3779b97f4a7c15ull);
    return w;
}

} // anonymous namespace

const std::vector<std::string> &
microWorkloadNames()
{
    static const std::vector<std::string> names = {
        "stride", "periodic", "spillfill", "affine", "pairsum",
        "random",
    };
    return names;
}

Workload
makeMicroWorkload(const std::string &name, uint64_t seed)
{
    if (name == "stride")
        return makeStride(seed);
    if (name == "periodic")
        return makePeriodic(seed);
    if (name == "spillfill")
        return makeSpillFill(seed);
    if (name == "affine")
        return makeAffine(seed);
    if (name == "pairsum")
        return makePairSum(seed);
    if (name == "random")
        return makeRandom(seed);
    fatal("unknown micro workload '%s'", name.c_str());
}

} // namespace workload
} // namespace gdiff
