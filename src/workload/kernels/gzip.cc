/**
 * @file
 * The "gzip" kernel: LZ77-style hash-chain matching plus literal/copy
 * phases.
 *
 * The hash probe itself is hard to predict (random-looking input
 * words, hash-table contents), while the copy loops are tight and
 * strided. On a true hash hit the window load returns exactly the
 * current input word (LZ matches match!), which is a global-stride
 * (diff 0) correlation invisible to local predictors.
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

constexpr int64_t inWords = 65536;     // 512 KiB input stream
constexpr uint64_t inBase = dataBase;
constexpr uint64_t inEnd = inBase + inWords * 8;
constexpr uint64_t headBase = inEnd;   // 8K-entry hash-head table
constexpr uint64_t outBase = headBase + 0x10000;
constexpr uint64_t outEnd = outBase + 0x100000;

} // anonymous namespace

Workload
makeGzip(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 4);

    // Input: words drawn from a 4K-symbol dictionary so that low-bit
    // hashing finds true matches often.
    for (int64_t i = 0; i < inWords; ++i) {
        int64_t v = static_cast<int64_t>(rng.below(4096)) * 8 + 0x100000;
        w.memoryImage.emplace_back(inBase + static_cast<uint64_t>(i) * 8,
                                   v);
    }

    ProgramBuilder b("gzip");
    Label top = b.newLabel();
    Label literal = b.newLabel();
    Label merge = b.newLabel();
    Label wrap_in = b.newLabel();
    Label wrap_out = b.newLabel();
    Label after_wrap_in = b.newLabel();
    Label after_wrap_out = b.newLabel();

    b.bind(top);
    uint32_t loop_head = b.here();
    b.load(t1, s1, 0);      // H1: input word (hard)
    b.addi(s1, s1, 8);      // H2: input advance
    b.andi(t2, t1, 0x7ff8); // H3: hash (hard)
    b.add(t3, s3, t2);      // H4: head-table address; t3 - t2 == const
    b.load(t4, t3, 0);      // H5: previous position with this hash
    b.store(s1, t3, 0);     //     update chain head
    b.sub(t5, s1, t4);      // H6: match distance (hard)
    b.slti(t6, t4, 1);      // H7: "no previous occupant" test
    b.bne(t6, zero, literal);

    // match path: probe the window at the recorded position ----------
    b.load(t7, t4, -8);     // M1: window word; equals t1 on true match
    b.sub(t8, t7, t1);      // M2: zero on a true match (stride-0)
    b.add(t9, t4, s4);      // M3: next window address; diff == 8
    b.store(t5, s5, 0);     //     emit (distance) token
    b.addi(s5, s5, 8);      // M4: output advance
    b.addi(t5, t8, 24);     // M5: token chain (diff 24 off M2)
    b.addi(t8, t5, 40);     // M6: second link
    // unrolled 4-word copy: tight, strided, no sawtooth trip counter
    for (int u = 0; u < 4; ++u) {
        b.load(v0, t9, 0);  // C1: copied word (dictionary data)
        b.addi(t9, t9, 8);  // C2: window pointer chain
        b.add(v1, t9, s4);  // C3: address chain (diff 8 off C2)
        b.addi(v1, v1, 32); // C4: second link
        b.store(v0, s5, 0);
        b.addi(s5, s5, 8);  // C5: output pointer
    }
    b.jump(merge);

    // literal path: equalised producer count --------------------------
    b.bind(literal);
    b.store(t1, s5, 0);     //     emit literal
    b.addi(s5, s5, 8);      // L1: output advance
    b.add(t7, t3, s4);      // L2: chain off head address (diff 8)
    b.add(t8, t7, s4);      // L3: second link
    b.add(t9, t8, s4);      // L4
    b.addi(t0, t8, 16);     // L5
    b.add(v0, t0, s4);      // L6
    b.addi(t9, t9, 8);      // L7
    b.addi(t0, t0, -1);     // L8
    // fall through

    b.bind(merge);
    // Cross-iteration reuse: the input words from one and two
    // iterations back (hard to predict locally) are reloaded at
    // global distances of one/two full iterations.
    b.load(v0, s8, 8);      // RL1: input word two iterations back
    b.addi(v1, v0, 16);     // RL2: chain
    b.load(v0, s8, 0);      // RL3: previous input word
    b.store(v0, s8, 8);     //      age to depth two
    b.store(t1, s8, 0);     //      current word to depth one
    b.bge(s1, a2, wrap_in);   // rare input wrap
    b.bind(after_wrap_in);
    b.bge(s5, a3, wrap_out);  // rare output wrap
    b.bind(after_wrap_out);
    b.jump(top);

    b.bind(wrap_in);
    b.addi(s1, a1, 0);
    b.jump(after_wrap_in);

    b.bind(wrap_out);
    b.addi(s5, gp, 0);
    b.jump(after_wrap_out);

    w.program = b.build();

    w.initialRegs[s1] = static_cast<int64_t>(inBase);
    w.initialRegs[s3] = static_cast<int64_t>(headBase);
    w.initialRegs[s5] = static_cast<int64_t>(outBase);
    w.initialRegs[s4] = 8;
    w.initialRegs[a1] = static_cast<int64_t>(inBase);
    w.initialRegs[a2] = static_cast<int64_t>(inEnd);
    w.initialRegs[a3] = static_cast<int64_t>(outEnd);
    w.initialRegs[gp] = static_cast<int64_t>(outBase);
    w.initialRegs[s8] = static_cast<int64_t>(frameBase);

    w.markers.emplace_back("loop_head", indexToPc(loop_head));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
