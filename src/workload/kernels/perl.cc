/**
 * @file
 * The "perl" kernel: a bytecode interpreter with a hot inlined trace.
 *
 * Two regimes alternate, as in a real interpreter with a hot path:
 *
 *  - a *hot trace* of inlined stack-machine ops. Operand-stack pops
 *    reload values pushed a few producers earlier (diff-0 global
 *    stride at fixed distances); the interpreter globals advance with
 *    constant strides (local food).
 *  - an *interpreted segment*: an indirect-dispatch loop over a fixed
 *    24-entry bytecode program. The handler-address load is periodic
 *    — classic context (FCM/DFCM) locality, invisible to stride
 *    predictors — and the rotating indirect-call targets stress the
 *    pipeline's indirect predictor the way perl stresses a BTB.
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

constexpr uint64_t globalsBase = dataBase;         // interpreter globals
constexpr uint64_t stackBase = dataBase + 0x1000;  // operand stack
constexpr uint64_t codeBase = dataBase + 0x2000;   // bytecode program
constexpr int64_t bytecodeLen = 12;
constexpr int64_t hotReps = 5; // hot-trace repetitions per outer loop

} // anonymous namespace

Workload
makePerl(uint64_t seed)
{
    Workload w;
    Xorshift64Star rng(seed * 0x9e3779b97f4a7c15ull + 9);

    ProgramBuilder b("perl");
    Label outer = b.newLabel();
    Label disp_top = b.newLabel();

    // ------------------------- hot trace -------------------------------
    b.bind(outer);
    uint32_t hot_head = b.here();
    for (int rep = 0; rep < hotReps; ++rep) {
        // push a hard-to-predict scalar onto the operand stack
        b.load(t1, gp, 0);    // g0: non-linear generational value
        b.store(t1, s0, 0);
        b.addi(s0, s0, 8);    // push (stack addresses repeat per rep)
        // six ADDI bytecodes evaluated on the stack top: each pop
        // reloads the value the previous op just produced (diff-0
        // global stride), each op adds a constant (global stride)
        for (int op = 0; op < 6; ++op) {
            b.load(t3, s0, -8);           // pop: diff-0 reload
            b.addi(t4, t3, 8 + 4 * op);   // op result: constant diff
            b.store(t4, s0, -8);          // replace top
        }
        // STOREG: pop the result into a global
        b.load(t8, s0, -8);   // final pop (diff-0)
        b.store(t8, gp, 16);
        b.addi(s0, s0, -8);
        // touch the interpreter's line counter (strided local food)
        b.load(t2, gp, 48);
        b.addi(t3, t2, 8);
        b.store(t3, gp, 48);
    }
    // evolve g0 non-linearly: operand values never repeat
    b.load(t1, gp, 0);
    b.mul(t2, t1, s4);
    b.srli(t3, t2, 9);
    b.store(t3, gp, 0);

    // --------------------- interpreted segment -------------------------
    b.li(s1, static_cast<int64_t>(codeBase)); // bytecode pc
    b.li(s3, 0);                              // dispatch counter
    b.bind(disp_top);
    uint32_t dispatch_load = b.here();
    b.load(t1, s1, 0);     // handler address: periodic (context food)
    b.addi(s1, s1, 8);
    b.jalr(ra, t1);        // rotating indirect call
    b.addi(s3, s3, 1);
    b.blt(s3, a0, disp_top);
    b.jump(outer);

    // --------------------------- handlers ------------------------------
    uint32_t h_inc = b.here(); // increment a global
    b.load(t2, gp, 24);
    b.addi(t3, t2, 8);
    b.store(t3, gp, 24);
    b.jr(ra);

    uint32_t h_pushc = b.here(); // push a constant
    b.li(t4, 77);
    b.store(t4, s0, 0);
    b.addi(s0, s0, 8);
    b.jr(ra);

    uint32_t h_popadd = b.here(); // pop, add a const, store to global
    b.load(t5, s0, -8);
    b.addi(s0, s0, -8);
    b.add(t6, t5, s5);
    b.store(t6, gp, 32);
    b.jr(ra);

    uint32_t h_noise = b.here(); // generational noise
    b.load(t7, gp, 40);
    b.mul(t8, t7, s4);
    b.srli(t9, t8, 9);
    b.store(t9, gp, 40);
    b.jr(ra);

    w.program = b.build();

    const uint64_t handler_pcs[4] = {
        isa::indexToPc(h_inc), isa::indexToPc(h_pushc),
        isa::indexToPc(h_popadd), isa::indexToPc(h_noise)};

    // Bytecode program: a fixed pseudorandom arrangement of the four
    // handlers. pushc/popadd are emitted as an adjacent pair so the
    // operand stack is balanced across every segment.
    for (int64_t i = 0; i < bytecodeLen; ++i) {
        uint64_t pick = rng.below(3); // inc, push+pop pair, noise
        uint64_t pc0;
        if (pick == 0) {
            pc0 = handler_pcs[0];
        } else if (pick == 1 && i + 1 < bytecodeLen) {
            w.memoryImage.emplace_back(
                codeBase + static_cast<uint64_t>(i) * 8,
                static_cast<int64_t>(handler_pcs[1]));
            ++i;
            pc0 = handler_pcs[2];
        } else if (pick == 1) {
            pc0 = handler_pcs[0]; // no room for the pair at the end
        } else {
            pc0 = handler_pcs[3];
        }
        w.memoryImage.emplace_back(
            codeBase + static_cast<uint64_t>(i) * 8,
            static_cast<int64_t>(pc0));
    }

    // Globals.
    w.memoryImage.emplace_back(globalsBase + 0, 1000);
    w.memoryImage.emplace_back(globalsBase + 8, 2000);
    w.memoryImage.emplace_back(globalsBase + 24, 0);
    w.memoryImage.emplace_back(globalsBase + 40,
                               static_cast<int64_t>(rng.next() >> 8));

    w.initialRegs[gp] = static_cast<int64_t>(globalsBase);
    w.initialRegs[s0] = static_cast<int64_t>(stackBase);
    w.initialRegs[s4] = static_cast<int64_t>(0x9e3779b97f4a7c15ull);
    w.initialRegs[s5] = 48;
    w.initialRegs[a0] = bytecodeLen;

    w.markers.emplace_back("hot_head", indexToPc(hot_head));
    w.markers.emplace_back("dispatch_load", indexToPc(dispatch_load));
    return w;
}

} // namespace kernels
} // namespace workload
} // namespace gdiff
