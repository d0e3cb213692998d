#include "workload/executor.hh"

#include <limits>

#include "util/logging.hh"

namespace gdiff {
namespace workload {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Wrapping signed addition/subtraction via unsigned arithmetic. */
int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

int64_t
safeDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return -1; // RISC-V convention
    if (a == std::numeric_limits<int64_t>::min() && b == -1)
        return a; // wrap
    return a / b;
}

int64_t
safeRem(int64_t a, int64_t b)
{
    if (b == 0)
        return a; // RISC-V convention
    if (a == std::numeric_limits<int64_t>::min() && b == -1)
        return 0;
    return a % b;
}

} // anonymous namespace

Executor::Executor(isa::Program program)
    : prog(std::move(program))
{
    GDIFF_ASSERT(prog.size() > 0, "cannot execute an empty program");
    // A record's flags are its static instruction's plus the taken
    // bit, so they are decoded once per program, not per record.
    staticFlags.reserve(prog.size());
    TraceRecord r;
    for (const Instruction &inst : prog.text()) {
        r.inst = inst;
        staticFlags.push_back(TraceChunk::deriveFlags(r));
    }
}

inline __attribute__((always_inline)) Executor::Outcome
Executor::execute(const Instruction &inst, uint32_t index)
{
    Outcome out;
    out.nextIndex = index + 1;
    int64_t a = regs[inst.rs1];
    int64_t b = regs[inst.rs2];
    int64_t result = 0;
    bool writes = false;

    switch (inst.op) {
      case Opcode::Add: result = wrapAdd(a, b); writes = true; break;
      case Opcode::Sub: result = wrapSub(a, b); writes = true; break;
      case Opcode::Mul: result = wrapMul(a, b); writes = true; break;
      case Opcode::Div: result = safeDiv(a, b); writes = true; break;
      case Opcode::Rem: result = safeRem(a, b); writes = true; break;
      case Opcode::And: result = a & b; writes = true; break;
      case Opcode::Or: result = a | b; writes = true; break;
      case Opcode::Xor: result = a ^ b; writes = true; break;
      case Opcode::Sll:
        result = static_cast<int64_t>(static_cast<uint64_t>(a)
                                      << (b & 63));
        writes = true;
        break;
      case Opcode::Srl:
        result = static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                      (b & 63));
        writes = true;
        break;
      case Opcode::Sra: result = a >> (b & 63); writes = true; break;
      case Opcode::Slt: result = (a < b) ? 1 : 0; writes = true; break;

      case Opcode::Addi: result = wrapAdd(a, inst.imm); writes = true; break;
      case Opcode::Andi: result = a & inst.imm; writes = true; break;
      case Opcode::Ori: result = a | inst.imm; writes = true; break;
      case Opcode::Xori: result = a ^ inst.imm; writes = true; break;
      case Opcode::Slli:
        result = static_cast<int64_t>(static_cast<uint64_t>(a)
                                      << (inst.imm & 63));
        writes = true;
        break;
      case Opcode::Srli:
        result = static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                      (inst.imm & 63));
        writes = true;
        break;
      case Opcode::Srai:
        result = a >> (inst.imm & 63);
        writes = true;
        break;
      case Opcode::Slti: result = (a < inst.imm) ? 1 : 0; writes = true; break;
      case Opcode::Li: result = inst.imm; writes = true; break;

      case Opcode::Load:
        out.effAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
        result = mem.read64(out.effAddr);
        writes = true;
        break;
      case Opcode::Store:
        out.effAddr = static_cast<uint64_t>(wrapAdd(a, inst.imm));
        mem.write64(out.effAddr, b);
        break;

      case Opcode::Beq:
        out.taken = (a == b);
        if (out.taken)
            out.nextIndex = inst.target;
        break;
      case Opcode::Bne:
        out.taken = (a != b);
        if (out.taken)
            out.nextIndex = inst.target;
        break;
      case Opcode::Blt:
        out.taken = (a < b);
        if (out.taken)
            out.nextIndex = inst.target;
        break;
      case Opcode::Bge:
        out.taken = (a >= b);
        if (out.taken)
            out.nextIndex = inst.target;
        break;

      case Opcode::Jump:
        out.taken = true;
        out.nextIndex = inst.target;
        break;
      case Opcode::Jal:
        out.taken = true;
        result = static_cast<int64_t>(isa::indexToPc(index + 1));
        writes = true;
        out.nextIndex = inst.target;
        break;
      case Opcode::Jr:
        out.taken = true;
        out.nextIndex = isa::pcToIndex(static_cast<uint64_t>(a));
        break;
      case Opcode::Jalr:
        out.taken = true;
        result = static_cast<int64_t>(isa::indexToPc(index + 1));
        writes = true;
        out.nextIndex = isa::pcToIndex(static_cast<uint64_t>(a));
        break;

      case Opcode::Nop:
        break;
      case Opcode::Halt:
        // the callers stop before Halt
        break;
    }

    if (writes)
        setReg(inst.rd, result);
    // Report the architecturally produced value (reads of r0 stay 0).
    out.value = (writes && inst.rd != isa::reg::zero) ? result : 0;
    return out;
}

bool
Executor::next(TraceRecord &out)
{
    if (isHalted)
        return false;
    GDIFF_ASSERT(pcIndex < prog.size(),
                 "pc index %u fell off the end of program '%s'",
                 pcIndex, prog.name().c_str());

    const Instruction &inst = prog.at(pcIndex);
    if (inst.op == Opcode::Halt) {
        isHalted = true;
        return false;
    }

    const Outcome o = execute(inst, pcIndex);
    out.inst = inst;
    out.seq = seq;
    out.pc = isa::indexToPc(pcIndex);
    out.nextPc = isa::indexToPc(o.nextIndex);
    out.value = o.value;
    out.effAddr = o.effAddr;
    out.taken = o.taken;
    pcIndex = o.nextIndex;
    ++seq;
    return true;
}

bool
Executor::fill(TraceChunk &chunk)
{
    chunk.clear();
    if (isHalted)
        return false;
    // Locals, not members: the column stores would otherwise force
    // reloads of anything they might alias.
    const Instruction *text = prog.text().data();
    const uint8_t *flagsOf = staticFlags.data();
    const uint32_t textSize = static_cast<uint32_t>(prog.size());
    uint32_t index = pcIndex;
    uint64_t s = seq;
    uint32_t n = 0;
    for (; n < TraceChunk::capacity; ++n) {
        GDIFF_ASSERT(index < textSize,
                     "pc index %u fell off the end of program '%s'",
                     index, prog.name().c_str());
        const Instruction &inst = text[index];
        if (inst.op == Opcode::Halt) {
            isHalted = true;
            break;
        }
        const Outcome o = execute(inst, index);
        chunk.inst[n] = inst;
        chunk.seq[n] = s++;
        chunk.pc[n] = isa::indexToPc(index);
        chunk.nextPc[n] = isa::indexToPc(o.nextIndex);
        chunk.value[n] = o.value;
        chunk.effAddr[n] = o.effAddr;
        chunk.flags[n] = static_cast<uint8_t>(
            flagsOf[index] | (o.taken ? TraceChunk::flagTaken : 0));
        index = o.nextIndex;
    }
    pcIndex = index;
    seq = s;
    chunk.size = n;
    return n > 0;
}

} // namespace workload
} // namespace gdiff
