/**
 * @file
 * Static instruction representation and register-name constants for
 * the synthetic ISA.
 */

#ifndef GDIFF_ISA_INSTRUCTION_HH
#define GDIFF_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace gdiff {
namespace isa {

/** Architectural register index (32 integer registers). */
using Reg = uint8_t;

/** Number of architectural integer registers. */
inline constexpr unsigned numRegs = 32;

/** MIPS-flavoured register-name constants. */
namespace reg {
inline constexpr Reg zero = 0; ///< hardwired zero
inline constexpr Reg v0 = 2;   ///< result registers
inline constexpr Reg v1 = 3;
inline constexpr Reg a0 = 4;   ///< argument registers
inline constexpr Reg a1 = 5;
inline constexpr Reg a2 = 6;
inline constexpr Reg a3 = 7;
inline constexpr Reg t0 = 8;   ///< caller-saved temporaries
inline constexpr Reg t1 = 9;
inline constexpr Reg t2 = 10;
inline constexpr Reg t3 = 11;
inline constexpr Reg t4 = 12;
inline constexpr Reg t5 = 13;
inline constexpr Reg t6 = 14;
inline constexpr Reg t7 = 15;
inline constexpr Reg s0 = 16;  ///< callee-saved
inline constexpr Reg s1 = 17;
inline constexpr Reg s2 = 18;
inline constexpr Reg s3 = 19;
inline constexpr Reg s4 = 20;
inline constexpr Reg s5 = 21;
inline constexpr Reg s6 = 22;
inline constexpr Reg s7 = 23;
inline constexpr Reg t8 = 24;
inline constexpr Reg t9 = 25;
inline constexpr Reg gp = 28;  ///< global pointer
inline constexpr Reg sp = 29;  ///< stack pointer
inline constexpr Reg s8 = 30;  ///< frame pointer (a.k.a. fp)
inline constexpr Reg ra = 31;  ///< return address
} // namespace reg

/** Base virtual address of the text segment. */
inline constexpr uint64_t textBase = 0x400000;

/** Size in bytes of one encoded instruction. */
inline constexpr uint64_t instBytes = 4;

/**
 * One static instruction.
 *
 * Control-transfer targets are stored as *instruction indices* into
 * the owning Program (resolved from labels by ProgramBuilder); the
 * byte-level PC of instruction i is textBase + i * instBytes.
 */
struct Instruction
{
    // Ordered so that the struct packs into 16 bytes: every trace
    // record carries one.
    Opcode op = Opcode::Nop;
    Reg rd = 0;   ///< destination register (if writesRegister(op))
    Reg rs1 = 0;  ///< first source / base address register
    Reg rs2 = 0;  ///< second source / store data register
    uint32_t target = 0;   ///< control-transfer target (instr index)
    int64_t imm = 0;       ///< immediate / memory offset

    /**
     * @return true if this dynamic instruction produces a value the
     * paper's predictors are asked to predict: an integer ALU op or a
     * load writing a non-zero register. Jal's link value is excluded,
     * matching the paper's "value producing integer operations or
     * load instructions".
     */
    bool
    producesValue() const
    {
        return (isAlu(op) || isLoad(op)) && rd != reg::zero;
    }

    /** @return true if the instruction reads rs1 as an operand. */
    bool
    readsRs1() const
    {
        if (op == Opcode::Li || op == Opcode::Nop ||
            op == Opcode::Halt || op == Opcode::Jump ||
            op == Opcode::Jal) {
            return false;
        }
        return true;
    }

    /** @return true if the instruction reads rs2 as an operand. */
    bool
    readsRs2() const
    {
        if (isCondBranch(op))
            return true;
        if (op == Opcode::Store)
            return true;
        return isAlu(op) && !isAluImmediate(op);
    }

    /** Render the instruction as assembly text (for debugging). */
    std::string toString() const;
};

static_assert(sizeof(Instruction) == 16,
              "Instruction should pack into 16 bytes");

/** @return the byte PC of the instruction at the given index. */
constexpr uint64_t
indexToPc(uint32_t index)
{
    return textBase + static_cast<uint64_t>(index) * instBytes;
}

/** @return the instruction index of a byte PC in the text segment. */
constexpr uint32_t
pcToIndex(uint64_t pc)
{
    return static_cast<uint32_t>((pc - textBase) / instBytes);
}

} // namespace isa
} // namespace gdiff

#endif // GDIFF_ISA_INSTRUCTION_HH
