/**
 * @file
 * Functional simulator for the synthetic ISA.
 *
 * The executor runs a Program against a Memory image and produces the
 * dynamic instruction trace that every downstream consumer (profile
 * drivers, the OOO timing pipeline) replays. Semantics:
 *
 *  - 32 64-bit integer registers; register 0 is hardwired to zero.
 *  - Div/Rem follow RISC-V conventions (x/0 == -1, x%0 == x;
 *    INT64_MIN / -1 wraps) so that no input can trap.
 *  - Shift amounts are taken modulo 64.
 *  - Memory accesses are 64-bit words.
 */

#ifndef GDIFF_WORKLOAD_EXECUTOR_HH
#define GDIFF_WORKLOAD_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "workload/memory.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace workload {

/** Functional execution engine; also a TraceSource. */
class Executor : public TraceSource
{
  public:
    /** @param program the program to execute (copied in). */
    explicit Executor(isa::Program program);

    /**
     * Execute one instruction and emit its trace record.
     * @return false once the program has executed Halt (no record is
     *         produced for or after Halt).
     */
    bool next(TraceRecord &out) override;

    /**
     * Execute up to TraceChunk::capacity instructions and write them
     * straight into the chunk's columns, with no TraceRecord between.
     * Equivalent to pumping next(): both run the same instruction
     * body, and the chunked and per-record streams are record-identical
     * (pinned by tests/test_trace_cache.cc).
     */
    bool fill(TraceChunk &chunk) override;

    /** @return true once Halt has executed. */
    bool halted() const { return isHalted; }

    /** @return dynamic instructions retired so far. */
    uint64_t instructionsRetired() const { return seq; }

    /** Read an architectural register. */
    int64_t
    reg(isa::Reg r) const
    {
        return regs[r];
    }

    /** Write an architectural register (writes to r0 are ignored). */
    void
    setReg(isa::Reg r, int64_t v)
    {
        if (r != isa::reg::zero)
            regs[r] = v;
    }

    /** @return mutable access to data memory (for image setup). */
    Memory &memory() { return mem; }

    /** @return read-only access to data memory. */
    const Memory &memory() const { return mem; }

    /** @return the program being executed. */
    const isa::Program &program() const { return prog; }

  private:
    /** What executing one instruction adds to its static part. */
    struct Outcome
    {
        int64_t value = 0;    ///< architecturally produced value
        uint64_t effAddr = 0; ///< effective address (loads/stores)
        bool taken = false;   ///< control-flow outcome
        uint32_t nextIndex = 0; ///< instruction index executed next
    };

    /**
     * The one instruction body next() and fill() share: execute
     * @p inst at instruction index @p index against the registers and
     * memory. Never called for Halt.
     */
    Outcome execute(const isa::Instruction &inst, uint32_t index);

    isa::Program prog;
    /// TraceChunk flags of each static instruction, without flagTaken
    std::vector<uint8_t> staticFlags;
    Memory mem;
    std::array<int64_t, isa::numRegs> regs{};
    uint32_t pcIndex = 0;
    uint64_t seq = 0;
    bool isHalted = false;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_EXECUTOR_HH
