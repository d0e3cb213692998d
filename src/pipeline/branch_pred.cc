#include "pipeline/branch_pred.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace pipeline {

using isa::Opcode;

BranchPredictor::BranchPredictor(const PipelineConfig &config)
    : historyBits(config.gshareHistoryBits),
      counters(size_t(1) << config.gshareHistoryBits, 1),
      btb(config.btbEntries), ras(config.rasDepth)
{
    GDIFF_ASSERT(isPowerOfTwo(config.btbEntries),
                 "BTB entries must be a power of two");
    GDIFF_ASSERT(config.rasDepth >= 1, "RAS depth must be at least 1");
}

void
BranchPredictor::rasPush(uint64_t addr)
{
    ras[rasTop] = addr;
    if (++rasTop == ras.size())
        rasTop = 0;
    if (rasCount < ras.size())
        ++rasCount;
}

bool
BranchPredictor::predictAndTrain(const workload::TraceRecord &r)
{
    const Opcode op = r.inst.op;
    bool correct = true;

    if (isa::isCondBranch(op)) {
        size_t idx = static_cast<size_t>(
            (mix64(r.pc >> 2) ^ history) & mask(historyBits));
        uint8_t &ctr = counters[idx];
        bool predict_taken = ctr >= 2;
        correct = (predict_taken == r.taken);
        if (r.taken) {
            if (ctr < 3)
                ++ctr;
        } else {
            if (ctr > 0)
                --ctr;
        }
        history = ((history << 1) | (r.taken ? 1 : 0)) &
                  mask(historyBits);
        dirAcc.record(correct);
    } else if (op == Opcode::Jump) {
        correct = true; // direct, target known at decode
    } else if (op == Opcode::Jal) {
        correct = true;
        rasPush(r.pc + isa::instBytes);
    } else if (op == Opcode::Jalr) {
        // Indirect call: last-target BTB.
        size_t idx = static_cast<size_t>(mix64(r.pc >> 2) &
                                         (btb.size() - 1));
        BtbEntry &e = btb[idx];
        correct = e.valid && e.tag == r.pc && e.target == r.nextPc;
        e.valid = true;
        e.tag = r.pc;
        e.target = r.nextPc;
        indAcc.record(correct);
        rasPush(r.pc + isa::instBytes);
    } else if (op == Opcode::Jr) {
        // Treat as a return: pop the RAS.
        if (rasCount > 0) {
            rasTop = (rasTop == 0 ? unsigned(ras.size()) : rasTop) - 1;
            --rasCount;
            correct = (ras[rasTop] == r.nextPc);
        } else {
            correct = false;
        }
        indAcc.record(correct);
    }

    allAcc.record(correct);
    return correct;
}

} // namespace pipeline
} // namespace gdiff
