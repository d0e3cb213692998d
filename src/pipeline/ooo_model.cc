#include "pipeline/ooo_model.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <deque>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "obs/obs.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace pipeline {

using isa::Opcode;

namespace {

/// end of a wheel bucket's FIFO list
constexpr uint32_t noWriteback = ~uint32_t(0);

/**
 * @return a bound on complete(s) - dispatch(s) for every record s.
 *
 * Let L be the largest execution latency the config allows and W the
 * issue width. A record issues at the first cycle with a free slot at
 * or after its operands are ready, and its operands are ready by
 * dispatch(s) + 1 or one cycle after some producer p completes.
 * Follow from s the producer that sets that readiness, as long as the
 * producer completes after dispatch(s): each such producer has not
 * retired when s dispatches, so the chain holds at most robSize - 1
 * distinct records besides s. Its oldest record is ready by
 * dispatch(s) + 1, and each younger link adds at most its latency
 * plus one cycle of wakeup, so dependence costs at most
 * robSize * (L + 1) cycles. The links wait for issue slots over disjoint runs of cycles
 * after dispatch(s), and every slot in such a cycle is held by a
 * record still in flight when s dispatches: at most robSize - 1 of
 * them, filling at most (robSize - 1) / W whole cycles. Hence
 *
 *     complete(s) - dispatch(s) <= robSize * (L + 1)
 *                                  + (robSize - 1) / W.
 */
uint64_t
writebackHorizon(const PipelineConfig &c)
{
    const uint64_t loadLatency = uint64_t(c.agenLatency) +
                                 c.dcache.hitLatency +
                                 c.dcache.missPenalty;
    const uint64_t maxLatency =
        std::max({uint64_t(c.aluLatency), uint64_t(c.agenLatency),
                  uint64_t(c.mulLatency), uint64_t(c.divLatency),
                  loadLatency});
    return uint64_t(c.robSize) * (maxLatency + 1) +
           (c.robSize - 1) / c.issueWidth;
}

/** Count a checker violation and keep its report (or panic). */
void
recordViolation(const CheckConfig &chk, PipelineStats &stats,
                const std::string &msg)
{
    ++stats.checkViolations;
    if (stats.checkReports.size() < chk.maxReports)
        stats.checkReports.push_back(msg);
    if (chk.failFast)
        panic("pipeline invariant violated: %s", msg.c_str());
}

} // anonymous namespace

StoreReadyTable::StoreReadyTable(unsigned window)
    : recent(size_t(1) << ceilLog2(std::max(1u, window)))
{
    // Eight slots per remembered store: between rebuilds the table
    // holds at most recent.size() + capacity/2 addresses, so it never
    // fills past 5/8 (probes always end) and holds about 3/8 on
    // average.
    const unsigned bits = ceilLog2(recent.size()) + 3;
    slots.resize(size_t(1) << bits);
    slotMask = slots.size() - 1;
    hashShift = 64 - bits;
}

bool
StoreReadyTable::upsert(uint64_t addr, uint64_t cycle)
{
    for (size_t i = homeSlot(addr);; i = (i + 1) & slotMask) {
        Slot &e = slots[i];
        if (e.epoch != epoch) {
            e.addr = addr;
            e.cycle = cycle;
            e.epoch = epoch;
            return true;
        }
        if (e.addr == addr) {
            e.cycle = cycle;
            return false;
        }
    }
}

void
StoreReadyTable::insert(uint64_t addr, uint64_t cycle)
{
    recent[stores++ & (recent.size() - 1)] = {addr, cycle};
    if (upsert(addr, cycle) && ++freshSinceRebuild == slots.size() / 2)
        rebuild();
}

void
StoreReadyTable::rebuild()
{
    if (++epoch == 0) {
        // Epoch wrapped: stale slots could match again, so clear them.
        for (Slot &e : slots)
            e.epoch = 0;
        epoch = 1;
    }
    freshSinceRebuild = 0;
    const uint64_t n = std::min<uint64_t>(stores, recent.size());
    for (uint64_t k = stores - n; k < stores; ++k) {
        const auto &[addr, cycle] = recent[k & (recent.size() - 1)];
        upsert(addr, cycle);
    }
}

OooPipeline::OooPipeline(const PipelineConfig &config, VpScheme &s)
    : cfg(config), scheme(s), bpred(config), icache(config.icache),
      dcache(config.dcache)
{
    GDIFF_ASSERT(cfg.robSize >= 1 && cfg.issueWidth >= 1,
                 "robSize %u and issueWidth %u must be at least 1",
                 cfg.robSize, cfg.issueWidth);
    pending.resize(size_t(1) << ceilLog2(cfg.robSize));
    horizon = writebackHorizon(cfg);
    // Live completions, and the issue cycles before them, span at
    // most horizon + 1 cycles; whole bitmap words keep the drain's
    // word stepping aligned.
    const size_t span = size_t(1) << std::max(6u, ceilLog2(horizon + 1));
    wheel.resize(span);
    wheelBusy.resize(span / 64, 0);
    issueCount.resize(span, 0);
    issueTag.resize(span, ~uint64_t(0));
}

OooPipeline::PendingWriteback &
OooPipeline::queueWriteback(uint64_t completeCycle)
{
    GDIFF_ASSERT(completeCycle >= wheelCursor &&
                     completeCycle - wheelCursor < wheel.size(),
                 "writeback at cycle %" PRIu64 " outside the wheel's "
                 "%zu cycles from cycle %" PRIu64,
                 completeCycle, wheel.size(), wheelCursor);
    const uint32_t slot =
        static_cast<uint32_t>(arrivals++ & (pending.size() - 1));
    PendingWriteback &wb = pending[slot];
    wb.completeCycle = completeCycle;
    wb.next = noWriteback;
    const size_t b = completeCycle & (wheel.size() - 1);
    uint64_t &busy = wheelBusy[b >> 6];
    const uint64_t bit = uint64_t(1) << (b & 63);
    if (busy & bit) {
        pending[wheel[b].tail].next = slot;
    } else {
        busy |= bit;
        wheel[b].head = slot;
    }
    wheel[b].tail = slot;
    return wb;
}

void
OooPipeline::drainWritebacksBefore(uint64_t cycle, PipelineStats &stats)
{
    GDIFF_ASSERT(cycle >= wheelCursor,
                 "drain to cycle %" PRIu64 " behind the cursor %" PRIu64,
                 cycle, wheelCursor);
    // Every live writeback lies in [wheelCursor, wheelCursor + size),
    // so the walk never needs to go further than one turn.
    const uint64_t size = wheel.size();
    const uint64_t end =
        cycle - wheelCursor < size ? cycle : wheelCursor + size;
    uint64_t c = wheelCursor;
    while (c < end) {
        const size_t b = c & (size - 1);
        const uint64_t word = wheelBusy[b >> 6] >> (b & 63);
        if (word == 0) {
            c += 64 - (b & 63);
            continue;
        }
        c += std::countr_zero(word);
        if (c >= end)
            break;
        const size_t hit = c & (size - 1);
        wheelBusy[hit >> 6] &= ~(uint64_t(1) << (hit & 63));
        for (uint32_t i = wheel[hit].head; i != noWriteback;
             i = pending[i].next) {
            const PendingWriteback &wb = pending[i];
            if (cfg.check.enabled) {
                // Completion order: (completeCycle, seq) rises across
                // drains, and nothing applies at or after the cycle.
                if (wb.completeCycle >= cycle ||
                    (chkApplied &&
                     std::tie(wb.completeCycle, wb.seq) <=
                         std::tie(chkAppliedCycle, chkAppliedSeq))) {
                    recordViolation(
                        cfg.check, stats,
                        formatString(
                            "writeback of seq %" PRIu64
                            " (cycle %" PRIu64 ") applied out of order:"
                            " after seq %" PRIu64 " (cycle %" PRIu64
                            "), in a drain before cycle %" PRIu64,
                            wb.seq, wb.completeCycle, chkAppliedSeq,
                            chkAppliedCycle, cycle));
                }
                chkApplied = true;
                chkAppliedCycle = wb.completeCycle;
                chkAppliedSeq = wb.seq;
            }
            ++producerWritebacks;
            if (wb.measured) {
                stats.valueDelay.record(producerWritebacks -
                                        wb.producedAtDispatch);
            }
            scheme.writeback(wb.pc, wb.decision, wb.value);
        }
        ++c;
    }
    // Clamped to the drain cycle, not to the next busy one: a record
    // dispatched at this cycle may still complete at any later cycle.
    wheelCursor = cycle;
}

uint64_t
OooPipeline::allocateIssueSlot(uint64_t earliest)
{
    uint64_t cycle = earliest;
    for (;;) {
        size_t idx = static_cast<size_t>(cycle & (issueTag.size() - 1));
        if (issueTag[idx] != cycle) {
            issueTag[idx] = cycle;
            issueCount[idx] = 0;
        }
        if (issueCount[idx] < cfg.issueWidth) {
            ++issueCount[idx];
            return cycle;
        }
        ++cycle;
    }
}

PipelineStats
OooPipeline::run(workload::TraceSource &src, uint64_t max_instructions,
                 uint64_t warmup, bool measureFromRetire,
                 uint64_t functionalWarmup)
{
    // Callers validate the run length (JobSpec::validateOr, the
    // tools' flag parsing): a 0-instruction run measures nothing.
    GDIFF_ASSERT(max_instructions > 0,
                 "pipeline run length is 0 instructions");
    PipelineStats stats;

    // Per-register availability, for real results and for the
    // speculation-aware view consumers use.
    std::vector<uint64_t> regReady(isa::numRegs, 0);
    std::vector<uint64_t> regReadySpec(isa::numRegs, 0);
    // Store-to-load dependence through memory.
    StoreReadyTable memReady(cfg.robSize);

    // ROB occupancy: retire cycles of the last robSize instructions;
    // robSlot holds seq % robSize, kept by a wrapping counter.
    std::vector<uint64_t> robRetire(cfg.robSize, 0);
    unsigned robSlot = 0;

    // The previous run drained the wheel completely; cycles restart,
    // so no issue slot booked by that run may count against this one.
    wheelCursor = 0;
    std::fill(issueTag.begin(), issueTag.end(), ~uint64_t(0));
    chkApplied = false;

    uint64_t front_cycle = 1;       // front-end dispatch cursor
    unsigned dispatched_in_cycle = 0;
    uint64_t last_fetch_line = ~uint64_t(0);
    uint64_t last_retire_cycle = 0;
    unsigned retired_in_cycle = 0;

    uint64_t seq = 0;
    uint64_t measured = 0;
    uint64_t first_measured_cycle = 0;
    uint64_t last_cycle = 0;
    uint64_t budget = functionalWarmup + warmup + max_instructions;

    // ---- invariant checker (cfg.check.enabled): a second set of
    // books, kept with independent structures and cross-checked
    // against the cycle numbers the model computes ----------------
    const CheckConfig &chk = cfg.check;
    std::deque<uint64_t> chkRobWindow; // retire cycles, oldest first
    uint64_t chkPrevRetire = 0;        // in-order retire watermark
    uint64_t chkRetireCycle = 0;       // current retire cycle...
    unsigned chkRetireCount = 0;       // ...and retires charged to it
    std::unordered_map<uint64_t, unsigned> chkIssuePerCycle;
    // Every store's completion, never forgotten: the model of the
    // store-to-load dependence that memReady must answer exactly.
    std::unordered_map<uint64_t, uint64_t> chkStoreReady;
    auto violate = [&](const std::string &msg) {
        recordViolation(chk, stats, msg);
    };

    // Chunk-granularity obs split: trace delivery (fill) vs the cycle
    // loop itself. Accumulated locally, folded into the thread
    // registry once per run.
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t obsFillNs = 0, obsSimNs = 0, obsChunks = 0, obsT = 0;

    auto scratch = std::make_unique<workload::TraceChunk>();
    while (seq < budget) {
      if (obsOn)
          obsT = obs::nowNs();
      const workload::TraceChunk *chunk = src.fillRef(*scratch);
      if (obsOn) {
          uint64_t t = obs::nowNs();
          obsFillNs += t - obsT;
          obsT = t;
          ++obsChunks;
      }
      if (!chunk)
          break;
      uint32_t chunk_n = static_cast<uint32_t>(
          std::min<uint64_t>(chunk->size, budget - seq));
      for (uint32_t ci = 0; ci < chunk_n; ++ci) {
        // ---- functional-warmup phase: persistent state (caches,
        // branch predictor, VP tables) trains in program order with
        // no cycle modelling. Timing state is untouched, so the
        // timed phase below starts from cycle zero as usual.
        if (seq < functionalWarmup) {
            uint64_t fline = chunk->pc[ci] >> 6;
            if (fline != last_fetch_line) {
                last_fetch_line = fline;
                icache.access(chunk->pc[ci]);
            }
            if (chunk->producesValue(ci)) {
                // Program-order training; the completion-order
                // subtleties of the timed path only matter for delay
                // measurement, not table state.
                VpDecision d = scheme.predictAtDispatch(chunk->pc[ci]);
                scheme.writeback(chunk->pc[ci], d, chunk->value[ci]);
            }
            if (chunk->isLoad(ci) || chunk->isStore(ci))
                dcache.access(chunk->effAddr[ci]);
            if (chunk->isControl(ci) || chunk->isCondBranch(ci))
                bpred.predictAndTrain(chunk->record(ci));
            ++seq;
            continue;
        }

        const workload::TraceRecord r = chunk->record(ci);
        bool measure = seq >= functionalWarmup + warmup;

        // ---- front end ------------------------------------------------
        uint64_t line = r.pc >> 6;
        if (line != last_fetch_line) {
            last_fetch_line = line;
            if (!icache.access(r.pc)) {
                front_cycle += cfg.icache.missPenalty;
                dispatched_in_cycle = 0;
                if (measure)
                    stats.icacheBubbleCycles += cfg.icache.missPenalty;
            }
        }
        if (dispatched_in_cycle >= cfg.dispatchWidth) {
            ++front_cycle;
            dispatched_in_cycle = 0;
        }

        // ---- dispatch (ROB backpressure) -------------------------------
        uint64_t rob_free = robRetire[robSlot]; // retire of seq - robSize
        uint64_t dispatch_cycle =
            std::max(front_cycle + cfg.frontendDepth, rob_free);
        if (dispatch_cycle > front_cycle + cfg.frontendDepth) {
            // stall backpressures the front end
            if (measure) {
                stats.robStallCycles +=
                    dispatch_cycle - (front_cycle + cfg.frontendDepth);
            }
            front_cycle = dispatch_cycle - cfg.frontendDepth;
            dispatched_in_cycle = 0;
        }
        ++dispatched_in_cycle;

        if (chk.enabled && chkRobWindow.size() >= cfg.robSize &&
            dispatch_cycle < chkRobWindow.front()) {
            // The ROB holds at most robSize instructions: seq cannot
            // dispatch before seq - robSize has retired.
            violate(formatString(
                "ROB occupancy exceeded: seq %" PRIu64
                " dispatches at cycle %" PRIu64 " but seq %" PRIu64
                " only retires at cycle %" PRIu64,
                seq, dispatch_cycle, seq - cfg.robSize,
                chkRobWindow.front()));
        }

        // ---- writebacks that architecturally precede this dispatch ----
        if (dispatch_cycle != wheelCursor)
            drainWritebacksBefore(dispatch_cycle, stats);

        // ---- value prediction at dispatch ------------------------------
        VpDecision decision;
        bool produces = r.producesValue();
        if (produces)
            decision = scheme.predictAtDispatch(r.pc);

        // ---- operand readiness -----------------------------------------
        uint64_t ready = dispatch_cycle + 1;
        if (r.inst.readsRs1())
            ready = std::max(ready, regReadySpec[r.inst.rs1]);
        if (r.inst.readsRs2())
            ready = std::max(ready, regReadySpec[r.inst.rs2]);
        if (r.isLoad()) {
            const uint64_t regs_ready = ready;
            ready = std::max(ready, memReady.lookup(r.effAddr));
            if (chk.enabled) {
                auto it = chkStoreReady.find(r.effAddr);
                uint64_t want =
                    it == chkStoreReady.end()
                        ? regs_ready
                        : std::max(regs_ready, it->second);
                if (ready != want) {
                    violate(formatString(
                        "store-to-load dependence: seq %" PRIu64
                        " loads 0x%" PRIx64 " ready at cycle %" PRIu64
                        ", but its last store makes it cycle %" PRIu64,
                        seq, r.effAddr, ready, want));
                }
            }
        }

        // ---- issue and execute ------------------------------------------
        uint64_t issue_cycle = allocateIssueSlot(ready);
        unsigned latency = cfg.aluLatency;
        bool dmiss = false;
        switch (r.inst.op) {
          case Opcode::Mul:
            latency = cfg.mulLatency;
            break;
          case Opcode::Div:
          case Opcode::Rem:
            latency = cfg.divLatency;
            break;
          case Opcode::Load:
            dmiss = !dcache.access(r.effAddr);
            latency = cfg.agenLatency + dcache.latency(!dmiss);
            break;
          case Opcode::Store:
            // address generation; data commits from the store queue
            dcache.access(r.effAddr);
            latency = cfg.agenLatency;
            break;
          default:
            break;
        }
        uint64_t complete_cycle = issue_cycle + latency;

        if (chk.enabled) {
            if (complete_cycle - dispatch_cycle > horizon) {
                // The writeback wheel is sized from this bound.
                violate(formatString(
                    "wheel horizon exceeded: seq %" PRIu64
                    " completes %" PRIu64 " cycles after its dispatch,"
                    " beyond the %" PRIu64 "-cycle bound",
                    seq, complete_cycle - dispatch_cycle, horizon));
            }
            if (issue_cycle <= dispatch_cycle) {
                violate(formatString(
                    "issue before dispatch: seq %" PRIu64
                    " issues at cycle %" PRIu64
                    " but dispatches at cycle %" PRIu64,
                    seq, issue_cycle, dispatch_cycle));
            }
            if (complete_cycle < issue_cycle) {
                violate(formatString(
                    "completion precedes issue: seq %" PRIu64
                    " completes at cycle %" PRIu64
                    ", issues at cycle %" PRIu64,
                    seq, complete_cycle, issue_cycle));
            }
            // Independent issue-bandwidth books: the ring in
            // allocateIssueSlot must never oversubscribe a cycle.
            if (++chkIssuePerCycle[issue_cycle] > cfg.issueWidth) {
                violate(formatString(
                    "issue width exceeded at cycle %" PRIu64
                    " (seq %" PRIu64 ")",
                    issue_cycle, seq));
            }
            if ((seq & 0xfff) == 0) {
                // Dispatch is non-decreasing and issue follows it, so
                // cycles before the current dispatch are settled.
                for (auto it = chkIssuePerCycle.begin();
                     it != chkIssuePerCycle.end();) {
                    it = it->first < dispatch_cycle
                             ? chkIssuePerCycle.erase(it)
                             : std::next(it);
                }
            }
        }

        // ---- control flow ------------------------------------------------
        if (r.isControl() || r.isCondBranch()) {
            bool correct = bpred.predictAndTrain(r);
            if (!correct) {
                uint64_t redirected = std::max(
                    front_cycle,
                    complete_cycle + cfg.redirectPenalty);
                if (measure)
                    stats.redirectBubbleCycles +=
                        redirected - front_cycle;
                front_cycle = redirected;
                dispatched_in_cycle = 0;
                last_fetch_line = ~uint64_t(0);
            }
        }

        // ---- architectural effects --------------------------------------
        if (isa::writesRegister(r.inst.op) &&
            r.inst.rd != isa::reg::zero) {
            regReady[r.inst.rd] = complete_cycle;
            uint64_t spec = complete_cycle;
            if (decision.confident) {
                spec = (decision.value == r.value)
                           ? dispatch_cycle + 1     // dependence broken
                           : complete_cycle + 1;    // selective reissue
            }
            regReadySpec[r.inst.rd] = spec;

            if (chk.enabled && decision.confident &&
                decision.value != r.value && spec <= complete_cycle) {
                // Selective reissue: a consumer must never see the
                // mispredicted value as ready before the producer's
                // real execution has completed.
                violate(formatString(
                    "value misprediction leak: seq %" PRIu64
                    " pc 0x%" PRIx64 " marks r%u ready at cycle %"
                    PRIu64 " but completes at cycle %" PRIu64,
                    seq, r.pc, static_cast<unsigned>(r.inst.rd),
                    spec, complete_cycle));
            }
        }
        if (r.isStore()) {
            memReady.insert(r.effAddr, complete_cycle);
            if (chk.enabled)
                chkStoreReady[r.effAddr] = complete_cycle;
        }

        // ---- retire (in order, retireWidth per cycle) ---------------------
        uint64_t retire_cycle =
            std::max(complete_cycle + 1, last_retire_cycle);
        if (retire_cycle == last_retire_cycle &&
            retired_in_cycle >= cfg.retireWidth) {
            ++retire_cycle;
        }
        if (retire_cycle != last_retire_cycle) {
            last_retire_cycle = retire_cycle;
            retired_in_cycle = 0;
        }
        ++retired_in_cycle;
        robRetire[robSlot] = retire_cycle;
        if (++robSlot == cfg.robSize)
            robSlot = 0;

        if (chk.enabled) {
            if (retire_cycle < chkPrevRetire) {
                violate(formatString(
                    "out-of-order retire: seq %" PRIu64
                    " retires at cycle %" PRIu64
                    " before its predecessor's cycle %" PRIu64,
                    seq, retire_cycle, chkPrevRetire));
            }
            if (retire_cycle <= complete_cycle) {
                violate(formatString(
                    "retire before completion: seq %" PRIu64
                    " retires at cycle %" PRIu64
                    ", completes at cycle %" PRIu64,
                    seq, retire_cycle, complete_cycle));
            }
            // Independent retire-bandwidth books.
            if (retire_cycle != chkRetireCycle) {
                chkRetireCycle = retire_cycle;
                chkRetireCount = 0;
            }
            if (++chkRetireCount > cfg.retireWidth) {
                violate(formatString(
                    "retire width exceeded at cycle %" PRIu64
                    " (seq %" PRIu64 ")",
                    retire_cycle, seq));
            }
            chkPrevRetire = retire_cycle;
            chkRobWindow.push_back(retire_cycle);
            if (chkRobWindow.size() > cfg.robSize)
                chkRobWindow.pop_front();
        }

        // ---- predictor writeback event ------------------------------------
        if (produces) {
            PendingWriteback &wb = queueWriteback(complete_cycle);
            wb.seq = seq;
            wb.pc = r.pc;
            wb.value = r.value;
            wb.decision = decision;
            wb.producedAtDispatch = producerWritebacks;
            wb.measured = measure;
            const uint64_t live = arrivals - producerWritebacks;
            if (chk.enabled && live > cfg.robSize) {
                // Every writeback of seq - robSize or older completes
                // before this record's dispatch, so at most robSize
                // (this one included) can be waiting.
                violate(formatString(
                    "writeback queue holds %" PRIu64 " entries after "
                    "seq %" PRIu64 ", more than the %u-entry ROB",
                    live, seq, cfg.robSize));
            }
        }

        // ---- statistics ------------------------------------------------------
        if (measure) {
            if (measured == 0)
                first_measured_cycle =
                    measureFromRetire && warmup > 0 ? last_cycle
                                                    : dispatch_cycle;
            ++measured;
            if (r.isLoad() && dmiss) {
                stats.missLoadCoverage.record(decision.confident);
                if (decision.confident) {
                    stats.missLoadAccuracy.record(decision.value ==
                                                  r.value);
                }
            }
        }
        last_cycle = std::max(last_cycle, retire_cycle);
        ++seq;
      }
      if (obsOn)
          obsSimNs += obs::nowNs() - obsT;
    }

    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("pipeline.fill", obsFillNs, obsChunks);
        reg.addTimer("pipeline.sim", obsSimNs, obsChunks);
    }

    drainWritebacksBefore(~uint64_t(0), stats);

    stats.instructions = measured;
    stats.cycles = last_cycle > first_measured_cycle
                       ? last_cycle - first_measured_cycle
                       : 1;
    stats.ipc = static_cast<double>(stats.instructions) /
                static_cast<double>(stats.cycles);
    if (chk.enabled && measured > 0 &&
        stats.ipc > static_cast<double>(cfg.retireWidth) + 1e-9) {
        violate(formatString(
            "IPC %.4f exceeds retire width %u", stats.ipc,
            cfg.retireWidth));
    }
    stats.dcacheMissRate = dcache.missRate();
    stats.icacheMissRate = icache.missRate();
    stats.branchAccuracy = bpred.overallAccuracy().value();
    stats.coverage = scheme.coverage();
    stats.gatedAccuracy = scheme.gatedAccuracy();
    return stats;
}

} // namespace pipeline
} // namespace gdiff
