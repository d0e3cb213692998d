#include "pipeline/ooo_model.hh"

#include <algorithm>
#include <cinttypes>
#include <deque>
#include <memory>
#include <unordered_map>

#include "obs/obs.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace pipeline {

using isa::Opcode;

namespace {

/// issue-bandwidth ring size (must exceed any plausible scheduling
/// horizon; the ROB bounds lookahead well below this)
constexpr size_t issueRingSize = 1 << 16;

} // anonymous namespace

OooPipeline::OooPipeline(const PipelineConfig &config, VpScheme &s)
    : cfg(config), scheme(s), bpred(config), icache(config.icache),
      dcache(config.dcache), issueCount(issueRingSize, 0),
      issueTag(issueRingSize, ~uint64_t(0)),
      pending(size_t(1) << ceilLog2(std::max(1u, config.robSize)))
{
}

void
OooPipeline::queueWriteback(const PendingWriteback &wb)
{
    GDIFF_ASSERT(pendingTail - pendingHead < pending.size(),
                 "writeback ring full at %zu entries", pending.size());
    const uint64_t mask = pending.size() - 1;
    uint64_t i = pendingTail++;
    while (i > pendingHead &&
           pending[(i - 1) & mask].completeCycle > wb.completeCycle) {
        pending[i & mask] = pending[(i - 1) & mask];
        --i;
    }
    pending[i & mask] = wb;
}

void
OooPipeline::drainWritebacksBefore(uint64_t cycle, PipelineStats &stats)
{
    const uint64_t mask = pending.size() - 1;
    while (pendingHead < pendingTail &&
           pending[pendingHead & mask].completeCycle < cycle) {
        const PendingWriteback &wb = pending[pendingHead++ & mask];
        ++producerWritebacks;
        if (wb.measured) {
            stats.valueDelay.record(producerWritebacks -
                                    wb.producedAtDispatch);
        }
        scheme.writeback(wb.pc, wb.decision, wb.value);
    }
}

uint64_t
OooPipeline::allocateIssueSlot(uint64_t earliest)
{
    uint64_t cycle = earliest;
    for (;;) {
        size_t idx = static_cast<size_t>(cycle & (issueRingSize - 1));
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
    if (max_instructions == 0) {
        fatal("pipeline run length is 0 instructions: nothing would "
              "be measured");
    }
    PipelineStats stats;

    // Per-register availability, for real results and for the
    // speculation-aware view consumers use.
    std::vector<uint64_t> regReady(isa::numRegs, 0);
    std::vector<uint64_t> regReadySpec(isa::numRegs, 0);
    // Store-to-load dependence through memory.
    std::unordered_map<uint64_t, uint64_t> memReady;

    // ROB occupancy: retire cycles of the last robSize instructions.
    std::vector<uint64_t> robRetire(cfg.robSize, 0);

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
    auto violate = [&](const std::string &msg) {
        ++stats.checkViolations;
        if (stats.checkReports.size() < chk.maxReports)
            stats.checkReports.push_back(msg);
        if (chk.failFast)
            panic("pipeline invariant violated: %s", msg.c_str());
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
        uint64_t rob_free =
            robRetire[seq % cfg.robSize]; // retire of (seq - robSize)
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
            auto it = memReady.find(r.effAddr);
            if (it != memReady.end())
                ready = std::max(ready, it->second);
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
        if (r.isStore())
            memReady[r.effAddr] = complete_cycle;

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
        robRetire[seq % cfg.robSize] = retire_cycle;

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
            PendingWriteback wb;
            wb.completeCycle = complete_cycle;
            wb.pc = r.pc;
            wb.value = r.value;
            wb.decision = decision;
            wb.producedAtDispatch = producerWritebacks;
            wb.measured = measure;
            queueWriteback(wb);
            if (chk.enabled && pendingTail - pendingHead > cfg.robSize) {
                // Every writeback of seq - robSize or older completes
                // before this record's dispatch, so at most robSize
                // (this one included) can be waiting.
                violate(formatString(
                    "writeback queue holds %" PRIu64 " entries after "
                    "seq %" PRIu64 ", more than the %u-entry ROB",
                    pendingTail - pendingHead, seq, cfg.robSize));
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
