/**
 * @file
 * Trace-driven out-of-order superscalar timing model.
 *
 * The model processes the dynamic trace in program order and computes
 * per-instruction dispatch/issue/complete/retire cycles from the
 * machine constraints (paper Table 1): front-end width and I-cache
 * behaviour, branch/indirect misprediction redirects, ROB occupancy,
 * issue bandwidth, operand readiness through registers and memory,
 * and D-cache latency. Predictor training happens in *completion*
 * order via a writeback wheel indexed by completion cycle, which is
 * what exposes value delay (Fig. 12) and SGVQ execution variation
 * (Fig. 13) exactly as the paper describes.
 *
 * Value speculation follows the paper's aggressive machine model
 * (§7, after Sazeides' "great latency" model): a confident prediction
 * lets consumers issue one cycle after the producer's dispatch;
 * verification happens when the producer executes; on a value
 * misprediction only the dependent instructions reissue, modelled as
 * operand availability at the producer's completion plus one cycle.
 */

#ifndef GDIFF_PIPELINE_OOO_MODEL_HH
#define GDIFF_PIPELINE_OOO_MODEL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "pipeline/branch_pred.hh"
#include "pipeline/config.hh"
#include "pipeline/vp_scheme.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace pipeline {

/** Results of one pipeline run. */
struct PipelineStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;

    /// value-delay distribution: producer writebacks between an
    /// instruction's dispatch and its own writeback (paper Fig. 12)
    stats::Histogram valueDelay{64};

    /// confident predictions among *missing* loads (paper §7 notes
    /// these drive mcf's speedup)
    stats::Ratio missLoadCoverage;
    stats::Ratio missLoadAccuracy;

    double dcacheMissRate = 0.0;
    double icacheMissRate = 0.0;
    double branchAccuracy = 0.0;

    /// @name Front-end cycle accounting (approximate attribution)
    /// @{
    uint64_t icacheBubbleCycles = 0;   ///< I-cache miss bubbles
    uint64_t redirectBubbleCycles = 0; ///< mispredict redirects
    uint64_t robStallCycles = 0;       ///< dispatch held by the ROB
    /// @}

    /// copied from the scheme after the run
    stats::Ratio coverage;
    stats::Ratio gatedAccuracy;

    /// @name Invariant checker results (cfg.check.enabled only)
    /// @{
    uint64_t checkViolations = 0;            ///< total violations
    std::vector<std::string> checkReports;   ///< first maxReports
    /// @}
};

/**
 * Completion cycles of recent stores by effective address: the
 * store-to-load dependence through memory.
 *
 * Only the last robSize records' stores can delay a load. A store at
 * seq s retires before seq s + robSize dispatches, and it completes
 * before it retires, so for any later load L its completion cycle is
 * below dispatch(L) + 1, the earliest cycle L could issue anyway. A
 * load therefore needs exact answers only for the stores in that
 * window, and a table that has forgotten older stores changes no
 * cycle.
 *
 * The table is a flat open-addressed hash with linear probing. Every
 * store also enters a ring that holds the last `window` stores,
 * rounded up to a power of two (a superset of the stores among the
 * last robSize records). Once half
 * the table's slots have taken new addresses since the last rebuild,
 * the table is emptied and refilled from the ring, oldest first, so
 * the newest store to each address wins. The table then never holds
 * more than window + capacity/2 addresses, and each store pays for a
 * rebuild with a fraction of one extra insert.
 *
 * Emptying bumps an epoch number: a slot is in use only while its
 * epoch matches. No address is reserved as an empty marker, because
 * 0 and ~0 are legal effective addresses.
 */
class StoreReadyTable
{
  public:
    /** @param window stores that must stay visible (the ROB size). */
    explicit StoreReadyTable(unsigned window);

    /** Remember that the store to @p addr completes at @p cycle. */
    void insert(uint64_t addr, uint64_t cycle);

    /**
     * @return the completion cycle of the latest remembered store to
     * @p addr, or 0 if none is remembered. Every store among the last
     * `window` inserts is remembered, so an answer of 0 means that no
     * store in the window wrote @p addr. (A store completes at cycle
     * 2 at the earliest, so 0 never stands for a real cycle.)
     */
    uint64_t
    lookup(uint64_t addr) const
    {
        for (size_t i = homeSlot(addr);; i = (i + 1) & slotMask) {
            const Slot &e = slots[i];
            if (e.epoch != epoch)
                return 0;
            if (e.addr == addr)
                return e.cycle;
        }
    }

    /** @return the slot @p addr hashes to before probing. */
    size_t
    homeSlot(uint64_t addr) const
    {
        return static_cast<size_t>((addr * 0x9e3779b97f4a7c15ull) >>
                                   hashShift);
    }

    /** @return the number of table slots (a power of two). */
    size_t capacity() const { return slots.size(); }

  private:
    struct Slot
    {
        uint64_t addr = 0;
        uint64_t cycle = 0;
        uint32_t epoch = 0; ///< in use while equal to the table's
    };

    /** Set @p addr's cycle. @return true if @p addr took a new slot. */
    bool upsert(uint64_t addr, uint64_t cycle);

    /** Empty the table and refill it from the recent-store ring. */
    void rebuild();

    std::vector<Slot> slots;
    size_t slotMask;
    unsigned hashShift;
    uint32_t epoch = 1;
    size_t freshSinceRebuild = 0; ///< new addresses since rebuild()

    /// the last recent.size() stores: (address, cycle), by store count
    std::vector<std::pair<uint64_t, uint64_t>> recent;
    uint64_t stores = 0;
};

/** The timing model. */
class OooPipeline
{
  public:
    /**
     * @param config machine parameters.
     * @param scheme value-speculation scheme (externally owned).
     */
    OooPipeline(const PipelineConfig &config, VpScheme &scheme);

    /**
     * Run the trace through the machine.
     *
     * @param src    dynamic instruction source.
     * @param max_instructions measured instructions.
     * @param warmup instructions executed before measurement starts
     *               (caches/predictors train; stats not recorded).
     * @param measureFromRetire count measured cycles from the retire
     *               watermark of the last warmup instruction instead
     *               of the first measured instruction's dispatch
     *               cycle. The default charges the window the full
     *               dispatch-to-retire latency of its first
     *               instruction — negligible over a long run but a
     *               fixed ~ROB-drain overcount for the short windows
     *               of sampled simulation, whose cycle counts must
     *               tile: summed retire-to-retire windows telescope
     *               to the continuous run's total. No effect when
     *               warmup is 0.
     * @param functionalWarmup records consumed *before* the detailed
     *               warmup with no cycle modelling at all: caches,
     *               the branch predictor, and the VP scheme's tables
     *               train in program order at a fraction of a timed
     *               record's cost. This is the long-history half of
     *               SMARTS-style warming for sampled windows
     *               (src/sample/): structures like a large D-cache
     *               converge over tens of thousands of records, far
     *               more than detailed warmup can affordably replay.
     * @return the collected statistics.
     */
    PipelineStats run(workload::TraceSource &src,
                      uint64_t max_instructions,
                      uint64_t warmup = 0,
                      bool measureFromRetire = false,
                      uint64_t functionalWarmup = 0);

  private:
    /** A completed producer waiting to train the scheme. */
    struct PendingWriteback
    {
        uint64_t completeCycle = 0;
        uint64_t seq = 0;
        uint64_t pc = 0;
        int64_t value = 0;
        VpDecision decision;
        uint64_t producedAtDispatch = 0;
        uint32_t next = 0; ///< next arrival in the same wheel bucket
        bool measured = false;
    };

    /**
     * Queue a writeback completing at @p completeCycle: take the next
     * arrival-ring slot and append it to the FIFO list of that cycle's
     * wheel bucket. Writebacks arrive in seq order, so each bucket
     * lists its writebacks in program order.
     * @return the slot, for the caller to fill in the payload.
     */
    PendingWriteback &queueWriteback(uint64_t completeCycle);

    /**
     * Apply all pending writebacks completing strictly before @p
     * cycle, in (completeCycle, seq) order, and move the wheel cursor
     * to @p cycle (never beyond: a later record may still complete at
     * any cycle from the current dispatch on).
     */
    void drainWritebacksBefore(uint64_t cycle, PipelineStats &stats);

    /** @return first cycle >= earliest with a free issue slot, and
     * consume the slot. */
    uint64_t allocateIssueSlot(uint64_t earliest);

    PipelineConfig cfg;
    VpScheme &scheme;
    BranchPredictor bpred;
    mem::Cache icache;
    mem::Cache dcache;

    /// issue-bandwidth ring: slot counts tagged by cycle. Issue cycles
    /// never exceed completion, so every cycle still open to issue
    /// lies within the wheel's horizon past the current dispatch, and
    /// the ring shares the wheel's size.
    std::vector<uint32_t> issueCount;
    std::vector<uint64_t> issueTag;

    /**
     * Completed producers, by arrival: a power-of-two ring of at
     * least robSize entries. At most robSize are live: record seq +
     * robSize dispatches no earlier than retire(seq) > complete(seq),
     * and the drain before that dispatch applies every writeback
     * completing before it. So arrival a's slot is free again by the
     * time arrival a + ring size needs it.
     */
    std::vector<PendingWriteback> pending;
    uint64_t arrivals = 0; ///< writebacks queued (ring position)

    /**
     * The writeback wheel: one bucket per completion cycle modulo its
     * power-of-two size, each the head and tail of a FIFO list threaded
     * through `pending`, plus a bitmap of the buckets in use.
     *
     * Horizon: every live writeback completes in [wheelCursor,
     * wheelCursor + wheel.size()). The cursor equals the latest
     * dispatch cycle, and no record completes more than `horizon`
     * cycles after its own dispatch (writebackHorizon() in
     * ooo_model.cc derives the bound from the config), so the wheel is
     * sized above that bound and two live cycles never share a bucket. A drain walks the bitmap from
     * the cursor a word at a time, so empty cycles cost a bit test.
     */
    struct Bucket
    {
        uint32_t head = 0;
        uint32_t tail = 0;
    };
    std::vector<Bucket> wheel;
    std::vector<uint64_t> wheelBusy; ///< bit b: bucket b has entries
    /// every writeback completing before this cycle has been applied
    uint64_t wheelCursor = 0;
    /// the largest completeCycle - dispatch cycle a record can reach
    uint64_t horizon = 0;

    uint64_t producerWritebacks = 0; ///< count of applied producer wbs

    /// @name Checker books: the last writeback applied in this run
    /// @{
    bool chkApplied = false;
    uint64_t chkAppliedCycle = 0;
    uint64_t chkAppliedSeq = 0;
    /// @}
};

} // namespace pipeline
} // namespace gdiff

#endif // GDIFF_PIPELINE_OOO_MODEL_HH
