/**
 * @file
 * Pipeline configuration (paper Table 1).
 *
 * The timing model is a trace-driven dependence-graph simulator of a
 * MIPS R10000-like out-of-order superscalar: 4-wide fetch/dispatch/
 * issue/retire, a 64-entry reorder buffer (the paper uses ROB size ==
 * issue window), 4 fully symmetric function units, and the paper's
 * cache latencies.
 */

#ifndef GDIFF_PIPELINE_CONFIG_HH
#define GDIFF_PIPELINE_CONFIG_HH

#include "mem/cache.hh"

namespace gdiff {
namespace pipeline {

/**
 * Runtime invariant checking (the pipeline half of the src/check/
 * differential-testing subsystem).
 *
 * When enabled, the timing model runs a second, independent set of
 * books — an explicit ROB window, retire-bandwidth counters, per-cycle
 * issue counts, an unbounded store-to-load map — and cross-checks them
 * against the cycle numbers the model computes, along with the
 * writeback queue's robSize bound, the writeback wheel's horizon and
 * its (completeCycle, seq) drain order.
 * Violations are counted and the first few described in
 * PipelineStats::checkReports.
 */
struct CheckConfig
{
    /// enable per-instruction pipeline invariant checks (slower)
    bool enabled = false;
    /// panic() on the first violation instead of recording it
    bool failFast = false;
    /// cap on stored violation report strings
    unsigned maxReports = 16;
};

/** Machine parameters, defaulted to the paper's Table 1. */
struct PipelineConfig
{
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned robSize = 64;
    unsigned numFus = 4; ///< fully symmetric
    unsigned dcachePorts = 4;

    /// pipeline depth from fetch to dispatch (frontend stages)
    unsigned frontendDepth = 2;
    /// extra cycles to redirect the front end after a mispredict, on
    /// top of waiting for the branch to execute
    unsigned redirectPenalty = 2;

    /// ALU latency (integer ops)
    unsigned aluLatency = 1;
    /// address generation latency for loads/stores
    unsigned agenLatency = 1;
    /// multiplier latency (MIPS R10000: 5-6 cycles for mult)
    unsigned mulLatency = 5;
    /// divide latency
    unsigned divLatency = 20;

    mem::CacheConfig icache = mem::CacheConfig::paperICache();
    mem::CacheConfig dcache = mem::CacheConfig::paperDCache();

    /// branch predictor: gshare history bits / table entries
    unsigned gshareHistoryBits = 12;
    /// branch target buffer entries (for indirect jumps)
    size_t btbEntries = 2048;
    /// return address stack depth
    unsigned rasDepth = 16;

    /// invariant checking (off by default: zero-cost for normal runs)
    CheckConfig check;

    /** @return the paper's Table 1 configuration. */
    static PipelineConfig
    paper()
    {
        return PipelineConfig();
    }
};

} // namespace pipeline
} // namespace gdiff

#endif // GDIFF_PIPELINE_CONFIG_HH
