/**
 * @file
 * Persistent, disk-backed tier under the in-memory TraceCache.
 *
 * A materialized (workload, seed, records) trace is expensive to
 * regenerate and perfectly deterministic, which makes it an ideal
 * candidate for caching *across processes*: a sweep re-run, a
 * restarted gdiffd, or the second step of a CI job can replay
 * yesterday's traces from disk instead of re-executing the kernels.
 *
 * Layout: one format-v3 trace file per entry, content-addressed by
 * name — `<workload>-s<seed>-r<records>-v3.gdtr` — under a single
 * cache root (GDIFF_TRACE_CACHE_DIR or --trace-cache-dir). The v3
 * footer digest makes each entry self-verifying; no sidecar metadata
 * is needed.
 *
 * Durability and concurrency:
 *  - stores write to `<entry>.tmp.<pid>` and atomically rename(2)
 *    into place, so a crash mid-write never leaves a half-entry and
 *    concurrent writers race safely (both produce identical bytes;
 *    last rename wins);
 *  - loads mmap the entry read-only and decode through
 *    TraceReader; any corruption — truncation, flipped bytes,
 *    digest mismatch — quarantines the entry (renamed to
 *    `<entry>.corrupt`) and reports a miss so the caller regenerates;
 *  - eviction is a byte-capped LRU over entry mtimes: a load hit
 *    bumps the entry's mtime, and any process that pushes the
 *    directory over the cap deletes oldest-first (never the entry it
 *    just wrote). Stale temp and quarantine files are collected
 *    first.
 *
 * Every outcome is counted (hits/misses/stores/evictions/
 * corrupt-recoveries), mirrored into src/obs counters, and surfaced
 * by the gdiffrun summary and the gdiffd status endpoint.
 */

#ifndef GDIFF_WORKLOAD_TRACE_DISK_CACHE_HH
#define GDIFF_WORKLOAD_TRACE_DISK_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "workload/trace_cache.hh"

namespace gdiff {
namespace workload {

/** The on-disk trace tier. Thread-safe; shared by one process. */
class DiskTraceCache
{
  public:
    struct Config
    {
        std::string root;    ///< cache directory (created on demand)
        /// byte cap across all entries; 0 = unbounded
        size_t maxBytes = size_t(2) << 30;
    };

    /** Point-in-time counters (all monotonic). */
    struct Stats
    {
        uint64_t hits = 0;    ///< entries served from disk
        uint64_t misses = 0;  ///< lookups with no usable entry
        uint64_t stores = 0;  ///< entries persisted
        uint64_t evictions = 0; ///< entries deleted by the LRU sweep
        /// corrupt entries detected, quarantined, and re-reported as
        /// misses so the caller regenerates
        uint64_t corruptRecoveries = 0;
    };

    /**
     * @param cfg the cache root and byte cap. The directory is
     * created (with parents) on first use; creation failure disables
     * the cache with a warning rather than aborting the run.
     */
    explicit DiskTraceCache(Config cfg);

    DiskTraceCache(const DiskTraceCache &) = delete;
    DiskTraceCache &operator=(const DiskTraceCache &) = delete;

    /**
     * Look up the entry for (workload, seed, records).
     *
     * @return the decoded trace on a verified hit; nullptr on a miss
     * or after quarantining a corrupt entry.
     */
    std::shared_ptr<const MaterializedTrace>
    load(const std::string &workload, uint64_t seed,
         uint64_t records);

    /**
     * Persist @p trace as the entry for (workload, seed, records)
     * via temp file + atomic rename, then run the eviction sweep.
     * A failed write or rename warns and stores nothing.
     */
    void store(const std::string &workload, uint64_t seed,
               uint64_t records, const MaterializedTrace &trace);

    /** @return a point-in-time snapshot of the counters. */
    Stats snapshot() const;

    /** @return the configured cache root. */
    const std::string &root() const { return cfg.root; }

    /** Change the byte cap; sweeps immediately if now exceeded. */
    void setMaxBytes(size_t bytes);

    /** @return the entry file name for a triple (no directory). */
    static std::string entryName(const std::string &workload,
                                 uint64_t seed, uint64_t records);

  private:
    /** Delete temp/quarantine litter, then LRU-evict entries until
     *  the directory is under the byte cap. @p keep (an absolute
     *  path, possibly empty) is never evicted. */
    void sweepLocked(const std::string &keep);

    /** Ensure the root directory exists. @return false (and warn,
     *  once) when it cannot be created. */
    bool ensureRootLocked();

    mutable std::mutex lock;
    Config cfg;
    bool rootReady = false;
    bool rootFailed = false;
    Stats counters;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_DISK_CACHE_HH
