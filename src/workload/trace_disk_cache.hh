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
 *  - stores stream a TraceSource (the executor, on a TraceCache
 *    miss) chunk by chunk through a v3 TraceWriter that keeps its
 *    image, so a miss never holds the decoded trace. The writer
 *    copies each block into its image, digests it and writes it to
 *    `<entry>.tmp.<pid>` from there, and indexes the blocks as it
 *    goes; the store keeps that image as its trace (never reading the
 *    file back) and then atomically rename(2)s the file into place:
 *    a crash mid-write
 *    never leaves a half-entry, concurrent writers race safely (both
 *    produce identical bytes; last rename wins), and another
 *    process's sweep cannot delete the entry from under the store
 *    that just wrote it. Only load() verifies bytes read from disk;
 *  - loads read the entry into an owned buffer and verify all of it
 *    (indexTraceImage: header, block headers and digests, column
 *    directories, record count, footer and file digest) without
 *    decoding a column. Any corruption — truncation, flipped bytes,
 *    digest mismatch — quarantines the entry (renamed to
 *    `<entry>.corrupt`) and reports a miss so the caller
 *    regenerates. A verified entry, or a stored one, becomes a
 *    MaterializedTrace that decodes each block on first touch; a
 *    block that still fails to decode (forged digests) quarantines
 *    the entry then, and the trace falls back to a regenerated,
 *    fully decoded copy;
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
#include <vector>

#include "workload/trace_cache.hh"

namespace gdiff {
namespace workload {

/** The on-disk trace tier. Thread-safe; shared by one process. */
class DiskTraceCache : public std::enable_shared_from_this<DiskTraceCache>
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
        /// corrupt entries detected, quarantined and regenerated: at
        /// load (also counted as a miss) or, for an entry with forged
        /// digests, when a block fails to decode (after its hit)
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
     * @return the verified, not yet decoded trace on a hit; nullptr
     * on a miss or after quarantining a corrupt entry.
     */
    std::shared_ptr<const MaterializedTrace>
    load(const std::string &workload, uint64_t seed,
         uint64_t records);

    /**
     * Persist the first @p records records @p source produces as the
     * entry for (workload, seed, records), trimming the last chunk to
     * the budget. The chunks stream, one at a time, through a v3
     * TraceWriter into a temp file; the writer keeps the image it
     * wrote and digested, and indexes each block as it commits it.
     * The store checks the tier's layout rules on that index and
     * adopts the writer's image and index, not a read-back of the
     * file, before an atomic rename publishes the entry and the
     * eviction sweep runs. Only load() verifies bytes read from disk.
     *
     * @return the adopted, not yet decoded trace, as load() would
     * return it, except that a block of it that fails to decode is a
     * bug here and panics. A failed encode, layout check or write
     * warns, stores nothing and returns nullptr; a failed rename warns
     * and stores nothing, but the adopted trace is still returned.
     */
    std::shared_ptr<const MaterializedTrace>
    store(const std::string &workload, uint64_t seed, uint64_t records,
          TraceSource &source);

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

    /** Count a corrupt entry (and, with @p miss, a miss). */
    void countCorrupt(bool miss);

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
