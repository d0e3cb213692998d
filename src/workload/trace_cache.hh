/**
 * @file
 * Process-wide cache of materialized dynamic traces.
 *
 * Every sweep job that shares a (workload, seed, record-budget)
 * triple re-executes the same kernel and consumes the identical
 * record stream. The TraceCache amortizes that: the first job to ask
 * for a triple runs the functional Executor once and freezes the
 * stream into an immutable chunked buffer; every later request —
 * including concurrent requests from other runner threads — replays
 * the shared buffer read-only through a cursor source. With a
 * persistent tier (trace_disk_cache.hh) every trace is held the same
 * way, whether the tier hit or missed: as its verified v3 image,
 * decoded a block at a time on first touch. A tier miss streams the
 * Executor's chunks straight into the new entry and adopts the bytes
 * it wrote, so it never holds the decoded trace.
 *
 * Guarantees:
 *  - exactly-once generation: concurrent acquires of the same triple
 *    block on the first requester's materialization instead of
 *    re-executing (a per-entry shared_future is the rendezvous);
 *  - determinism: a replayed stream is record-identical to a freshly
 *    generated one, so per-job metrics are bit-identical with the
 *    cache on or off, at any thread count;
 *  - bounded footprint: entries are LRU-evicted once the configured
 *    byte cap is exceeded. A trace backed by the disk tier stays
 *    compressed until its blocks are read, so its size is re-read
 *    before every eviction pass. Evicted traces stay alive
 *    (shared_ptr) until their last in-flight replayer finishes.
 */

#ifndef GDIFF_WORKLOAD_TRACE_CACHE_HH
#define GDIFF_WORKLOAD_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/mapping.hh"
#include "workload/trace.hh"
#include "workload/trace_io.hh"

namespace gdiff {
namespace workload {

class DiskTraceCache;

/**
 * An immutable materialized trace: the first @c records() records of
 * one (workload, seed) stream, as blocks of up to TraceChunk::capacity
 * records. Shared read-only between any number of replaying jobs.
 *
 * A block is in one of two states. A generated trace has every block
 * decoded, and all of its blocks live in one slab: a single mapping
 * of records / capacity + 1 blocks, each 64-byte aligned and
 * default-initialised rather than zeroed, which the executor fills in
 * place (bytes() still counts sizeof(TraceChunk) a block). The slab
 * is a Mapping (util/mapping.hh), so a long generation faults its
 * memory in 2 MiB huge pages. Dropping the trace unmaps the slab at
 * once.
 *
 * A trace backed by the disk tier holds a v3 image and its block
 * index: on a hit, the entry's bytes as the load verified them; on a
 * miss, the image the store's writer encoded and digested. It decodes
 * a block the first time a reader touches it; the decoded block is
 * published once (an atomic slot, first writer wins) and stays for
 * the trace's lifetime, so a trace that is replayed in full many
 * times is decoded once. Readers that need only the pc and value
 * columns (the sampler's profiling pass) get them decoded into their
 * own scratch, and nothing is published.
 *
 * Every digest of a loaded image was checked at load, so a block can
 * fail to decode only in a file whose digests were forged. That
 * failure does not reach the reader: the trace calls its fallback
 * once, which quarantines the entry and regenerates the triple, and
 * serves every later block from the regenerated trace.
 */
class MaterializedTrace
{
  public:
    /**
     * Supplies the trace to serve when a disk-loaded block fails to
     * decode; called at most once, with the decode failure.
     */
    using Fallback = std::function<std::shared_ptr<const MaterializedTrace>(
        const TraceIoResult &)>;

    MaterializedTrace();
    ~MaterializedTrace();

    MaterializedTrace(const MaterializedTrace &) = delete;
    MaterializedTrace &operator=(const MaterializedTrace &) = delete;

    /**
     * Execute @p workload (makeWorkload(@p workload, @p seed)) and
     * freeze its first @p maxRecords records. Fewer are stored if the
     * program halts first.
     */
    static std::shared_ptr<const MaterializedTrace>
    generate(const std::string &workload, uint64_t seed,
             uint64_t maxRecords);

    /**
     * Adopt a v3 image whose blocks @p index locates: one that
     * indexTraceImage() verified (a disk-tier load), or one a
     * TraceWriter kept and indexed as it wrote it (a disk-tier
     * store). No block is decoded yet. @p fallback must be callable.
     */
    static std::shared_ptr<const MaterializedTrace>
    fromImage(TraceImage image, std::vector<TraceBlockRef> index,
              Fallback fallback);

    /** @return blocks in the stream. */
    size_t blockCount() const;

    /** @return records in block @p i, without decoding it. */
    uint32_t blockRecords(size_t i) const;

    /** @return block @p i, decoding it on first touch. */
    const TraceChunk &block(size_t i) const;

    /**
     * @return block @p i if it is decoded, else its size, pc and value
     * columns decoded into @p scratch (nothing is published).
     */
    const TraceChunk &pcValue(size_t i, TraceChunk &scratch) const;

    /** @return whether block @p i is decoded and resident. */
    bool decoded(size_t i) const;

    /** @return full-block decodes so far (lost publish races count). */
    uint64_t blockDecodes() const
    {
        return decodeCount.load(std::memory_order_relaxed);
    }

    /** @return records stored. */
    uint64_t records() const;

    /**
     * @return approximate resident bytes (for the cache cap): the
     * image plus the decoded blocks. Grows as blocks are decoded.
     */
    size_t bytes() const;

  private:
    /// a disk-loaded trace's image, index and fallback state
    struct DiskImage;

    /** @return the fallback trace once it has replaced this one. */
    const MaterializedTrace *replacement() const;

    /** Decode, publish and return block @p i. */
    const TraceChunk &decodeBlock(size_t i) const;

    /** Switch to the fallback trace (once) after @p why. */
    const MaterializedTrace &fallBack(const TraceIoResult &why) const;

    /// decoded blocks, null until first touched; in @c slab for a
    /// generated trace, else owned
    std::unique_ptr<std::atomic<TraceChunk *>[]> slots;
    /// the one mapping that holds a generated trace's blocks (empty
    /// for a disk-loaded trace)
    Mapping slab;
    size_t numBlocks = 0;
    uint64_t recordCount = 0;
    /// null for a generated trace
    std::unique_ptr<DiskImage> disk;
    mutable std::atomic<size_t> decodedCount{0};
    mutable std::atomic<uint64_t> decodeCount{0};
};

/**
 * Replays a MaterializedTrace as a TraceSource. Holds a shared
 * reference, so the trace outlives any cache eviction while a replay
 * is in flight. fillRef() hands out the trace's own blocks and fill()
 * copies them; nothing a reader sees is ever written again.
 */
class CachedTraceSource : public TraceSource
{
  public:
    explicit CachedTraceSource(
        std::shared_ptr<const MaterializedTrace> trace);

    bool fill(TraceChunk &chunk) override;

    /** Hands out the frozen chunk itself: replay never copies. */
    const TraceChunk *fillRef(TraceChunk &scratch) override;

    /** Decodes only pc and value for a block not yet decoded. */
    const TraceChunk *fillPcValue(TraceChunk &scratch) override;

    /** Steps over whole blocks without decoding them. */
    uint64_t skipChunks(uint64_t maxRecords) override;

    /** Rewind to the first record (multi-pass experiments). */
    void rewind();

  private:
    std::shared_ptr<const MaterializedTrace> trace;
    size_t cursor = 0; ///< next block index
};

/** The shared trace cache. */
class TraceCache
{
  public:
    struct Config
    {
        /// byte cap before LRU eviction; 0 = unbounded
        size_t maxBytes = size_t(512) << 20;
        /// persistent tier root directory; empty = memory-only
        std::string diskRoot;
        /// byte cap for the persistent tier
        size_t diskMaxBytes = size_t(2) << 30;
    };

    /** Point-in-time counters (monotonic except residentBytes). */
    struct Stats
    {
        uint64_t hits = 0;        ///< served from a resident trace
        /// lookups that found no entry (every miss falls through to
        /// the disk tier and then to a generation)
        uint64_t misses = 0;
        uint64_t generations = 0; ///< functional materializations
        uint64_t evictions = 0;   ///< entries dropped by LRU
        size_t residentBytes = 0; ///< bytes currently cached
        size_t entries = 0;       ///< triples currently cached

        /// @name persistent tier (all zero when diskEnabled is false)
        /// @{
        bool diskEnabled = false;
        uint64_t diskHits = 0;
        uint64_t diskMisses = 0;
        uint64_t diskStores = 0;
        uint64_t diskEvictions = 0;
        uint64_t diskCorruptRecoveries = 0;
        /// @}
    };

    /** What acquire() hands back, with generate-vs-replay metadata. */
    struct Acquired
    {
        std::unique_ptr<TraceSource> source;
        /// true when *this call* materialized the trace
        bool generated = false;
        /// true when *this call* loaded the trace from the disk tier
        bool fromDisk = false;
        /**
         * Wall seconds this call spent generating (0 on replay): the
         * executor's set-up and its fill() calls. On a disk-tier miss
         * the v3 encode and write between the fills are not counted.
         */
        double generateSeconds = 0.0;
    };

    TraceCache();
    explicit TraceCache(const Config &config);

    /**
     * Get a replay source for the first @p records records of
     * (workload, seed). Thread-safe; the first requester of a triple
     * materializes, concurrent requesters wait for it.
     */
    Acquired acquire(const std::string &workload, uint64_t seed,
                     uint64_t records);

    /**
     * @return a point-in-time snapshot of the counters. Printed by
     * the gdiffrun summary and served by the gdiffd status endpoint.
     */
    Stats snapshot() const;

    /** Drop every entry and reset the counters (tests). */
    void clear();

    /** Change the byte cap; evicts immediately if now exceeded. */
    void setMaxBytes(size_t bytes);

    /**
     * Attach (or, with an empty @p root, detach) the persistent disk
     * tier. Misses fall through to disk before generating, and a disk
     * miss generates straight into a new entry for later processes,
     * keeping only the image it wrote.
     */
    void setDiskRoot(const std::string &root,
                     size_t maxBytes = size_t(2) << 30);

    /** @return the disk tier root, or empty when detached. */
    std::string diskRoot() const;

    /**
     * The process-wide instance the sweep runner uses. On first use
     * the GDIFF_TRACE_CACHE_DIR environment variable, when set and
     * non-empty, attaches the persistent tier.
     */
    static TraceCache &global();

  private:
    struct Key
    {
        std::string workload;
        uint64_t seed;
        uint64_t records;

        bool
        operator<(const Key &o) const
        {
            if (workload != o.workload)
                return workload < o.workload;
            if (seed != o.seed)
                return seed < o.seed;
            return records < o.records;
        }
    };

    struct Entry
    {
        std::shared_future<std::shared_ptr<const MaterializedTrace>>
            future;
        /// null until materialization finishes
        std::shared_ptr<const MaterializedTrace> trace;
        std::list<Key>::iterator lruPos;
    };

    /** @return the finished entries' bytes(), read now: a
     *  disk-loaded trace grows as its blocks are decoded. Caller
     *  holds @c lock. */
    size_t residentBytesLocked() const;

    /** Evict LRU entries until under the cap. Caller holds @c lock. */
    void evictLocked();

    mutable std::mutex lock;
    Config cfg;
    /// persistent tier; shared_ptr so acquire() can use it unlocked
    std::shared_ptr<DiskTraceCache> disk;
    std::map<Key, Entry> entries;
    /// LRU order, most recent at the back; only finished entries
    std::list<Key> lru;
    Stats counters;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_CACHE_HH
