#include "workload/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {

namespace {

/**
 * The executor of one (workload, seed) stream, timing its set-up and
 * its fill() calls alone. A disk-tier miss interleaves the fills with
 * the v3 encode and write, and only the former are generation time.
 */
class TimedExecutor : public TraceSource
{
  public:
    TimedExecutor(const std::string &workload, uint64_t seed)
        : startNs(obs::nowNs()), w(makeWorkload(workload, seed)),
          exec(w.makeExecutor()), spentNs(obs::nowNs() - startNs)
    {}

    bool
    fill(TraceChunk &chunk) override
    {
        const uint64_t t0 = obs::nowNs();
        bool more = exec->fill(chunk);
        spentNs += obs::nowNs() - t0;
        return more;
    }

    /** @return wall seconds spent generating. */
    double seconds() const { return static_cast<double>(spentNs) / 1e9; }

    /**
     * Fold the generation time into the trace.generate timer and
     * record it as one span: it starts with the set-up and lasts the
     * generation time, not the encode and write between the fills.
     */
    void
    report(const std::string &workload) const
    {
        if (!obs::enabled())
            return;
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("trace.generate", spentNs);
        reg.addSpan("trace.generate", startNs, spentNs,
                    {{"workload", workload}});
    }

  private:
    uint64_t startNs;
    Workload w;
    std::unique_ptr<Executor> exec;
    uint64_t spentNs;
};

/// a generated trace's blocks lie in its slab at this stride: a
/// TraceChunk rounded up to a cache line
constexpr size_t slabStride = (sizeof(TraceChunk) + 63) & ~size_t(63);

// Unmapping the slab frees its blocks without running their
// destructors.
static_assert(std::is_trivially_destructible_v<TraceChunk>);

} // anonymous namespace

// ------------------------------------------------ MaterializedTrace

struct MaterializedTrace::DiskImage
{
    TraceImage image;
    std::vector<TraceBlockRef> index;
    Fallback fallback;
    std::once_flag fallbackOnce;
    std::shared_ptr<const MaterializedTrace> replacement;
    /// replacement.get() once the fallback has run
    std::atomic<const MaterializedTrace *> replaced{nullptr};
};

MaterializedTrace::MaterializedTrace() = default;

MaterializedTrace::~MaterializedTrace()
{
    if (slab.data())
        return;
    for (size_t i = 0; i < numBlocks; ++i)
        delete slots[i].load(std::memory_order_relaxed);
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::generate(const std::string &workload, uint64_t seed,
                            uint64_t maxRecords)
{
    auto trace = std::make_shared<MaterializedTrace>();
    Workload w = makeWorkload(workload, seed);
    auto exec = w.makeExecutor();
    // The executor fills whole chunks, so the budget bounds the block
    // count.
    const size_t maxBlocks =
        static_cast<size_t>(maxRecords / TraceChunk::capacity) + 1;
    trace->slots = std::make_unique<std::atomic<TraceChunk *>[]>(maxBlocks);
    trace->slab = Mapping(maxBlocks * slabStride);
    uint64_t remaining = maxRecords;
    while (remaining > 0 && trace->numBlocks < maxBlocks) {
        // Default-initialised, not zeroed: the executor fills it.
        TraceChunk *chunk = new (trace->slab.data() +
                                 trace->numBlocks * slabStride) TraceChunk;
        if (!exec->fill(*chunk))
            break;
        // Trim the final chunk to the requested budget so the frozen
        // stream ends exactly where a live consumer would stop.
        if (chunk->size > remaining)
            chunk->size = static_cast<uint32_t>(remaining);
        remaining -= chunk->size;
        trace->recordCount += chunk->size;
        trace->slots[trace->numBlocks++].store(chunk,
                                               std::memory_order_relaxed);
    }
    trace->decodedCount.store(trace->numBlocks,
                              std::memory_order_relaxed);
    return trace;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::fromImage(TraceImage image,
                             std::vector<TraceBlockRef> index,
                             Fallback fallback)
{
    GDIFF_ASSERT(fallback != nullptr,
                 "a disk-loaded trace needs a fallback");
    auto trace = std::make_shared<MaterializedTrace>();
    trace->numBlocks = index.size();
    trace->slots =
        std::make_unique<std::atomic<TraceChunk *>[]>(index.size());
    for (const TraceBlockRef &b : index)
        trace->recordCount += b.records;
    trace->disk = std::make_unique<DiskImage>();
    trace->disk->image = std::move(image);
    trace->disk->index = std::move(index);
    trace->disk->fallback = std::move(fallback);
    return trace;
}

const MaterializedTrace *
MaterializedTrace::replacement() const
{
    return disk ? disk->replaced.load(std::memory_order_acquire)
                : nullptr;
}

size_t
MaterializedTrace::blockCount() const
{
    if (const MaterializedTrace *r = replacement())
        return r->blockCount();
    return numBlocks;
}

uint32_t
MaterializedTrace::blockRecords(size_t i) const
{
    if (const MaterializedTrace *r = replacement())
        return r->blockRecords(i);
    if (disk)
        return disk->index[i].records;
    return slots[i].load(std::memory_order_acquire)->size;
}

const TraceChunk &
MaterializedTrace::block(size_t i) const
{
    if (const MaterializedTrace *r = replacement())
        return r->block(i);
    if (const TraceChunk *c = slots[i].load(std::memory_order_acquire))
        return *c;
    return decodeBlock(i);
}

const TraceChunk &
MaterializedTrace::decodeBlock(size_t i) const
{
    auto fresh = std::make_unique<TraceChunk>();
    TraceIoResult r =
        decodeTraceBlock(disk->image.data(), disk->index[i], *fresh);
    decodeCount.fetch_add(1, std::memory_order_relaxed);
    GDIFF_OBS_COUNT("trace_cache.block_decode", 1);
    if (r.failed())
        return fallBack(r).block(i);
    // Publish once: a thread that lost the race frees its copy and
    // reads the winner's, so every reader sees one block object.
    TraceChunk *expected = nullptr;
    if (slots[i].compare_exchange_strong(expected, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        decodedCount.fetch_add(1, std::memory_order_relaxed);
        return *fresh.release();
    }
    return *expected;
}

const TraceChunk &
MaterializedTrace::pcValue(size_t i, TraceChunk &scratch) const
{
    if (const MaterializedTrace *r = replacement())
        return r->pcValue(i, scratch);
    if (const TraceChunk *c = slots[i].load(std::memory_order_acquire))
        return *c;
    TraceIoResult r = decodeTraceBlock(disk->image.data(),
                                       disk->index[i], scratch, true);
    if (r.failed())
        return fallBack(r).pcValue(i, scratch);
    return scratch;
}

const MaterializedTrace &
MaterializedTrace::fallBack(const TraceIoResult &why) const
{
    std::call_once(disk->fallbackOnce, [&] {
        disk->replacement = disk->fallback(why);
        GDIFF_ASSERT(disk->replacement != nullptr,
                     "trace fallback returned no trace");
        disk->replaced.store(disk->replacement.get(),
                             std::memory_order_release);
    });
    return *replacement();
}

bool
MaterializedTrace::decoded(size_t i) const
{
    return slots[i].load(std::memory_order_acquire) != nullptr;
}

uint64_t
MaterializedTrace::records() const
{
    if (const MaterializedTrace *r = replacement())
        return r->records();
    return recordCount;
}

size_t
MaterializedTrace::bytes() const
{
    size_t b = decodedCount.load(std::memory_order_relaxed) *
               sizeof(TraceChunk);
    if (disk)
        b += disk->image.size;
    if (const MaterializedTrace *r = replacement())
        b += r->bytes();
    return b;
}

// ------------------------------------------------ CachedTraceSource

CachedTraceSource::CachedTraceSource(
    std::shared_ptr<const MaterializedTrace> t)
    : trace(std::move(t))
{
    GDIFF_ASSERT(trace != nullptr,
                 "CachedTraceSource needs a materialized trace");
}

bool
CachedTraceSource::fill(TraceChunk &chunk)
{
    if (cursor >= trace->blockCount()) {
        chunk.clear();
        return false;
    }
    chunk.assign(trace->block(cursor++));
    return true;
}

const TraceChunk *
CachedTraceSource::fillRef(TraceChunk &)
{
    if (cursor >= trace->blockCount())
        return nullptr;
    return &trace->block(cursor++);
}

const TraceChunk *
CachedTraceSource::fillPcValue(TraceChunk &scratch)
{
    if (cursor >= trace->blockCount())
        return nullptr;
    return &trace->pcValue(cursor++, scratch);
}

uint64_t
CachedTraceSource::skipChunks(uint64_t maxRecords)
{
    uint64_t skipped = 0;
    while (cursor < trace->blockCount() &&
           skipped + trace->blockRecords(cursor) <= maxRecords)
        skipped += trace->blockRecords(cursor++);
    return skipped;
}

void
CachedTraceSource::rewind()
{
    cursor = 0;
    resetBuffer();
}

// ------------------------------------------------------- TraceCache

TraceCache::TraceCache() : TraceCache(Config()) {}

TraceCache::TraceCache(const Config &config) : cfg(config)
{
    if (!cfg.diskRoot.empty())
        setDiskRoot(cfg.diskRoot, cfg.diskMaxBytes);
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    static std::once_flag once;
    std::call_once(once, [] {
        const char *dir = std::getenv("GDIFF_TRACE_CACHE_DIR");
        if (dir && *dir)
            cache.setDiskRoot(dir);
    });
    return cache;
}

void
TraceCache::setDiskRoot(const std::string &root, size_t maxBytes)
{
    std::shared_ptr<DiskTraceCache> tier;
    if (!root.empty()) {
        DiskTraceCache::Config dc;
        dc.root = root;
        dc.maxBytes = maxBytes;
        tier = std::make_shared<DiskTraceCache>(dc);
    }
    std::lock_guard<std::mutex> guard(lock);
    cfg.diskRoot = root;
    cfg.diskMaxBytes = maxBytes;
    disk = std::move(tier);
}

std::string
TraceCache::diskRoot() const
{
    std::lock_guard<std::mutex> guard(lock);
    return cfg.diskRoot;
}

TraceCache::Acquired
TraceCache::acquire(const std::string &workload, uint64_t seed,
                    uint64_t records)
{
    Key key{workload, seed, records};
    std::promise<std::shared_ptr<const MaterializedTrace>> promise;
    std::shared_future<std::shared_ptr<const MaterializedTrace>> fut;
    bool builder = false;

    {
        std::lock_guard<std::mutex> guard(lock);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++counters.hits;
            GDIFF_OBS_COUNT("trace_cache.hit", 1);
            if (it->second.trace) {
                // Finished entry: refresh its LRU position.
                lru.erase(it->second.lruPos);
                lru.push_back(key);
                it->second.lruPos = std::prev(lru.end());
            }
            fut = it->second.future;
        } else {
            builder = true;
            ++counters.misses;
            fut = promise.get_future().share();
            Entry e;
            e.future = fut;
            e.lruPos = lru.end();
            entries.emplace(key, std::move(e));
        }
    }

    Acquired out;
    if (builder) {
        GDIFF_OBS_COUNT("trace_cache.miss", 1);

        // A memory miss falls through to the persistent tier before
        // paying for a generation. A disk miss streams the generation
        // straight into a new entry and keeps only its verified image,
        // as a hit would.
        std::shared_ptr<DiskTraceCache> tier;
        {
            std::lock_guard<std::mutex> guard(lock);
            tier = disk;
        }
        std::shared_ptr<const MaterializedTrace> trace;
        if (tier) {
            trace = tier->load(workload, seed, records);
            out.fromDisk = (trace != nullptr);
            if (!trace) {
                TimedExecutor exec(workload, seed);
                trace = tier->store(workload, seed, records, exec);
                exec.report(workload);
                out.generated = true;
                out.generateSeconds = exec.seconds();
            }
        }
        if (!trace) {
            // No tier, or the store failed (it warned): serve an
            // in-memory trace.
            auto t0 = std::chrono::steady_clock::now();
            {
                obs::ScopedTimer obsGen("trace.generate",
                                        /*withSpan=*/true);
                obsGen.arg("workload", workload);
                trace = MaterializedTrace::generate(workload, seed,
                                                    records);
            }
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            out.generated = true;
            out.generateSeconds += dt.count();
        }
        promise.set_value(trace);

        std::lock_guard<std::mutex> guard(lock);
        if (out.generated)
            ++counters.generations;
        auto it = entries.find(key);
        if (it != entries.end()) {
            it->second.trace = trace;
            lru.push_back(key);
            it->second.lruPos = std::prev(lru.end());
            evictLocked();
        }
        out.source = std::make_unique<CachedTraceSource>(trace);
        return out;
    }

    // Another thread is (or was) the builder: wait for its trace.
    std::shared_ptr<const MaterializedTrace> trace = fut.get();
    out.source = std::make_unique<CachedTraceSource>(trace);
    return out;
}

size_t
TraceCache::residentBytesLocked() const
{
    size_t bytes = 0;
    for (const auto &[key, e] : entries)
        if (e.trace)
            bytes += e.trace->bytes();
    return bytes;
}

void
TraceCache::evictLocked()
{
    if (cfg.maxBytes == 0)
        return;
    size_t resident = residentBytesLocked();
    // Never evict the most-recent entry: a triple larger than the
    // whole cap still has to live long enough to be replayed.
    while (resident > cfg.maxBytes && lru.size() > 1) {
        Key victim = lru.front();
        lru.pop_front();
        auto it = entries.find(victim);
        GDIFF_ASSERT(it != entries.end(),
                     "trace-cache LRU points at a missing entry");
        // A trace may have grown since the sum (another reader
        // decoding a block): never wrap below zero.
        resident -= std::min(resident, it->second.trace->bytes());
        entries.erase(it);
        ++counters.evictions;
    }
}

TraceCache::Stats
TraceCache::snapshot() const
{
    std::shared_ptr<DiskTraceCache> tier;
    Stats s;
    {
        std::lock_guard<std::mutex> guard(lock);
        s = counters;
        s.residentBytes = residentBytesLocked();
        s.entries = entries.size();
        tier = disk;
    }
    if (tier) {
        DiskTraceCache::Stats d = tier->snapshot();
        s.diskEnabled = true;
        s.diskHits = d.hits;
        s.diskMisses = d.misses;
        s.diskStores = d.stores;
        s.diskEvictions = d.evictions;
        s.diskCorruptRecoveries = d.corruptRecoveries;
    }
    return s;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> guard(lock);
    entries.clear();
    lru.clear();
    counters = Stats();
}

void
TraceCache::setMaxBytes(size_t bytes)
{
    std::lock_guard<std::mutex> guard(lock);
    cfg.maxBytes = bytes;
    evictLocked();
}

} // namespace workload
} // namespace gdiff
