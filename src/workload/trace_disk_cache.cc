#include "workload/trace_disk_cache.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <new>
#include <vector>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "workload/trace_io.hh"

namespace gdiff {
namespace workload {

namespace {

/// temp files older than this are crash litter, not live writers
constexpr time_t staleTmpSeconds = 15 * 60;

/** Create @p dir and any missing parents (mkdir -p). */
bool
makeDirs(const std::string &dir)
{
    std::string path;
    size_t pos = 0;
    while (pos <= dir.size()) {
        size_t next = dir.find('/', pos);
        if (next == std::string::npos)
            next = dir.size();
        path = dir.substr(0, next);
        pos = next + 1;
        if (path.empty())
            continue;
        if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    struct stat st{};
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool
endsWith(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n &&
           s.compare(s.size() - n, n, suffix) == 0;
}

/**
 * Read all of @p path into @p image (no file mapping: the bytes that
 * are verified at load are the bytes later decodes read, whatever
 * happens to the file). @return false when it cannot be read.
 */
bool
readWholeFile(const std::string &path, TraceImage *image)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st{};
    bool ok = ::fstat(fd, &st) == 0 && st.st_size >= 0;
    if (ok) {
        const size_t size = static_cast<size_t>(st.st_size);
        try {
            image->map = Mapping(size);
        } catch (const std::bad_alloc &) {
            ok = false;
        }
        while (ok && image->size < size) {
            ssize_t n = ::read(fd, image->map.data() + image->size,
                               size - image->size);
            if (n < 0 && errno == EINTR)
                continue;
            ok = n > 0;
            image->size += ok ? static_cast<size_t>(n) : 0;
        }
    }
    ::close(fd);
    return ok;
}

/** Rename a corrupt entry aside for post-mortem inspection. */
void
quarantineFile(const std::string &path, const TraceIoResult &why)
{
    std::string quarantine = path + ".corrupt";
    ::rename(path.c_str(), quarantine.c_str());
    warn("trace cache entry '%s' is corrupt (%s: %s); "
         "quarantined and regenerating",
         path.c_str(), traceIoStatusName(why.status),
         why.message.c_str());
}

/**
 * The disk tier's own layout rules, on top of the format's: an entry
 * holds at most the @p records its name promises, and every block
 * but the last is full, as the stores write them. A regenerated trace
 * then has the same blocks as the entry it replaces.
 */
TraceIoResult
checkEntryLayout(const std::vector<TraceBlockRef> &index,
                 uint64_t records)
{
    uint64_t total = 0;
    for (size_t i = 0; i < index.size(); ++i) {
        total += index[i].records;
        if (i + 1 < index.size() &&
            index[i].records != TraceChunk::capacity) {
            return TraceIoResult{
                TraceIoStatus::Corrupt,
                formatString("block %zu holds %u records; only the "
                             "last block may be partial",
                             i, index[i].records)};
        }
    }
    if (total > records) {
        return TraceIoResult{
            TraceIoStatus::Corrupt,
            formatString("entry holds %llu records, more than the "
                         "%llu its name promises",
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(records))};
    }
    return TraceIoResult{};
}

} // anonymous namespace

std::string
DiskTraceCache::entryName(const std::string &workload, uint64_t seed,
                          uint64_t records)
{
    std::string safe = workload;
    for (char &c : safe) {
        if (c == '/' || c == '\\' || c == ' ')
            c = '_';
    }
    return formatString("%s-s%llu-r%llu-v%u.gdtr", safe.c_str(),
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(records),
                        traceVersionV3);
}

DiskTraceCache::DiskTraceCache(Config config) : cfg(std::move(config))
{
    GDIFF_ASSERT(!cfg.root.empty(),
                 "DiskTraceCache needs a cache root directory");
}

bool
DiskTraceCache::ensureRootLocked()
{
    if (rootReady)
        return true;
    if (rootFailed)
        return false;
    if (!makeDirs(cfg.root)) {
        warn("cannot create trace cache directory '%s' (%s); "
             "persistent trace caching disabled",
             cfg.root.c_str(), std::strerror(errno));
        rootFailed = true;
        return false;
    }
    rootReady = true;
    return true;
}

std::shared_ptr<const MaterializedTrace>
DiskTraceCache::load(const std::string &workload, uint64_t seed,
                     uint64_t records)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(lock);
        if (!ensureRootLocked())
            return nullptr;
        path = cfg.root + "/" + entryName(workload, seed, records);
    }

    TraceImage image;
    if (!readWholeFile(path, &image)) {
        std::lock_guard<std::mutex> guard(lock);
        ++counters.misses;
        GDIFF_OBS_COUNT("trace_disk.miss", 1);
        return nullptr;
    }

    // Verify the whole entry once, decoding nothing: blocks decode
    // when a reader first touches them.
    std::vector<TraceBlockRef> index;
    TraceIoResult r = indexTraceImage(image.data(), image.size, &index);
    if (r.ok())
        r = checkEntryLayout(index, records);
    if (r.failed()) {
        // Report a miss so the caller regenerates (and re-stores).
        quarantineFile(path, r);
        countCorrupt(true);
        return nullptr;
    }

    // Verified hit: bump the entry's mtime so the cross-process LRU
    // sweep sees it as recently used.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    {
        std::lock_guard<std::mutex> guard(lock);
        ++counters.hits;
        GDIFF_OBS_COUNT("trace_disk.hit", 1);
    }
    // A block that fails to decode after its digests verified means
    // the digests were forged. Quarantine the entry, regenerate the
    // triple once and re-store it; the trace serves every later
    // block from the regenerated one, decoded, so recovery does not
    // rest on the decoder that just failed.
    std::weak_ptr<DiskTraceCache> self = weak_from_this();
    auto fallback = [self, path, workload, seed,
                     records](const TraceIoResult &why) {
        quarantineFile(path, why);
        std::shared_ptr<DiskTraceCache> tier = self.lock();
        if (tier)
            tier->countCorrupt(false);
        auto fresh = MaterializedTrace::generate(workload, seed, records);
        if (tier) {
            CachedTraceSource replay(fresh);
            tier->store(workload, seed, records, replay);
        }
        return fresh;
    };
    return MaterializedTrace::fromImage(std::move(image), std::move(index),
                                        std::move(fallback));
}

void
DiskTraceCache::countCorrupt(bool miss)
{
    std::lock_guard<std::mutex> guard(lock);
    if (miss) {
        ++counters.misses;
        GDIFF_OBS_COUNT("trace_disk.miss", 1);
    }
    ++counters.corruptRecoveries;
    GDIFF_OBS_COUNT("trace_disk.corrupt_recovery", 1);
}

std::shared_ptr<const MaterializedTrace>
DiskTraceCache::store(const std::string &workload, uint64_t seed,
                      uint64_t records, TraceSource &source)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(lock);
        if (!ensureRootLocked())
            return nullptr;
        path = cfg.root + "/" + entryName(workload, seed, records);
    }
    std::string tmp =
        formatString("%s.tmp.%d", path.c_str(),
                     static_cast<int>(::getpid()));

    // Encode chunk by chunk: this holds one decoded chunk, the
    // writer's ring of block copies and the image it keeps, never the
    // decoded trace. The writer encodes on its helpers while fill()
    // generates the next chunk here, writes each finished block to the
    // temp file from its image, and indexes it as it goes, so the image
    // needs no read-back and no second pass.
    TraceIoResult written;
    TraceImage image;
    std::vector<TraceBlockRef> index;
    {
        TraceWriter writer = TraceWriter::keepingImage(tmp, records);
        auto chunk = std::make_unique<TraceChunk>();
        uint64_t remaining = records;
        while (remaining > 0 && writer.status().ok() &&
               source.fill(*chunk)) {
            // Trim the final chunk to the budget, as
            // MaterializedTrace::generate() does.
            if (chunk->size > remaining)
                chunk->size = static_cast<uint32_t>(remaining);
            remaining -= chunk->size;
            writer.append(chunk); // no copy: the ring takes the chunk
        }
        written = writer.close();
        if (written.ok())
            image = writer.takeImage(&index);
    }
    if (written.ok())
        written = checkEntryLayout(index, records);
    if (written.failed()) {
        // A full disk or an unwritable temp path costs this entry,
        // never the process: the caller serves an in-memory trace.
        warn("cannot store trace cache entry '%s' (%s)", path.c_str(),
             written.message.c_str());
        ::unlink(tmp.c_str());
        return nullptr;
    }
    // Adopt the image the file holds before the rename publishes it:
    // once the entry exists, another process's sweep may delete it.
    // Bytes this process encoded and indexed must decode, so a block
    // that does not is a bug here, not a damaged entry: no fallback.
    auto trace = MaterializedTrace::fromImage(
        std::move(image), std::move(index),
        [path](const TraceIoResult &why)
            -> std::shared_ptr<const MaterializedTrace> {
            panic("trace cache entry '%s', stored by this process, does "
                  "not decode: %s",
                  path.c_str(), why.message.c_str());
        });

    // Atomic publish: concurrent writers both produce identical
    // bytes (generation is deterministic), so whichever rename lands
    // last is indistinguishable from the first.
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot publish trace cache entry '%s' (%s)",
             path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return trace;
    }

    std::lock_guard<std::mutex> guard(lock);
    ++counters.stores;
    GDIFF_OBS_COUNT("trace_disk.store", 1);
    sweepLocked(path);
    return trace;
}

void
DiskTraceCache::sweepLocked(const std::string &keep)
{
    DIR *dir = ::opendir(cfg.root.c_str());
    if (!dir)
        return;

    struct File
    {
        std::string path;
        time_t mtime;
        size_t size;
        bool corrupt; ///< quarantined entry: evicted before real ones
    };
    std::vector<File> files;
    size_t total = 0;
    time_t now = ::time(nullptr);

    while (struct dirent *de = ::readdir(dir)) {
        std::string name = de->d_name;
        if (name == "." || name == "..")
            continue;
        std::string path = cfg.root + "/" + name;
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;

        if (name.find(".tmp.") != std::string::npos) {
            // A live writer refreshes its temp file quickly; an old
            // one is litter from a crashed process.
            if (now - st.st_mtime > staleTmpSeconds)
                ::unlink(path.c_str());
            continue;
        }
        bool corrupt = endsWith(name, ".corrupt");
        if (!corrupt && !endsWith(name, ".gdtr"))
            continue;
        files.push_back(File{path, st.st_mtime,
                             static_cast<size_t>(st.st_size),
                             corrupt});
        total += static_cast<size_t>(st.st_size);
    }
    ::closedir(dir);

    if (cfg.maxBytes == 0 || total <= cfg.maxBytes)
        return;

    // Quarantined files go first, then oldest entries.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  if (a.corrupt != b.corrupt)
                      return a.corrupt;
                  return a.mtime < b.mtime;
              });
    for (const File &f : files) {
        if (total <= cfg.maxBytes)
            break;
        if (f.path == keep)
            continue;
        if (::unlink(f.path.c_str()) != 0)
            continue;
        total -= std::min(total, f.size);
        if (!f.corrupt) {
            ++counters.evictions;
            GDIFF_OBS_COUNT("trace_disk.evict", 1);
        }
    }
}

DiskTraceCache::Stats
DiskTraceCache::snapshot() const
{
    std::lock_guard<std::mutex> guard(lock);
    return counters;
}

void
DiskTraceCache::setMaxBytes(size_t bytes)
{
    std::lock_guard<std::mutex> guard(lock);
    cfg.maxBytes = bytes;
    if (rootReady)
        sweepLocked(std::string());
}

} // namespace workload
} // namespace gdiff
