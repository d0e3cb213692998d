#include "workload/trace_disk_cache.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <dirent.h>
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

/** A read-only mmap of a whole file; empty data() on failure. */
struct MappedFile
{
    const uint8_t *bytes = nullptr;
    size_t size = 0;

    explicit MappedFile(const std::string &path)
    {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return;
        struct stat st{};
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            return;
        }
        size = static_cast<size_t>(st.st_size);
        if (size > 0) {
            void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE,
                             fd, 0);
            if (m == MAP_FAILED) {
                size = 0;
            } else {
                bytes = static_cast<const uint8_t *>(m);
            }
        }
        ::close(fd);
    }

    ~MappedFile()
    {
        if (bytes)
            ::munmap(const_cast<uint8_t *>(bytes), size);
    }

    bool ok() const { return bytes != nullptr; }
};

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

    MappedFile map(path);
    if (!map.ok()) {
        std::lock_guard<std::mutex> guard(lock);
        ++counters.misses;
        GDIFF_OBS_COUNT("trace_disk.miss", 1);
        return nullptr;
    }

    // Decode the whole entry; read() verifies the per-block digests
    // and the trailing whole-file digest before End is reported.
    TraceReader reader;
    TraceIoResult r = reader.open(map.bytes, map.size);
    std::vector<std::unique_ptr<TraceChunk>> chunks;
    while (r.ok()) {
        auto chunk = std::make_unique<TraceChunk>();
        r = reader.read(*chunk);
        if (r.ok())
            chunks.push_back(std::move(chunk));
    }

    if (r.failed()) {
        // Quarantine for post-mortem inspection and report a miss so
        // the caller regenerates (and re-stores) the entry.
        std::string quarantine = path + ".corrupt";
        ::rename(path.c_str(), quarantine.c_str());
        warn("trace cache entry '%s' is corrupt (%s: %s); "
             "quarantined and regenerating",
             path.c_str(), traceIoStatusName(r.status),
             r.message.c_str());
        std::lock_guard<std::mutex> guard(lock);
        ++counters.misses;
        ++counters.corruptRecoveries;
        GDIFF_OBS_COUNT("trace_disk.miss", 1);
        GDIFF_OBS_COUNT("trace_disk.corrupt_recovery", 1);
        return nullptr;
    }

    // Verified hit: bump the entry's mtime so the cross-process LRU
    // sweep sees it as recently used.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);

    std::lock_guard<std::mutex> guard(lock);
    ++counters.hits;
    GDIFF_OBS_COUNT("trace_disk.hit", 1);
    return MaterializedTrace::fromChunks(std::move(chunks));
}

void
DiskTraceCache::store(const std::string &workload, uint64_t seed,
                      uint64_t records, const MaterializedTrace &trace)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(lock);
        if (!ensureRootLocked())
            return;
        path = cfg.root + "/" + entryName(workload, seed, records);
    }
    std::string tmp =
        formatString("%s.tmp.%d", path.c_str(),
                     static_cast<int>(::getpid()));

    TraceWriter writer(tmp, traceVersionV3);
    for (const auto &chunk : trace.chunks())
        writer.append(*chunk);
    TraceIoResult written = writer.close();
    if (written.failed()) {
        // A full disk or an unwritable temp path costs this entry,
        // never the process: the caller keeps its in-memory trace.
        warn("cannot store trace cache entry '%s' (%s)", path.c_str(),
             written.message.c_str());
        ::unlink(tmp.c_str());
        return;
    }

    // Atomic publish: concurrent writers both produce identical
    // bytes (generation is deterministic), so whichever rename lands
    // last is indistinguishable from the first.
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot publish trace cache entry '%s' (%s)",
             path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return;
    }

    std::lock_guard<std::mutex> guard(lock);
    ++counters.stores;
    GDIFF_OBS_COUNT("trace_disk.store", 1);
    sweepLocked(path);
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
