#include "util/mapping.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace gdiff {

namespace {

constexpr size_t hugePage = size_t(2) << 20;

size_t
roundUp(size_t v, size_t to)
{
    return (v + to - 1) / to * to;
}

size_t
pageSize()
{
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

} // anonymous namespace

Mapping::Mapping(size_t length) : bytes(roundUp(length, pageSize()))
{
    if (bytes == 0)
        return;
    // Map one huge page of slack, keep the 2 MiB-aligned stretch and
    // give back the rest.
    const bool huge = bytes >= hugePage;
    const size_t slack = huge ? hugePage : 0;
    void *map = mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) {
        bytes = 0;
        throw std::bad_alloc();
    }
    const uintptr_t start = reinterpret_cast<uintptr_t>(map);
    const uintptr_t aligned = huge ? roundUp(start, hugePage) : start;
    if (aligned > start)
        munmap(map, aligned - start);
    if (start + slack > aligned)
        munmap(reinterpret_cast<void *>(aligned + bytes),
               start + slack - aligned);
    base = reinterpret_cast<uint8_t *>(aligned);
#ifdef MADV_HUGEPAGE
    // Advice only: without transparent huge pages the mapping is
    // faulted in 4 KiB at a time.
    if (huge)
        madvise(base, bytes, MADV_HUGEPAGE);
#endif
}

Mapping::~Mapping()
{
    release();
}

Mapping::Mapping(Mapping &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      bytes(std::exchange(other.bytes, 0))
{}

Mapping &
Mapping::operator=(Mapping &&other) noexcept
{
    if (this != &other) {
        release();
        base = std::exchange(other.base, nullptr);
        bytes = std::exchange(other.bytes, 0);
    }
    return *this;
}

void
Mapping::truncate(size_t keep)
{
    const size_t kept = roundUp(keep, pageSize());
    if (kept == 0) {
        release();
        return;
    }
    if (kept >= bytes)
        return;
    munmap(base + kept, bytes - kept);
    bytes = kept;
}

void
Mapping::release()
{
    if (base)
        munmap(base, bytes);
    base = nullptr;
    bytes = 0;
}

} // namespace gdiff
