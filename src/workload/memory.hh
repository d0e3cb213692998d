/**
 * @file
 * Sparse, paged functional memory for the synthetic-ISA executor.
 */

#ifndef GDIFF_WORKLOAD_MEMORY_HH
#define GDIFF_WORKLOAD_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "util/logging.hh"

namespace gdiff {
namespace workload {

/**
 * A sparse 64-bit address space of 64-bit words, allocated in 4 KiB
 * pages on first touch. Unwritten memory reads as zero, matching how
 * the kernels' data segments are initialised explicitly before a run.
 *
 * The kernels touch one page many times in a row, so the last page
 * found sits in a one-entry cache in front of the page map: a hit is
 * one compare. A read of an absent page returns 0 and neither
 * allocates nor caches anything.
 *
 * All accesses are 8-byte words and must be 8-byte aligned; the
 * workload kernels never do sub-word accesses (sub-word behaviour is
 * irrelevant to the value streams under study).
 */
class Memory
{
  public:
    Memory() = default;

    // The cache points into the page map.
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Read the 64-bit word at an 8-byte-aligned byte address.
     * @param addr byte address (must be 8-byte aligned).
     */
    int64_t
    read64(uint64_t addr) const
    {
        GDIFF_ASSERT((addr & 7) == 0, "unaligned read at 0x%llx",
                     static_cast<unsigned long long>(addr));
        const Page *page = (addr >> pageShift) == cachedPageNo
                               ? cachedPage
                               : findPage(addr >> pageShift);
        return page ? (*page)[wordOf(addr)] : 0;
    }

    /**
     * Write the 64-bit word at an 8-byte-aligned byte address.
     * @param addr byte address (must be 8-byte aligned).
     * @param value word to store.
     */
    void
    write64(uint64_t addr, int64_t value)
    {
        GDIFF_ASSERT((addr & 7) == 0, "unaligned write at 0x%llx",
                     static_cast<unsigned long long>(addr));
        Page *page = (addr >> pageShift) == cachedPageNo
                         ? cachedPage
                         : touchPage(addr >> pageShift);
        (*page)[wordOf(addr)] = value;
    }

    /** @return the number of currently allocated 4 KiB pages. */
    size_t allocatedPages() const { return pages.size(); }

    /** Drop all contents. */
    void
    clear()
    {
        pages.clear();
        cachedPageNo = noPage;
        cachedPage = nullptr;
    }

  private:
    static constexpr uint64_t pageShift = 12;
    static constexpr uint64_t pageBytes = uint64_t(1) << pageShift;
    static constexpr uint64_t wordsPerPage = pageBytes / 8;
    /// no page number: addresses shifted right by pageShift never are
    static constexpr uint64_t noPage = ~uint64_t(0);

    using Page = std::array<int64_t, wordsPerPage>;

    static uint64_t
    wordOf(uint64_t addr)
    {
        return (addr & (pageBytes - 1)) >> 3;
    }

    /** @return page @p pageNo, cached, or null if it is absent. */
    Page *findPage(uint64_t pageNo) const;

    /** @return page @p pageNo, cached, allocated if it is absent. */
    Page *touchPage(uint64_t pageNo);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages;
    /// the last page found, and its number
    mutable uint64_t cachedPageNo = noPage;
    mutable Page *cachedPage = nullptr;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_MEMORY_HH
