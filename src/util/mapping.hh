/**
 * @file
 * One private anonymous memory mapping, for a large buffer whose size
 * is known only as an upper bound when it is made: a generated trace's
 * block slab, or a v3 trace image while it is written.
 *
 * The whole length is reserved as address space (MAP_NORESERVE), and
 * a page is backed only when it is first written, so a buffer reserved
 * for the worst case costs the memory it uses. truncate() gives the
 * unused tail back. A mapping of 2 MiB or more is 2 MiB aligned and
 * advised into transparent huge pages, so writing it faults its memory
 * in 2 MiB at a time rather than 4 KiB; a smaller one is not, so a
 * short buffer holds no huge page. Its length is not rounded up to a
 * huge page either: the kernel backs only whole aligned 2 MiB
 * stretches with huge pages, so the tail past the last one faults in
 * 4 KiB pages and the unused end stays unbacked.
 */

#ifndef GDIFF_UTIL_MAPPING_HH
#define GDIFF_UTIL_MAPPING_HH

#include <cstddef>
#include <cstdint>

namespace gdiff {

/** An owned anonymous mapping (move-only). */
class Mapping
{
  public:
    Mapping() = default;

    /**
     * Reserve @p bytes, rounded up to whole pages; no page is backed
     * until it is written. Zero bytes maps nothing.
     * @throw std::bad_alloc when the address space cannot be mapped.
     */
    explicit Mapping(size_t bytes);

    ~Mapping();

    Mapping(Mapping &&other) noexcept;
    Mapping &operator=(Mapping &&other) noexcept;

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    /** @return the first byte, or nullptr when nothing is mapped. */
    uint8_t *data() const { return base; }

    /** @return the bytes mapped, a whole number of pages. */
    size_t size() const { return bytes; }

    /** Unmap the whole pages past the first @p keep bytes. */
    void truncate(size_t keep);

  private:
    /** Unmap everything; leaves the mapping empty. */
    void release();

    uint8_t *base = nullptr;
    size_t bytes = 0;
};

} // namespace gdiff

#endif // GDIFF_UTIL_MAPPING_HH
