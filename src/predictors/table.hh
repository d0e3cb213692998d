/**
 * @file
 * PC-indexed prediction-table storage shared by the predictors.
 *
 * Two modes, selected by the entry count:
 *  - entries == 0: "unlimited" — one entry per static PC, used for the
 *    paper's idealised profile experiments, the confidence tables and
 *    the pipeline's per-PC in-flight counts. A flat open-addressing
 *    map: power-of-two slots probed linearly from mix64(pc), grown
 *    at half load. Slots hold only the key and a pointer; the
 *    entries themselves live densely in a std::deque, whose elements
 *    never move, so a large Entry (gdiff's is 528 bytes) is not
 *    multiplied by empty slots and a reference stays valid for the
 *    table's lifetime;
 *  - entries == 2^k: a tagless direct-mapped table indexed by PC bits,
 *    the hardware-realistic mode. Aliasing is tracked (paper Fig. 9)
 *    by remembering the last PC that touched each entry.
 */

#ifndef GDIFF_PREDICTORS_TABLE_HH
#define GDIFF_PREDICTORS_TABLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace predictors {

/**
 * PC-indexed table of Entry.
 *
 * @tparam Entry default-constructible per-PC predictor state.
 */
template <typename Entry>
class PcIndexedTable
{
  public:
    /**
     * @param entries 0 for unlimited, otherwise a power of two.
     * @param hash_index when true, limited tables index with a mixed
     *        hash of the PC instead of its low bits.
     */
    explicit PcIndexedTable(size_t entries = 0, bool hash_index = false)
        : limit(entries), hashIndex(hash_index)
    {
        if (limit != 0) {
            GDIFF_ASSERT(isPowerOfTwo(limit),
                         "table size %zu is not a power of two", limit);
            table.resize(limit);
            owners.assign(limit, 0);
        } else {
            slots.resize(initialSlots);
        }
    }

    /**
     * Locate the entry for @p pc (allocating in unlimited mode).
     * In limited mode, notes whether a different PC owned the entry
     * (an aliasing conflict) and takes ownership.
     *
     * @return reference to the entry, valid for the table's lifetime
     * in both modes (a later lookup of an aliasing PC in limited mode
     * reuses the same entry).
     */
    Entry &
    lookup(uint64_t pc)
    {
        ++lookupCount;
        if (limit == 0)
            return findOrInsert(pc);
        size_t idx = indexOf(pc);
        if (owners[idx] != 0 && owners[idx] != pc)
            ++conflictCount;
        owners[idx] = pc;
        return table[idx];
    }

    /**
     * lookup() for a run of lanes: out[i] = &lookup(pcs[i]) for i in
     * [0, n), in order, with the same allocation and conflict
     * accounting. Batch loops resolve a tile of entries up front
     * with it; the pointers stay valid for the table's lifetime.
     */
    void
    lookupLanes(const uint64_t *pcs, size_t n, Entry **out)
    {
        if (limit == 0) {
            for (size_t i = 0; i < n; ++i)
                out[i] = &findOrInsert(pcs[i]);
            lookupCount += n;
            return;
        }
        Entry *const base = table.data();
        uint64_t *const own = owners.data();
        uint64_t conflicts = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t pc = pcs[i];
            const size_t idx = indexOf(pc);
            conflicts += own[idx] != 0 && own[idx] != pc;
            own[idx] = pc;
            out[i] = base + idx;
        }
        conflictCount += conflicts;
        lookupCount += n;
    }

    /**
     * Read-only probe: does not allocate, does not take ownership,
     * does not count conflicts. @return nullptr if absent (unlimited
     * mode only; limited tables always have an entry).
     */
    const Entry *
    probe(uint64_t pc) const
    {
        if (limit == 0)
            return slots[slotOf(pc)].entry;
        return &table[indexOf(pc)];
    }

    /**
     * Prefetch hint for the slot @p pc maps to — batch loops issue
     * this a tile ahead of lookup(). No-op in unlimited mode.
     */
    void
    prefetch(uint64_t pc) const
    {
        if (limit != 0) {
            size_t idx = indexOf(pc);
            // lookup() touches two random-indexed lines per PC: the
            // entry itself and the ownership word it read-modify-
            // writes. Warm both.
            __builtin_prefetch(&table[idx], 1);
            __builtin_prefetch(&owners[idx], 1);
        }
    }

    /** @return configured entry count (0 = unlimited). */
    size_t entries() const { return limit; }

    /** @return number of lookups that hit a different PC's entry. */
    uint64_t conflicts() const { return conflictCount; }

    /** @return total lookups. */
    uint64_t lookups() const { return lookupCount; }

    /** @return conflicts/lookups in [0,1]. */
    double
    conflictRate() const
    {
        return lookupCount == 0
                   ? 0.0
                   : static_cast<double>(conflictCount) /
                         static_cast<double>(lookupCount);
    }

  private:
    /** One open-addressing slot; a null entry marks it empty. */
    struct Slot
    {
        uint64_t pc = 0;
        Entry *entry = nullptr;
    };

    static constexpr size_t initialSlots = 16; ///< power of two

    size_t
    indexOf(uint64_t pc) const
    {
        uint64_t key = pc >> 2; // instruction alignment
        if (hashIndex)
            key = mix64(key);
        return static_cast<size_t>(key & (limit - 1));
    }

    /** @return the slot holding @p pc, or the empty slot that ends its
     * probe sequence. */
    size_t
    slotOf(uint64_t pc) const
    {
        const size_t mask = slots.size() - 1;
        size_t i = static_cast<size_t>(mix64(pc)) & mask;
        while (slots[i].entry && slots[i].pc != pc)
            i = (i + 1) & mask;
        return i;
    }

    /** Unlimited-mode lookup: the entry for @p pc, value-initialised
     * on first use. */
    Entry &
    findOrInsert(uint64_t pc)
    {
        size_t i = slotOf(pc);
        if (slots[i].entry)
            return *slots[i].entry;
        return insertAt(pc, i);
    }

    /**
     * The miss path of findOrInsert(), kept out of line: lookup() is
     * inlined into every predictor's hot loop, most of which run
     * limited tables, and an inlined rehash there costs them
     * registers on every lane.
     */
    __attribute__((noinline)) Entry &
    insertAt(uint64_t pc, size_t i)
    {
        if (2 * (dense.size() + 1) > slots.size()) {
            rehash(2 * slots.size());
            i = slotOf(pc);
        }
        Entry &e = dense.emplace_back();
        slots[i] = Slot{pc, &e};
        return e;
    }

    /** Re-seat every occupied slot into @p n slots (entries stay). */
    void
    rehash(size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots);
        for (const Slot &s : old) {
            if (s.entry)
                slots[slotOf(s.pc)] = s;
        }
    }

    size_t limit;
    bool hashIndex;
    std::vector<Entry> table;
    std::vector<uint64_t> owners;
    std::vector<Slot> slots; ///< unlimited mode: the probe array
    std::deque<Entry> dense; ///< unlimited mode: the entries
    uint64_t conflictCount = 0;
    uint64_t lookupCount = 0;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_TABLE_HH
