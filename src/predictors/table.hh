/**
 * @file
 * PC-indexed prediction-table storage shared by the predictors.
 *
 * Two modes, selected by the entry count:
 *  - entries == 0: "unlimited" — one entry per static PC, used for the
 *    paper's idealised profile experiments, the confidence tables and
 *    the pipeline's per-PC in-flight counts. The entries live densely
 *    in a std::deque, whose elements never move, so a large Entry
 *    (gdiff's is 528 bytes) is not multiplied by empty slots and a
 *    reference stays valid for the table's lifetime. Two paths find
 *    a PC's entry:
 *     - the direct window: every PC a workload executes is
 *       isa::indexToPc(i) of a small text segment, so an aligned PC
 *       whose instruction slot isa::pcToIndex(pc) is below
 *       directSlots resolves through a pointer array indexed by that
 *       slot. The array grows on demand to the highest slot seen.
 *       This is the hot path: one compare and two loads, where a
 *       hashed probe costs a mix64, a probe loop and a key compare
 *       on the loop-carried lookup → read-modify-write chain of
 *       every batch loop;
 *     - every other PC (synthetic streams, tests, 0, ~0, misaligned
 *       or far-out keys) goes to a flat open-addressing map:
 *       power-of-two slots probed linearly from mix64(pc), grown at
 *       half load, holding only the key and a pointer;
 *  - entries == 2^k: a tagless direct-mapped table indexed by PC bits,
 *    the hardware-realistic mode. An entry holds predictor state only:
 *    PCs with equal index bits share it, and nothing records which PC
 *    touched it last. bench/fig09_aliasing measures that aliasing (paper
 *    Fig. 9) on its own: a predictor beside gdiff in the same profile
 *    run keeps a table of owner PCs of gdiff's size, and counts an
 *    update whose entry a different PC trained last.
 */

#ifndef GDIFF_PREDICTORS_TABLE_HH
#define GDIFF_PREDICTORS_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "isa/instruction.hh"
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
     * Instruction slots the unlimited mode's direct window covers: a
     * text segment of up to 64K instructions (the kernels use a few
     * hundred), so the pointer array never exceeds 512 KiB.
     */
    static constexpr uint64_t directSlots = uint64_t(1) << 16;

    /** @param entries 0 for unlimited, otherwise a power of two. */
    explicit PcIndexedTable(size_t entries = 0) : limit(entries)
    {
        if (limit != 0) {
            GDIFF_ASSERT(isPowerOfTwo(limit),
                         "table size %zu is not a power of two", limit);
            table.resize(limit);
        } else {
            slots.resize(initialSlots);
        }
    }

    /**
     * Locate the entry for @p pc (allocating in unlimited mode).
     *
     * @return reference to the entry, valid for the table's lifetime
     * in both modes (a later lookup of an aliasing PC in limited mode
     * reuses the same entry).
     */
    Entry &
    lookup(uint64_t pc)
    {
        if (limit == 0)
            return findOrInsert(pc);
        return table[indexOf(pc)];
    }

    /**
     * lookup() for a run of lanes: out[i] = &lookup(pcs[i]) for i in
     * [0, n), in order, with the same allocation. Batch loops resolve
     * a tile of entries up front with it; the pointers stay valid for
     * the table's lifetime.
     */
    void
    lookupLanes(const uint64_t *pcs, size_t n, Entry **out)
    {
        if (limit == 0) {
            // findOrInsert() per lane, with the direct window's base
            // and size held in registers: only the out-of-line path
            // can move them.
            Entry *const *dir = direct.data();
            uint64_t dirSize = direct.size();
            for (size_t i = 0; i < n; ++i) {
                const uint64_t slot = directSlot(pcs[i]);
                Entry *e = slot < dirSize ? dir[slot] : nullptr;
                if (!e) [[unlikely]] {
                    e = &findOrInsertSlow(pcs[i], slot);
                    dir = direct.data();
                    dirSize = direct.size();
                }
                out[i] = e;
            }
            return;
        }
        Entry *const base = table.data();
        for (size_t i = 0; i < n; ++i)
            out[i] = base + indexOf(pcs[i]);
    }

    /**
     * Read-only probe: does not allocate. @return nullptr if absent
     * (unlimited mode only; limited tables always have an entry).
     */
    const Entry *
    probe(uint64_t pc) const
    {
        if (limit != 0)
            return &table[indexOf(pc)];
        const uint64_t slot = directSlot(pc);
        if (slot < directSlots)
            return slot < direct.size() ? direct[slot] : nullptr;
        return slots[slotOf(pc)].entry;
    }

    /** @return configured entry count (0 = unlimited). */
    size_t entries() const { return limit; }

    /** @return unlimited-mode entries held in the map, i.e. for PCs
     * outside the direct window. */
    size_t mapEntries() const { return mapped; }

  private:
    /** One open-addressing slot; a null entry marks it empty. */
    struct Slot
    {
        uint64_t pc = 0;
        Entry *entry = nullptr;
    };

    static constexpr size_t initialSlots = 16; ///< power of two

    /**
     * @return the direct-window slot of @p pc: isa::pcToIndex(pc) for
     * an aligned text-segment PC. The rotation moves a misaligned
     * PC's low bits to the top, and a PC below textBase wraps, so
     * both land far past directSlots: one compare filters them.
     */
    static uint64_t
    directSlot(uint64_t pc)
    {
        static_assert(isa::instBytes == 4);
        return std::rotr(pc - isa::textBase, 2);
    }

    size_t
    indexOf(uint64_t pc) const
    {
        // instruction alignment
        return static_cast<size_t>((pc >> 2) & (limit - 1));
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
     * on first use. Inlined, the direct window's hit is all that
     * runs on a text-segment lane. */
    Entry &
    findOrInsert(uint64_t pc)
    {
        const uint64_t slot = directSlot(pc);
        if (slot < direct.size()) {
            if (Entry *e = direct[slot])
                return *e;
        }
        return findOrInsertSlow(pc, slot);
    }

    /**
     * Everything findOrInsert() does past a direct-window hit, kept
     * out of line: lookup() is inlined into every predictor's hot
     * loop, and an inlined array growth or rehash there costs those
     * loops registers on every lane.
     */
    __attribute__((noinline)) Entry &
    findOrInsertSlow(uint64_t pc, uint64_t slot)
    {
        if (slot < directSlots) {
            if (slot >= direct.size()) {
                direct.resize(std::min<uint64_t>(
                    directSlots,
                    std::max<uint64_t>(slot + 1, 2 * direct.size())));
            }
            Entry &e = dense.emplace_back();
            direct[slot] = &e;
            return e;
        }
        size_t i = slotOf(pc);
        if (slots[i].entry)
            return *slots[i].entry;
        if (2 * (mapped + 1) > slots.size()) {
            rehash(2 * slots.size());
            i = slotOf(pc);
        }
        Entry &e = dense.emplace_back();
        slots[i] = Slot{pc, &e};
        ++mapped;
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
    std::vector<Entry> table;
    std::vector<Entry *> direct; ///< unlimited: text slot -> entry
    std::vector<Slot> slots; ///< unlimited mode: the map's probe array
    size_t mapped = 0;       ///< unlimited mode: entries in the map
    std::deque<Entry> dense; ///< unlimited mode: the entries
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_TABLE_HH
