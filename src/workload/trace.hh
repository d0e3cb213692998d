/**
 * @file
 * Dynamic trace records and the chunked trace-source API: the
 * interface between functional execution and everything downstream
 * (profile drivers, the timing pipeline, and the predictors).
 *
 * Records move through the system in *chunks* — structure-of-arrays
 * batches of up to TraceChunk::capacity records — so the hot consumer
 * loops stream through parallel pc/value/effAddr/flags arrays instead
 * of calling a virtual next() per instruction, and so a materialized
 * trace can be shared read-only between jobs (workload/trace_cache.hh).
 */

#ifndef GDIFF_WORKLOAD_TRACE_HH
#define GDIFF_WORKLOAD_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "isa/instruction.hh"

namespace gdiff {
namespace workload {

/**
 * One retired dynamic instruction. Carries the static instruction
 * plus everything the execution determined: the produced value, the
 * effective address, and the control-flow outcome.
 */
struct TraceRecord
{
    isa::Instruction inst;   ///< the static instruction
    uint64_t seq = 0;        ///< dynamic instruction number (0-based)
    uint64_t pc = 0;         ///< byte PC of this instruction
    uint64_t nextPc = 0;     ///< byte PC of the next instruction
    int64_t value = 0;       ///< produced value (if producesValue())
    uint64_t effAddr = 0;    ///< effective address (loads/stores)
    bool taken = false;      ///< control-flow outcome (control ops)

    /** @return true if this instruction produced a predictable value. */
    bool producesValue() const { return inst.producesValue(); }

    /** @return true for loads. */
    bool isLoad() const { return isa::isLoad(inst.op); }

    /** @return true for stores. */
    bool isStore() const { return isa::isStore(inst.op); }

    /** @return true for conditional branches. */
    bool isCondBranch() const { return isa::isCondBranch(inst.op); }

    /** @return true for any control-transfer instruction. */
    bool isControl() const { return isa::isControl(inst.op); }
};

/**
 * A batch of retired instructions in structure-of-arrays layout.
 *
 * Columns are parallel: element i of every array describes dynamic
 * instruction i of the chunk. The classification a consumer would
 * otherwise re-derive per record (produces-value, load, store,
 * control) is pre-decoded into a flags byte so the profile loops
 * reduce to a flag test plus column reads. push() derives it from a
 * record; Executor::fill() writes the columns directly and takes the
 * flags from a per-program table of deriveFlags() over the static
 * instructions, OR'd with flagTaken.
 *
 * Chunks are ~230 KiB; heap-allocate them (the consumers and the
 * TraceSource base class do) rather than placing one on the stack of
 * a deep call chain. A generated MaterializedTrace keeps all of its
 * chunks in one slab (workload/trace_cache.hh).
 */
struct TraceChunk
{
    /// records per chunk (SoA batch size)
    static constexpr uint32_t capacity = 4096;

    /// @name flag bits, pre-decoded from the instruction
    /// @{
    static constexpr uint8_t flagTaken = 1u << 0;
    static constexpr uint8_t flagProducesValue = 1u << 1;
    static constexpr uint8_t flagLoad = 1u << 2;
    static constexpr uint8_t flagStore = 1u << 3;
    static constexpr uint8_t flagCondBranch = 1u << 4;
    static constexpr uint8_t flagControl = 1u << 5;
    /// @}

    uint32_t size = 0; ///< valid records in the columns below

    std::array<isa::Instruction, capacity> inst;
    std::array<uint64_t, capacity> seq;
    std::array<uint64_t, capacity> pc;
    std::array<uint64_t, capacity> nextPc;
    std::array<int64_t, capacity> value;
    std::array<uint64_t, capacity> effAddr;
    std::array<uint8_t, capacity> flags;

    bool empty() const { return size == 0; }
    bool full() const { return size == capacity; }
    void clear() { size = 0; }

    /// @name per-record flag tests
    /// @{
    bool taken(uint32_t i) const { return flags[i] & flagTaken; }
    bool producesValue(uint32_t i) const
    {
        return flags[i] & flagProducesValue;
    }
    bool isLoad(uint32_t i) const { return flags[i] & flagLoad; }
    bool isStore(uint32_t i) const { return flags[i] & flagStore; }
    bool isCondBranch(uint32_t i) const
    {
        return flags[i] & flagCondBranch;
    }
    bool isControl(uint32_t i) const { return flags[i] & flagControl; }
    /// @}

    /** Append one record (chunk must not be full). */
    void push(const TraceRecord &r);

    /** @return record i re-assembled into the AoS form. */
    TraceRecord record(uint32_t i) const;

    /** Copy the used prefix of @p other into this chunk. */
    void assign(const TraceChunk &other);

    /**
     * Copy records [begin, begin+count) of @p other into this chunk
     * starting at record 0 (@p other must not be this chunk). The
     * sampled-simulation windows use this to keep the tail of a chunk
     * that a fast-forward boundary split.
     */
    void assignSlice(const TraceChunk &other, uint32_t begin,
                     uint32_t count);

    /** @return the flags byte push() would derive for @p r. */
    static uint8_t deriveFlags(const TraceRecord &r);
};

/**
 * Abstract producer of a dynamic instruction stream.
 *
 * The primary API is chunked: fill() hands the consumer up to
 * TraceChunk::capacity records at a time. A per-record next() remains
 * for inspection tools and tests; its default implementation drains
 * an internal chunk buffer refilled via fill().
 *
 * Implementations must override at least one of fill()/next() — each
 * default is expressed in terms of the other. Overriding both (as
 * Executor does) avoids the buffering indirection entirely.
 *
 * Implementations: workload::Executor (functional execution of a
 * synthetic kernel), TraceReader (binary trace replay),
 * CachedTraceSource (in-memory shared-trace replay), and test
 * fixtures that replay canned sequences.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next batch of dynamic instructions.
     *
     * @param chunk cleared and refilled with 1..capacity records.
     * @return false when the stream has ended (no records were added).
     */
    virtual bool fill(TraceChunk &chunk);

    /**
     * Produce the next dynamic instruction.
     *
     * @param out filled with the next record on success.
     * @return false when the stream has ended (program halted).
     */
    virtual bool next(TraceRecord &out);

    /**
     * Zero-copy variant of fill(): return a read-only view of the
     * next batch, or nullptr at end of stream. The default fills
     * @p scratch via fill() and returns &scratch; replay sources
     * that already hold frozen chunks return them directly, skipping
     * the ~230 KiB copy per batch. The returned chunk is only valid
     * until the next call on this source.
     */
    virtual const TraceChunk *fillRef(TraceChunk &scratch);

    /**
     * Like fillRef(), but only the size, pc and value columns of the
     * returned chunk need be valid. A replay source holding
     * compressed blocks decodes just those two columns; the default
     * is fillRef().
     */
    virtual const TraceChunk *fillPcValue(TraceChunk &scratch);

    /**
     * Step over whole chunks without producing them, for as long as
     * the next chunk ends within @p maxRecords records. Call it before
     * reading any record. @return records skipped. The default skips
     * nothing: its caller then reads the records it wants to drop.
     */
    virtual uint64_t skipChunks(uint64_t maxRecords);

  protected:
    /**
     * Drop any records the default next() has buffered but not yet
     * handed out. Sources that support rewinding must call this when
     * they rewind, or buffered stale records would replay first.
     */
    void resetBuffer();

  private:
    std::unique_ptr<TraceChunk> buffer; ///< lazily allocated
    uint32_t bufferPos = 0;
};

/**
 * Drops the first @p skip records of an inner source, then streams the
 * remainder unchanged — the functional fast-forward of the sampled
 * simulator (src/sample/): a measured window at stream offset S warms
 * and measures a SkipTraceSource(inner, S - warmup).
 *
 * The skip itself never simulates anything. It first steps over every
 * whole chunk it drops through the inner source's skipChunks() hook:
 * a CachedTraceSource advances its block cursor without decoding
 * anything, so fast-forwarding costs a few index reads per 4096
 * records. Only the chunk that the skip boundary splits is read, and
 * its tail is copied once into an owned chunk (inner sources may hand
 * out frozen or scratch-backed chunks that must not be mutated);
 * every following chunk is passed through zero-copy. A source without
 * the hook is drained chunk by chunk instead.
 *
 * Non-owning: @p inner must outlive this source. If the inner stream
 * is shorter than @p skip, this source is empty.
 */
class SkipTraceSource : public TraceSource
{
  public:
    SkipTraceSource(TraceSource &inner, uint64_t skip);

    bool fill(TraceChunk &chunk) override;
    const TraceChunk *fillRef(TraceChunk &scratch) override;

  private:
    /** Consume the skipped prefix (first delivery only). */
    void skipPrefix();

    TraceSource &inner;
    uint64_t toSkip;
    bool skipped = false;
    /// tail of the chunk the skip boundary split, pending delivery
    std::unique_ptr<TraceChunk> partial;
    bool partialPending = false;
    /// scratch for draining inner chunks during the skip
    std::unique_ptr<TraceChunk> skipScratch;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_HH
