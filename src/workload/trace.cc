#include "workload/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gdiff {
namespace workload {

// ------------------------------------------------------- TraceChunk

uint8_t
TraceChunk::deriveFlags(const TraceRecord &r)
{
    uint8_t f = 0;
    if (r.taken)
        f |= flagTaken;
    if (r.producesValue())
        f |= flagProducesValue;
    if (r.isLoad())
        f |= flagLoad;
    if (r.isStore())
        f |= flagStore;
    if (r.isCondBranch())
        f |= flagCondBranch;
    if (r.isControl())
        f |= flagControl;
    return f;
}

void
TraceChunk::push(const TraceRecord &r)
{
    GDIFF_ASSERT(size < capacity, "push into a full TraceChunk");
    uint32_t i = size++;
    inst[i] = r.inst;
    seq[i] = r.seq;
    pc[i] = r.pc;
    nextPc[i] = r.nextPc;
    value[i] = r.value;
    effAddr[i] = r.effAddr;
    flags[i] = deriveFlags(r);
}

TraceRecord
TraceChunk::record(uint32_t i) const
{
    GDIFF_ASSERT(i < size, "TraceChunk record index out of range");
    TraceRecord r;
    r.inst = inst[i];
    r.seq = seq[i];
    r.pc = pc[i];
    r.nextPc = nextPc[i];
    r.value = value[i];
    r.effAddr = effAddr[i];
    r.taken = (flags[i] & flagTaken) != 0;
    return r;
}

void
TraceChunk::assign(const TraceChunk &other)
{
    size = other.size;
    std::copy_n(other.inst.begin(), size, inst.begin());
    std::copy_n(other.seq.begin(), size, seq.begin());
    std::copy_n(other.pc.begin(), size, pc.begin());
    std::copy_n(other.nextPc.begin(), size, nextPc.begin());
    std::copy_n(other.value.begin(), size, value.begin());
    std::copy_n(other.effAddr.begin(), size, effAddr.begin());
    std::copy_n(other.flags.begin(), size, flags.begin());
}

void
TraceChunk::assignSlice(const TraceChunk &other, uint32_t begin,
                        uint32_t count)
{
    GDIFF_ASSERT(this != &other, "assignSlice from self");
    GDIFF_ASSERT(begin + count <= other.size,
                 "assignSlice [%u, %u) outside chunk of %u records",
                 begin, begin + count, other.size);
    size = count;
    std::copy_n(other.inst.begin() + begin, count, inst.begin());
    std::copy_n(other.seq.begin() + begin, count, seq.begin());
    std::copy_n(other.pc.begin() + begin, count, pc.begin());
    std::copy_n(other.nextPc.begin() + begin, count, nextPc.begin());
    std::copy_n(other.value.begin() + begin, count, value.begin());
    std::copy_n(other.effAddr.begin() + begin, count, effAddr.begin());
    std::copy_n(other.flags.begin() + begin, count, flags.begin());
}

// ------------------------------------------------------ TraceSource

bool
TraceSource::fill(TraceChunk &chunk)
{
    // Default: pump the per-record API. Sources that can produce
    // whole batches (Executor, the replay sources) override this.
    chunk.clear();
    TraceRecord r;
    while (!chunk.full() && next(r))
        chunk.push(r);
    return !chunk.empty();
}

bool
TraceSource::next(TraceRecord &out)
{
    // Default: drain an internal chunk refilled via fill().
    if (!buffer || bufferPos >= buffer->size) {
        if (!buffer)
            buffer = std::make_unique<TraceChunk>();
        bufferPos = 0;
        if (!fill(*buffer))
            return false;
    }
    out = buffer->record(bufferPos++);
    return true;
}

const TraceChunk *
TraceSource::fillRef(TraceChunk &scratch)
{
    return fill(scratch) ? &scratch : nullptr;
}

const TraceChunk *
TraceSource::fillPcValue(TraceChunk &scratch)
{
    return fillRef(scratch);
}

uint64_t
TraceSource::skipChunks(uint64_t)
{
    return 0;
}

void
TraceSource::resetBuffer()
{
    if (buffer)
        buffer->clear();
    bufferPos = 0;
}

// -------------------------------------------------- SkipTraceSource

SkipTraceSource::SkipTraceSource(TraceSource &inner, uint64_t skip)
    : inner(inner), toSkip(skip)
{}

void
SkipTraceSource::skipPrefix()
{
    skipped = true;
    toSkip -= inner.skipChunks(toSkip);
    if (toSkip == 0)
        return;
    if (!skipScratch)
        skipScratch = std::make_unique<TraceChunk>();
    while (toSkip > 0) {
        const TraceChunk *c = inner.fillRef(*skipScratch);
        if (!c) {
            // Stream shorter than the skip: nothing left to deliver.
            toSkip = 0;
            return;
        }
        if (c->size <= toSkip) {
            toSkip -= c->size;
            continue;
        }
        // Boundary mid-chunk: keep the tail. The inner chunk may be
        // frozen (cache replay), so the slice goes into an owned copy.
        uint32_t keepFrom = static_cast<uint32_t>(toSkip);
        if (!partial)
            partial = std::make_unique<TraceChunk>();
        partial->assignSlice(*c, keepFrom, c->size - keepFrom);
        partialPending = true;
        toSkip = 0;
    }
}

bool
SkipTraceSource::fill(TraceChunk &chunk)
{
    if (!skipped)
        skipPrefix();
    if (partialPending) {
        partialPending = false;
        chunk.assign(*partial);
        return !chunk.empty();
    }
    return inner.fill(chunk);
}

const TraceChunk *
SkipTraceSource::fillRef(TraceChunk &scratch)
{
    if (!skipped)
        skipPrefix();
    if (partialPending) {
        partialPending = false;
        return partial.get();
    }
    return inner.fillRef(scratch);
}

} // namespace workload
} // namespace gdiff
