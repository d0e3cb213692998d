#include "predictors/value_predictor.hh"

#include "util/simd.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace predictors {

uint32_t
gatherValueLanes(const workload::TraceChunk &chunk, uint32_t limit,
                 uint64_t *pcs, int64_t *values, uint32_t *records)
{
    const uint32_t n = limit < chunk.size ? limit : chunk.size;
    return simd::compactFlaggedLanes(
        chunk.flags.data(), workload::TraceChunk::flagProducesValue,
        chunk.pc.data(), chunk.value.data(), n, pcs, values, records);
}

} // namespace predictors
} // namespace gdiff
