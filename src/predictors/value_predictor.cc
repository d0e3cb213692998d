#include "predictors/value_predictor.hh"

#include "workload/trace.hh"

namespace gdiff {
namespace predictors {

uint32_t
gatherValueLanes(const workload::TraceChunk &chunk, uint32_t limit,
                 uint64_t *pcs, int64_t *values, uint32_t *records)
{
    const uint32_t n = limit < chunk.size ? limit : chunk.size;
    // Branch-free compaction: every record is written at the next
    // lane and kept only if it produces a value (the lane arrays
    // hold capacity elements, so the write past the last lane fits).
    uint32_t lanes = 0;
    for (uint32_t i = 0; i < n; ++i) {
        pcs[lanes] = chunk.pc[i];
        values[lanes] = chunk.value[i];
        records[lanes] = i;
        lanes += chunk.producesValue(i);
    }
    return lanes;
}

} // namespace predictors
} // namespace gdiff
