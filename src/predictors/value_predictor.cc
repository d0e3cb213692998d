#include "predictors/value_predictor.hh"

#include "workload/trace.hh"

namespace gdiff {
namespace predictors {

uint32_t
gatherValueLanes(const workload::TraceChunk &chunk, uint32_t limit,
                 uint64_t *pcs, int64_t *values, uint32_t *records)
{
    const uint32_t n = limit < chunk.size ? limit : chunk.size;
    uint32_t lanes = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (!chunk.producesValue(i))
            continue;
        pcs[lanes] = chunk.pc[i];
        values[lanes] = chunk.value[i];
        records[lanes] = i;
        ++lanes;
    }
    return lanes;
}

} // namespace predictors
} // namespace gdiff
