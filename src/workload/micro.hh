/**
 * @file
 * Micro-workloads: single-locality unit streams.
 *
 * Each micro kernel produces values from exactly one locality class,
 * so a predictor's behaviour can be studied in isolation (the
 * kernels in kernels/ deliberately mix classes, as real programs do).
 * Available through makeMicroWorkload() and, with a "micro." prefix,
 * through gdiffsim:
 *
 *   gdiffsim --workload=micro.affine --predictors=stride,gdiff
 *
 * | name      | stream                           | home predictor              |
 * |-----------|----------------------------------|-----------------------------|
 * | stride    | per-PC constant strides          | local stride                |
 * | periodic  | per-PC repeating stride pattern  | DFCM                        |
 * | spillfill | store/reload round trips         | gdiff (diff 0)              |
 * | affine    | pointer fields affine in address | gdiff                       |
 * | pairsum   | x = w[j] + w[k] + c              | none: Eq. 1's two-term form |
 * | random    | LCG noise                        | nobody                      |
 */

#ifndef GDIFF_WORKLOAD_MICRO_HH
#define GDIFF_WORKLOAD_MICRO_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace gdiff {
namespace workload {

/** @return the available micro-workload names. */
const std::vector<std::string> &microWorkloadNames();

/**
 * Construct a micro workload by name (without the "micro." prefix).
 * Calls fatal() on an unknown name.
 */
Workload makeMicroWorkload(const std::string &name, uint64_t seed = 1);

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_MICRO_HH
