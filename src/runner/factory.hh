/**
 * @file
 * The family table: one row per predictor family and one per
 * value-speculation scheme, each holding the family's name, order
 * range, default order and constructor. gdiffsim, the runner's grid
 * axes, gdiffd's admission (via JobSpec::validateOr), the oracle
 * checks, the disagreement miner and the batch gate all build from
 * these rows, so a name means the same configuration everywhere.
 */

#ifndef GDIFF_RUNNER_FACTORY_HH
#define GDIFF_RUNNER_FACTORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/vp_scheme.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace runner {

/** One row of the family table; T is the predictor or scheme base. */
template <typename T>
struct Family
{
    const char *name;
    /// order range; maxOrder 0 = the family takes no order
    unsigned minOrder, maxOrder;
    unsigned defaultOrder; ///< what make() builds at order 0
    /// true when JobSpec::order reaches the family; the others run
    /// at their default order in grids
    bool jobOrder;
    /// constructor at a resolved order; table 0 = unlimited
    std::unique_ptr<T> (*build)(unsigned order, uint64_t table);

    /**
     * Build at @p order (0 = defaultOrder) with @p table first-level
     * entries (0 = unlimited). The constructors assert their range:
     * check it with orderInRange() first.
     */
    std::unique_ptr<T> make(unsigned order, uint64_t table) const
    {
        return build(order ? order : defaultOrder, table);
    }

    /**
     * @return true when @p order is in range or the family takes no
     * order; else false with @p error set to
     * "<name> order N is out of range (lo..hi)".
     */
    bool orderInRange(unsigned order, std::string *error) const
    {
        if (maxOrder == 0 || (order >= minOrder && order <= maxOrder))
            return true;
        *error = std::string(name) + " order " + std::to_string(order) +
                 " is out of range (" + std::to_string(minOrder) +
                 ".." + std::to_string(maxOrder) + ")";
        return false;
    }
};

using PredictorFamily = Family<predictors::ValuePredictor>;
using SchemeFamily = Family<pipeline::VpScheme>;

/** @return the predictor rows: last, lastn, stride, fcm, dfcm,
 * hybrid, pi, gfcm, gdiff. */
const std::vector<PredictorFamily> &predictorFamilies();

/** @return the scheme rows: baseline, l_stride, l_context, sgvq,
 * hgvq. */
const std::vector<SchemeFamily> &schemeFamilies();

/** @return the predictor row named @p name, or nullptr. */
const PredictorFamily *findPredictor(const std::string &name);

/** @return the scheme row named @p name, or nullptr. */
const SchemeFamily *findScheme(const std::string &name);

/**
 * Construct a value predictor for a job.
 *
 * @param order         JobSpec::order: reaches only the rows with
 *                      jobOrder (gdiff); fcm, dfcm and gfcm run at
 *                      their default orders 3, 3 and 4.
 * @param table_entries table size; 0 = unlimited.
 * Asserts that @p name has a row: every entry point checks names
 * against the table first (JobSpec::validateOr, parseMineTarget), so
 * an unknown one here is a caller bug.
 */
std::unique_ptr<predictors::ValuePredictor>
makePredictor(const std::string &name, unsigned order,
              uint64_t table_entries);

/**
 * Construct a pipeline value-speculation scheme for a job.
 *
 * @param order         gdiff order for sgvq/hgvq (ignored by the
 *                      others).
 * @param table_entries prediction-table entries; 0 = unlimited.
 * Asserts that @p name has a row, as makePredictor() does.
 */
std::unique_ptr<pipeline::VpScheme>
makeScheme(const std::string &name, unsigned order,
           uint64_t table_entries);

} // namespace runner
} // namespace gdiff

#endif // GDIFF_RUNNER_FACTORY_HH
