#include "runner/factory.hh"

#include "core/gdiff.hh"
#include "predictors/fcm.hh"
#include "predictors/gfcm.hh"
#include "predictors/hybrid.hh"
#include "predictors/last_value.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "util/logging.hh"

namespace gdiff {
namespace runner {

namespace {

using PredictorPtr = std::unique_ptr<predictors::ValuePredictor>;
using SchemePtr = std::unique_ptr<pipeline::VpScheme>;

/** A family whose one knob is its table size. */
template <typename P>
PredictorPtr
byTable(unsigned, uint64_t table)
{
    return std::make_unique<P>(table);
}

/** fcm and dfcm: per-PC level-1 histories of @p order values. */
template <typename P>
PredictorPtr
context(unsigned order, uint64_t table)
{
    predictors::FcmConfig cfg;
    cfg.level1Entries = table;
    cfg.order = order;
    return std::make_unique<P>(cfg);
}

/** gdiff, alone or behind a value queue (sgvq, hgvq): a global
 * window of @p order values. */
template <typename Base, typename T>
std::unique_ptr<Base>
window(unsigned order, uint64_t table)
{
    core::GDiffConfig cfg;
    cfg.order = order;
    cfg.tableEntries = table;
    return std::make_unique<T>(cfg);
}

template <typename F>
const F *
findRow(const std::vector<F> &rows, const std::string &name)
{
    for (const F &row : rows)
        if (name == row.name)
            return &row;
    return nullptr;
}

} // anonymous namespace

const std::vector<PredictorFamily> &
predictorFamilies()
{
    using namespace predictors;
    static const std::vector<PredictorFamily> rows = {
        {"last", 0, 0, 0, false, byTable<LastValuePredictor>},
        {"lastn", 0, 0, 0, false,
         [](unsigned, uint64_t table) -> PredictorPtr {
             return std::make_unique<LastNValuePredictor>(4, table);
         }},
        {"stride", 0, 0, 0, false, byTable<StridePredictor>},
        {"fcm", 1, fcmMaxOrder, 3, false, context<FcmPredictor>},
        {"dfcm", 1, fcmMaxOrder, 3, false, context<DfcmPredictor>},
        {"hybrid", 0, 0, 0, false, byTable<HybridLocalPredictor>},
        {"pi", 0, 0, 0, false, byTable<PiPredictor>},
        // The (PC, context) table is shared and fixed-size: part of
        // gfcm's semantics, so the table argument does not size it.
        {"gfcm", 1, gfcmMaxOrder, 4, false,
         [](unsigned order, uint64_t) -> PredictorPtr {
             GFcmConfig cfg;
             cfg.order = order;
             return std::make_unique<GFcmPredictor>(cfg);
         }},
        {"gdiff", 1, core::maxOrder, 8, true,
         window<ValuePredictor, core::GDiffPredictor>},
    };
    return rows;
}

const std::vector<SchemeFamily> &
schemeFamilies()
{
    using namespace pipeline;
    static const std::vector<SchemeFamily> rows = {
        {"baseline", 0, 0, 0, false,
         [](unsigned, uint64_t) -> SchemePtr {
             return std::make_unique<NoPrediction>();
         }},
        // The local schemes wrap the stride and dfcm rows.
        {"l_stride", 0, 0, 0, false,
         [](unsigned, uint64_t table) -> SchemePtr {
             return std::make_unique<LocalScheme>(
                 findPredictor("stride")->make(0, table), "l_stride");
         }},
        {"l_context", 0, 0, 0, false,
         [](unsigned, uint64_t table) -> SchemePtr {
             return std::make_unique<LocalScheme>(
                 findPredictor("dfcm")->make(0, table), "l_context");
         }},
        // Default 32: the paper's pipeline studies' window.
        {"sgvq", 1, core::maxOrder, 32, true, window<VpScheme, SgvqScheme>},
        {"hgvq", 1, core::maxOrder, 32, true, window<VpScheme, HgvqScheme>},
    };
    return rows;
}

const PredictorFamily *
findPredictor(const std::string &name)
{
    return findRow(predictorFamilies(), name);
}

const SchemeFamily *
findScheme(const std::string &name)
{
    return findRow(schemeFamilies(), name);
}

std::unique_ptr<predictors::ValuePredictor>
makePredictor(const std::string &name, unsigned order,
              uint64_t table_entries)
{
    const PredictorFamily *family = findPredictor(name);
    GDIFF_ASSERT(family, "unknown predictor '%s'", name.c_str());
    return family->make(family->jobOrder ? order : 0, table_entries);
}

std::unique_ptr<pipeline::VpScheme>
makeScheme(const std::string &name, unsigned order,
           uint64_t table_entries)
{
    const SchemeFamily *family = findScheme(name);
    GDIFF_ASSERT(family, "unknown scheme '%s'", name.c_str());
    return family->make(family->jobOrder ? order : 0, table_entries);
}

} // namespace runner
} // namespace gdiff
