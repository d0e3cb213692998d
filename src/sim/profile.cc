#include "sim/profile.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gdiff {
namespace sim {

namespace {

/**
 * First measured record index of a chunk: record j (0-based) is past
 * warmup iff executedBefore + j + 1 > warmup, i.e. j >= mstart.
 */
uint64_t
measuredStart(uint64_t executedBefore, uint64_t warmup)
{
    return warmup > executedBefore ? warmup - executedBefore : 0;
}

/**
 * First *lane* at or past the measured boundary: lanes carry their
 * chunk record index in ascending order.
 */
uint32_t
measuredLane(const uint32_t *records, uint32_t lanes, uint64_t mstart)
{
    if (mstart == 0)
        return 0;
    const uint32_t *it = std::lower_bound(
        records, records + lanes, static_cast<uint32_t>(mstart));
    return static_cast<uint32_t>(it - records);
}

/**
 * A runner's chunk-loop stage clock: each lap() charges the time
 * since the previous mark to one stage, so the stages tile the loop.
 * publish() makes the one registry call per stage.
 */
struct StageTimes
{
    uint64_t fillNs = 0, gatherNs = 0, predictNs = 0, confidenceNs = 0;
    uint64_t chunks = 0;
    uint64_t mark = 0;

    void
    start()
    {
        mark = obs::nowNs();
        ++chunks;
    }

    /** Charge the time since the last mark to @p stage. @return it. */
    uint64_t
    lap(uint64_t &stage)
    {
        const uint64_t t = obs::nowNs();
        const uint64_t dt = t - mark;
        stage += dt;
        mark = t;
        return dt;
    }

    void
    publish() const
    {
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("profile.fill", fillNs, chunks);
        reg.addTimer("profile.gather", gatherNs, chunks);
        reg.addTimer("profile.predict", predictNs, chunks);
        reg.addTimer("profile.confidence", confidenceNs, chunks);
    }
};

} // anonymous namespace

void
ProfileConfig::validate() const
{
    if (maxInstructions == 0) {
        fatal("profile run length is 0 instructions: nothing would "
              "be measured");
    }
    if (!allowLongWarmup && warmupInstructions >= maxInstructions) {
        fatal("profile warmup (%llu) must be smaller than the "
              "measured instruction budget (%llu)",
              static_cast<unsigned long long>(warmupInstructions),
              static_cast<unsigned long long>(maxInstructions));
    }
}

// ------------------------------------------------- ValueProfileRunner

ValueProfileRunner::ValueProfileRunner(const ProfileConfig &config)
    : cfg(config)
{
    cfg.validate();
}

void
ValueProfileRunner::addPredictor(predictors::ValuePredictor &p)
{
    preds.push_back(&p);
    conf.emplace_back(cfg.confidence);
    ProfileSeries s;
    s.name = p.name();
    series.push_back(std::move(s));
}

void
ValueProfileRunner::run(workload::TraceSource &src)
{
    GDIFF_ASSERT(!preds.empty(), "no predictors registered");
    uint64_t executed = 0;
    uint64_t budget = cfg.warmupInstructions + cfg.maxInstructions;
    auto scratch = std::make_unique<workload::TraceChunk>();
    // Chunk-granularity stage split: fill (trace delivery, which is
    // functional generation on a cache miss and a cursor walk on a
    // hit), the lane gather, the predictors' batches and the scoring
    // passes. The stages are contiguous, so they add up to the loop.
    // Local accumulation, one registry call per stage at the end —
    // see obs.hh's overhead rules. Histogram pointers are stable, so
    // they are cached up front.
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    StageTimes st;
    stats::Histogram *predictHist = nullptr;
    stats::Histogram *updateHist = nullptr;
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        predictHist = reg.histogram("predict.batch_us");
        updateHist = reg.histogram("update.batch_us");
        reg.addCount(simd::activeName(), 1);
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> values(cap);
    std::vector<uint32_t> records(cap);
    predictors::PredictionBatch batch;

    while (executed < budget) {
        if (obsOn)
            st.start();
        const workload::TraceChunk *chunk = src.fillRef(*scratch);
        if (obsOn)
            st.lap(st.fillNs);
        if (!chunk)
            break;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(chunk->size, budget - executed));
        const uint32_t lanes = predictors::gatherValueLanes(
            *chunk, n, pcs.data(), values.data(), records.data());
        const uint64_t mstart =
            measuredStart(executed, cfg.warmupInstructions);
        const uint32_t mlane =
            mstart >= n ? lanes
                        : measuredLane(records.data(), lanes, mstart);
        executed += n;
        if (obsOn)
            st.lap(st.gatherNs);

        for (size_t i = 0; i < preds.size(); ++i) {
            preds[i]->predictUpdateBatch(pcs.data(), values.data(),
                                         lanes, batch);
            if (obsOn)
                predictHist->record(st.lap(st.predictNs) / 1000);
            // Ratio sums are order-independent, so the per-chunk
            // aggregation below is identical to the scalar
            // record-at-a-time record() calls.
            const predictors::ConfidenceTable::Tally t =
                conf[i].scoreLanes(pcs.data(), values.data(), batch,
                                   mlane, lanes);
            series[i].accuracyAll.addBatch(t.correct, lanes - mlane);
            series[i].coverage.addBatch(t.confident, lanes - mlane);
            series[i].accuracyGated.addBatch(t.confidentCorrect,
                                             t.confident);
            if (obsOn)
                updateHist->record(st.lap(st.confidenceNs) / 1000);
        }
    }
    measured = executed > cfg.warmupInstructions
                   ? executed - cfg.warmupInstructions
                   : 0;
    if (obsOn)
        st.publish();
}

// ----------------------------------------------- AddressProfileRunner

AddressProfileRunner::AddressProfileRunner(const ProfileConfig &config)
    : cfg(config), dcache(mem::CacheConfig::paperDCache())
{
    cfg.validate();
}

void
AddressProfileRunner::addPredictor(predictors::ValuePredictor &p)
{
    preds.push_back(&p);
    conf.emplace_back(cfg.confidence);
    AddressSeries s;
    s.name = p.name();
    series.push_back(std::move(s));
}

void
AddressProfileRunner::setMarkov(predictors::MarkovPredictor &all,
                                predictors::MarkovPredictor &misses)
{
    GDIFF_ASSERT(markovAll == nullptr, "Markov already registered");
    markovAll = &all;
    markovMiss = &misses;
    AddressSeries s;
    s.name = "markov";
    series.push_back(std::move(s));
}

void
AddressProfileRunner::run(workload::TraceSource &src)
{
    GDIFF_ASSERT(!preds.empty() || markovAll,
                 "no predictors registered");
    uint64_t executed = 0;
    uint64_t budget = cfg.warmupInstructions + cfg.maxInstructions;
    auto scratch = std::make_unique<workload::TraceChunk>();
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    StageTimes st;
    stats::Histogram *predictHist = nullptr;
    stats::Histogram *updateHist = nullptr;
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        predictHist = reg.histogram("predict.batch_us");
        updateHist = reg.histogram("update.batch_us");
        reg.addCount(simd::activeName(), 1);
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> actuals(cap);
    std::vector<uint32_t> records(cap);
    std::vector<uint8_t> miss(cap);
    predictors::PredictionBatch batch;

    while (executed < budget) {
        if (obsOn)
            st.start();
        const workload::TraceChunk *chunk = src.fillRef(*scratch);
        if (obsOn)
            st.lap(st.fillNs);
        if (!chunk)
            break;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(chunk->size, budget - executed));

        // Pass 1 — memory model in architectural order: stores keep
        // the D-cache honest but are not predicted; loads become
        // dense lanes carrying their miss classification. Timed as
        // the gather.
        uint32_t lanes = 0;
        for (uint32_t j = 0; j < n; ++j) {
            uint64_t effAddr = chunk->effAddr[j];
            if (chunk->isStore(j)) {
                dcache.access(effAddr);
                continue;
            }
            if (!chunk->isLoad(j))
                continue;
            pcs[lanes] = chunk->pc[j];
            actuals[lanes] = static_cast<int64_t>(effAddr);
            records[lanes] = j;
            miss[lanes] = !dcache.access(effAddr);
            ++lanes;
        }
        const uint64_t mstart =
            measuredStart(executed, cfg.warmupInstructions);
        const uint32_t mlane =
            mstart >= n ? lanes
                        : measuredLane(records.data(), lanes, mstart);
        executed += n;
        if (obsOn)
            st.lap(st.gatherNs);

        // Pass 2 — PC-indexed predictors over the load-address lanes.
        for (size_t i = 0; i < preds.size(); ++i) {
            preds[i]->predictUpdateBatch(pcs.data(), actuals.data(),
                                         lanes, batch);
            if (obsOn)
                predictHist->record(st.lap(st.predictNs) / 1000);
            const predictors::ConfidenceTable::Tally t =
                conf[i].scoreLanes(pcs.data(), actuals.data(), batch,
                                   mlane, lanes, miss.data());
            series[i].coverageAll.addBatch(t.confident, lanes - mlane);
            series[i].accuracyAll.addBatch(t.confidentCorrect,
                                           t.confident);
            series[i].coverageMiss.addBatch(t.markedConfident,
                                            t.marked);
            series[i].accuracyMiss.addBatch(t.markedConfidentCorrect,
                                            t.markedConfident);
            if (obsOn)
                updateHist->record(st.lap(st.confidenceNs) / 1000);
        }

        // Pass 3 — the Markov pair, one load lane at a time: the
        // all-loads predictor sees every lane, the miss predictor only
        // the missing ones. It predicts and scores in one loop, timed
        // as a predictor.
        if (markovAll) {
            AddressSeries &ms = series.back();
            uint64_t cov = 0, acc = 0, mcov = 0, macc = 0, mtot = 0;
            for (uint32_t l = 0; l < lanes; ++l) {
                const uint64_t addr = static_cast<uint64_t>(actuals[l]);
                const bool measured = l >= mlane;
                uint64_t guess = 0;
                if (markovAll->predict(guess) && measured) {
                    ++cov;
                    acc += guess == addr;
                }
                markovAll->update(addr);
                if (!miss[l])
                    continue;
                mtot += measured;
                if (markovMiss->predict(guess) && measured) {
                    ++mcov;
                    macc += guess == addr;
                }
                markovMiss->update(addr);
            }
            ms.coverageAll.addBatch(cov, lanes - mlane);
            ms.accuracyAll.addBatch(acc, cov);
            ms.coverageMiss.addBatch(mcov, mtot);
            ms.accuracyMiss.addBatch(macc, mcov);
            if (obsOn)
                st.lap(st.predictNs);
        }
    }
    if (obsOn)
        st.publish();
}

double
AddressProfileRunner::dcacheMissRate() const
{
    return dcache.missRate();
}

} // namespace sim
} // namespace gdiff
