/**
 * @file
 * Batch-protocol identity tests: every batched entry point must be
 * bit-identical to the scalar predict()/update() specification.
 *
 * The heavy lifting is check::diffScalarVsBatch — the same machinery
 * gdifffuzz --batch drives — run here over every batched family, a
 * spread of chunk sizes (1 record, a prime, SIMD-width multiples, a
 * full trace chunk), and both SIMD kernel sets. The remaining tests
 * pin the protocol pieces the differ does not reach: predict-only and
 * update-only batches, the lane gather the profile drivers use, and
 * the confidence table's fused gate-and-train.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "runner/factory.hh"
#include "predictors/confidence.hh"
#include "predictors/stride.hh"
#include "predictors/value_predictor.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace {

/** Force a kernel set for one scope; restores the CPU default. */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(simd::Mode m) { simd::setModeForTest(m); }
    ~ScopedSimdMode()
    {
        simd::setModeForTest(simd::cpuSupportsAvx2()
                                 ? simd::Mode::Avx2
                                 : simd::Mode::Scalar);
    }
};

std::vector<check::FuzzRecord>
testStream(uint64_t seed, uint64_t records = 6000)
{
    check::FuzzStreamConfig cfg;
    cfg.seed = seed;
    cfg.records = records;
    return check::fuzzValueStream(cfg);
}

void
diffAllFamilies(simd::Mode mode)
{
    if (mode == simd::Mode::Avx2 && !simd::cpuSupportsAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    ScopedSimdMode scoped(mode);
    const auto stream = testStream(101);
    const uint32_t chunkLanes[] = {1, 7, 1024,
                                   workload::TraceChunk::capacity};
    // Every family at its default order (0), and fcm and dfcm at
    // each other order they take.
    std::vector<std::pair<const runner::PredictorFamily *, unsigned>>
        builds;
    for (const auto &family : runner::predictorFamilies())
        builds.emplace_back(&family, 0);
    for (const char *family : {"fcm", "dfcm"}) {
        for (unsigned order : {1u, 2u, 4u})
            builds.emplace_back(runner::findPredictor(family), order);
    }
    for (const auto &[family, order] : builds) {
        for (uint32_t lanes : chunkLanes) {
            auto scalar = family->make(order, 0);
            auto batch = family->make(order, 0);
            auto div = check::diffScalarVsBatch(*scalar, *batch,
                                                stream, lanes);
            EXPECT_FALSE(div.has_value())
                << family->name << "@" << order << " lanes=" << lanes
                << ": " << (div ? div->describe() : "");
        }
    }
}

TEST(BatchIdentity, AllFamiliesAvx2)
{
    diffAllFamilies(simd::Mode::Avx2);
}

TEST(BatchIdentity, AllFamiliesScalarKernels)
{
    diffAllFamilies(simd::Mode::Scalar);
}

// The differ exercises the fused predictUpdateBatch; predict-only and
// update-only batches are separate virtual entry points with their
// own overrides, so pin them directly against the scalar calls.
TEST(BatchIdentity, PredictBatchAndUpdateBatchMatchScalar)
{
    const auto stream = testStream(202, 4000);
    std::vector<uint64_t> pcs;
    std::vector<int64_t> vals;
    for (const auto &r : stream) {
        pcs.push_back(r.pc);
        vals.push_back(r.value);
    }
    for (const auto &row : runner::predictorFamilies()) {
        const std::string family = row.name;
        auto a = row.make(0, 0);
        auto b = row.make(0, 0);
        const uint32_t n = static_cast<uint32_t>(pcs.size());
        // Train both halves identically, batch vs scalar.
        a->updateBatch(pcs.data(), vals.data(), n / 2);
        for (uint32_t l = 0; l < n / 2; ++l)
            b->update(pcs[l], vals[l]);
        // Predict-only over the second half: no training between
        // lanes, so every lane must match the scalar predict().
        predictors::PredictionBatch out;
        a->predictBatch(pcs.data() + n / 2, n - n / 2, out);
        for (uint32_t l = 0; l < n - n / 2; ++l) {
            int64_t v = 0;
            bool p = b->predict(pcs[n / 2 + l], v);
            ASSERT_EQ(p, out.predicted[l] != 0)
                << family << " lane " << l;
            if (p) {
                ASSERT_EQ(v, out.value[l]) << family << " lane " << l;
            }
        }
    }
}

// gatherValueLanes keeps only the value-producing records of
// [0, limit) as dense lanes and records the chunk index of each lane,
// under either kernel set; predictUpdateBatch over those lanes
// matches the scalar calls.
void
expectGatherValueLanes()
{
    workload::TraceChunk chunk;
    chunk.clear();
    Xorshift64Star rng(7);
    chunk.size = 512;
    for (uint32_t i = 0; i < chunk.size; ++i) {
        chunk.pc[i] = 0x1000 + (i % 37) * 4;
        chunk.value[i] = static_cast<int64_t>(rng.next() >> 4);
        bool produces = (rng.next() & 3) != 0;
        chunk.flags[i] =
            produces ? workload::TraceChunk::flagProducesValue : 0;
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> values(cap);
    std::vector<uint32_t> records(cap);
    for (uint32_t limit : {chunk.size, 0u, 1u, 5u, 17u, 300u, cap}) {
        std::vector<uint32_t> producing;
        for (uint32_t i = 0; i < std::min(limit, chunk.size); ++i) {
            if (chunk.flags[i] & workload::TraceChunk::flagProducesValue)
                producing.push_back(i);
        }
        const uint32_t lanes = predictors::gatherValueLanes(
            chunk, limit, pcs.data(), values.data(), records.data());
        ASSERT_EQ(lanes, producing.size()) << "limit " << limit;
        for (uint32_t l = 0; l < lanes; ++l) {
            const uint32_t i = producing[l];
            ASSERT_EQ(records[l], i) << "limit " << limit;
            ASSERT_EQ(pcs[l], chunk.pc[i]);
            ASSERT_EQ(values[l], chunk.value[i]);
        }

        predictors::StridePredictor batch(0);
        predictors::StridePredictor scalar(0);
        predictors::PredictionBatch out;
        batch.predictUpdateBatch(pcs.data(), values.data(), lanes, out);
        ASSERT_EQ(out.lanes(), lanes);
        for (uint32_t l = 0; l < lanes; ++l) {
            const uint32_t i = producing[l];
            int64_t v = 0;
            bool p = scalar.predict(chunk.pc[i], v);
            ASSERT_EQ(p, out.predicted[l] != 0) << "lane " << l;
            if (p) {
                ASSERT_EQ(v, out.value[l]) << "lane " << l;
            }
            scalar.update(chunk.pc[i], chunk.value[i]);
        }
    }
}

TEST(BatchIdentity, ChunkWrappersGatherValueLanes)
{
    {
        ScopedSimdMode scoped(simd::Mode::Scalar);
        expectGatherValueLanes();
    }
    if (simd::cpuSupportsAvx2()) {
        ScopedSimdMode scoped(simd::Mode::Avx2);
        expectGatherValueLanes();
    }
}

TEST(BatchIdentity, ConfidenceScoreLanesMatchesScalar)
{
    // Synthetic PCs (the table's map path) and text-segment PCs (its
    // direct window) in one batch, with and without a mark array,
    // under the paper's policy, a limited table and every width.
    auto pcOf = [](uint32_t k) {
        return k < 32 ? 0x2000 + k * 4 : 0x400000 + (k - 32) * 4;
    };
    std::vector<predictors::ConfidenceConfig> policies = {
        predictors::ConfidenceConfig(), {3, 2, 1, 4, 64}};
    for (unsigned bits = 1; bits <= 8; ++bits)
        policies.push_back({bits, bits, 1, (1u << bits) - 1, 0});
    for (const predictors::ConfidenceConfig &policy : policies)
    for (bool marked : {false, true}) {
        predictors::ConfidenceTable a(policy);
        predictors::ConfidenceTable b(policy);
        Xorshift64Star rng(17);
        constexpr uint32_t kLanes = 2048;
        constexpr uint32_t kFrom = 300;
        std::vector<uint64_t> pcs(kLanes);
        std::vector<int64_t> actuals(kLanes);
        std::vector<uint8_t> mark(kLanes);
        predictors::PredictionBatch batch;
        batch.reset(kLanes);
        for (uint32_t l = 0; l < kLanes; ++l) {
            pcs[l] = pcOf(static_cast<uint32_t>(rng.next() % 64));
            actuals[l] = static_cast<int64_t>(rng.next() % 4);
            batch.predicted[l] = (rng.next() & 7) != 0;
            batch.value[l] = static_cast<int64_t>(rng.next() % 4);
            mark[l] = rng.next() & 1;
        }
        const predictors::ConfidenceTable::Tally t = a.scoreLanes(
            pcs.data(), actuals.data(), batch, kFrom, kLanes,
            marked ? mark.data() : nullptr);
        predictors::ConfidenceTable::Tally want;
        for (uint32_t l = 0; l < kLanes; ++l) {
            const bool p = batch.predicted[l] != 0;
            const bool c = p && batch.value[l] == actuals[l];
            const bool k = p && b.confident(pcs[l]);
            if (p)
                b.train(pcs[l], c);
            if (l < kFrom)
                continue;
            want.correct += c;
            want.confident += k;
            want.confidentCorrect += c && k;
            if (marked && mark[l]) {
                ++want.marked;
                want.markedConfident += k;
                want.markedConfidentCorrect += c && k;
            }
        }
        SCOPED_TRACE(testing::Message() << "bits " << policy.bits
                                        << " entries " << policy.entries
                                        << " marked " << marked);
        EXPECT_EQ(t.correct, want.correct);
        EXPECT_EQ(t.confident, want.confident);
        EXPECT_EQ(t.confidentCorrect, want.confidentCorrect);
        EXPECT_EQ(t.marked, want.marked);
        EXPECT_EQ(t.markedConfident, want.markedConfident);
        EXPECT_EQ(t.markedConfidentCorrect, want.markedConfidentCorrect);
        // Post-state identity: counters agree per PC.
        for (uint32_t k = 0; k < 64; ++k)
            ASSERT_EQ(a.level(pcOf(k)), b.level(pcOf(k)));
    }
}

} // namespace
} // namespace gdiff
