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
 * update-only batches, the chunk-gathering wrappers, the confidence
 * table's fused gate-and-train, and the Markov address predictor.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "predictors/confidence.hh"
#include "predictors/markov.hh"
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
    for (const auto &family : check::batchFamilyNames()) {
        for (uint32_t lanes : chunkLanes) {
            auto scalar = check::makeProduction(family);
            auto batch = check::makeProduction(family);
            auto div = check::diffScalarVsBatch(*scalar, *batch,
                                                stream, lanes);
            EXPECT_FALSE(div.has_value())
                << family << " lanes=" << lanes << ": "
                << (div ? div->describe() : "");
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
    for (const auto &family : check::batchFamilyNames()) {
        auto a = check::makeProduction(family);
        auto b = check::makeProduction(family);
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

// Chunk wrappers gather only the value-producing records into dense
// lanes and record the chunk index of each lane.
TEST(BatchIdentity, ChunkWrappersGatherValueLanes)
{
    workload::TraceChunk chunk;
    chunk.clear();
    Xorshift64Star rng(7);
    std::vector<uint32_t> producing;
    chunk.size = 512;
    for (uint32_t i = 0; i < chunk.size; ++i) {
        chunk.pc[i] = 0x1000 + (i % 37) * 4;
        chunk.value[i] = static_cast<int64_t>(rng.next() >> 4);
        bool produces = (rng.next() & 3) != 0;
        chunk.flags[i] =
            produces ? workload::TraceChunk::flagProducesValue : 0;
        if (produces)
            producing.push_back(i);
    }

    predictors::StridePredictor batch(0);
    predictors::StridePredictor scalar(0);
    predictors::PredictionBatch out;
    batch.predictUpdateChunk(chunk, out);

    ASSERT_EQ(out.lanes(), producing.size());
    ASSERT_EQ(out.record.size(), producing.size());
    for (size_t l = 0; l < producing.size(); ++l) {
        const uint32_t i = producing[l];
        ASSERT_EQ(out.record[l], i);
        int64_t v = 0;
        bool p = scalar.predict(chunk.pc[i], v);
        ASSERT_EQ(p, out.predicted[l] != 0) << "lane " << l;
        if (p) {
            ASSERT_EQ(v, out.value[l]) << "lane " << l;
        }
        scalar.update(chunk.pc[i], chunk.value[i]);
    }

    // updateChunk with an explicit actuals span (the address-study
    // path) trains on the supplied values, not the chunk column.
    std::vector<int64_t> addrs(producing.size());
    for (size_t l = 0; l < addrs.size(); ++l)
        addrs[l] = static_cast<int64_t>(0x80000 + 64 * l);
    predictors::StridePredictor batch2(0);
    predictors::StridePredictor scalar2(0);
    batch2.updateChunk(chunk, addrs);
    for (size_t l = 0; l < producing.size(); ++l)
        scalar2.update(chunk.pc[producing[l]], addrs[l]);
    for (size_t l = 0; l < producing.size(); ++l) {
        int64_t a = 0, b = 0;
        bool pa = scalar2.predict(chunk.pc[producing[l]], a);
        bool pb = batch2.predict(chunk.pc[producing[l]], b);
        ASSERT_EQ(pa, pb);
        if (pa) {
            ASSERT_EQ(a, b);
        }
    }
}

TEST(BatchIdentity, ConfidenceEvaluateBatchMatchesScalar)
{
    predictors::ConfidenceTable a;
    predictors::ConfidenceTable b;
    Xorshift64Star rng(17);
    constexpr uint32_t kLanes = 2048;
    std::vector<uint64_t> pcs(kLanes);
    std::vector<uint8_t> predicted(kLanes), correct(kLanes);
    std::vector<uint8_t> conf(kLanes, 0xee);
    for (uint32_t l = 0; l < kLanes; ++l) {
        pcs[l] = 0x2000 + (rng.next() % 64) * 4;
        predicted[l] = (rng.next() & 7) != 0;
        correct[l] = (rng.next() & 1) != 0;
    }
    a.evaluateBatch(pcs.data(), predicted.data(), correct.data(),
                    kLanes, conf.data());
    for (uint32_t l = 0; l < kLanes; ++l) {
        uint8_t expect = 0;
        if (predicted[l]) {
            expect = b.confident(pcs[l]) ? 1 : 0;
            b.train(pcs[l], correct[l] != 0);
        }
        ASSERT_EQ(conf[l], expect) << "lane " << l;
    }
    // Post-state identity: counters agree per PC.
    for (uint32_t k = 0; k < 64; ++k)
        ASSERT_EQ(a.level(0x2000 + k * 4), b.level(0x2000 + k * 4));
}

TEST(BatchIdentity, MarkovFusedBatchMatchesScalar)
{
    predictors::MarkovPredictor a(4096, 4);
    predictors::MarkovPredictor b(4096, 4);
    Xorshift64Star rng(23);
    constexpr uint32_t kLanes = 4096;
    // Address stream with recurring chains plus noise, chunked in
    // awkward block sizes.
    std::vector<uint64_t> addrs(kLanes);
    for (uint32_t l = 0; l < kLanes; ++l) {
        if (rng.next() & 1)
            addrs[l] = 0x10000 + (l % 97) * 64;
        else
            addrs[l] = rng.next() & ~0x3full;
    }
    std::vector<uint8_t> hits(kLanes, 0);
    std::vector<uint64_t> guesses(kLanes, 0);
    for (uint32_t base = 0; base < kLanes;) {
        uint32_t n = std::min<uint32_t>(77, kLanes - base);
        a.predictUpdateBatch(addrs.data() + base, n,
                             hits.data() + base,
                             guesses.data() + base);
        base += n;
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        uint64_t guess = 0;
        bool hit = b.predict(guess);
        b.update(addrs[l]);
        ASSERT_EQ(hit, hits[l] != 0) << "lane " << l;
        if (hit) {
            ASSERT_EQ(guess, guesses[l]) << "lane " << l;
        }
    }
}

} // namespace
} // namespace gdiff
