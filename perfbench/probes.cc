/**
 * @file
 * Layer probes of the traced run: each drives one library layer alone
 * over the workload's own traces, for the per-layer rates a sweep
 * cannot separate from outside (batch vs scalar prediction, the
 * D-cache model, v3 encode and decode).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "mem/cache.hh"
#include "runner/factory.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/trace_io.hh"
#include "workloads.hh"

namespace perfbench {

using namespace gdiff;
using workload::TraceCache;
using workload::TraceChunk;

namespace {

/// chunks of each trace the predictor probe drives (~262k records)
constexpr size_t kProbeChunks = 64;
/// repetitions of each timed probe; the median is reported
constexpr unsigned kProbeReps = 3;

/** The dense value lanes of one trace chunk. */
struct Lanes
{
    std::vector<uint64_t> pcs;
    std::vector<int64_t> values;
};

/** What one path predicted, lane by lane. */
struct Predictions
{
    std::vector<uint8_t> predicted;
    std::vector<int64_t> value;

    bool operator==(const Predictions &) const = default;
};

double
batchPass(predictors::ValuePredictor &pred,
          const std::vector<Lanes> &chunks, Predictions &out)
{
    predictors::PredictionBatch batch;
    ScopedSpan s("probe.predictors.batch");
    for (const Lanes &c : chunks) {
        pred.predictUpdateBatch(c.pcs.data(), c.values.data(),
                                static_cast<uint32_t>(c.pcs.size()),
                                batch);
        for (size_t l = 0; l < c.pcs.size(); ++l) {
            out.predicted.push_back(batch.predicted[l]);
            out.value.push_back(batch.predicted[l] ? batch.value[l] : 0);
        }
    }
    return s.elapsed();
}

double
scalarPass(predictors::ValuePredictor &pred,
           const std::vector<Lanes> &chunks, Predictions &out)
{
    ScopedSpan s("probe.predictors.scalar");
    for (const Lanes &c : chunks) {
        for (size_t l = 0; l < c.pcs.size(); ++l) {
            int64_t v = 0;
            bool hit = pred.predict(c.pcs[l], v);
            out.predicted.push_back(hit);
            out.value.push_back(hit ? v : 0);
            pred.update(c.pcs[l], c.values[l]);
        }
    }
    return s.elapsed();
}

} // namespace

std::vector<double>
probePredictors(const std::vector<TraceKey> &traces, TraceCache &cache,
                Report &report)
{
    std::vector<std::vector<Lanes>> perTrace;
    auto scratch = std::make_unique<TraceChunk>();
    for (const TraceKey &t : traces) {
        TraceCache::Acquired acq =
            cache.acquire(t.workload, t.seed, t.records);
        std::vector<Lanes> chunks;
        while (chunks.size() < kProbeChunks) {
            const TraceChunk *c = acq.source->fillRef(*scratch);
            if (!c)
                break;
            Lanes l;
            l.pcs.resize(TraceChunk::capacity);
            l.values.resize(TraceChunk::capacity);
            std::vector<uint32_t> records(TraceChunk::capacity);
            uint32_t n = predictors::gatherValueLanes(
                *c, c->size, l.pcs.data(), l.values.data(),
                records.data());
            l.pcs.resize(n);
            l.values.resize(n);
            chunks.push_back(std::move(l));
        }
        perTrace.push_back(std::move(chunks));
    }

    std::vector<double> speedups;
    for (const std::string &family : kFamilies) {
        std::vector<double> batchTimes, scalarTimes;
        for (unsigned rep = 0; rep < kProbeReps; ++rep) {
            double batch = 0, scalar = 0;
            for (const std::vector<Lanes> &chunks : perTrace) {
                Predictions fromBatch, fromScalar;
                auto a = runner::makePredictor(family, 8, 8192);
                auto b = runner::makePredictor(family, 8, 8192);
                batch += batchPass(*a, chunks, fromBatch);
                scalar += scalarPass(*b, chunks, fromScalar);
                if (rep == 0 && !(fromBatch == fromScalar))
                    report.problem("predictor " + family +
                                   ": batch and scalar paths disagree");
            }
            batchTimes.push_back(batch);
            scalarTimes.push_back(scalar);
        }
        speedups.push_back(median(scalarTimes) / median(batchTimes));
    }
    return speedups;
}

MemProbe
probeMem(const std::vector<TraceKey> &traces, TraceCache &cache)
{
    auto scratch = std::make_unique<TraceChunk>();
    std::vector<std::vector<uint64_t>> addrs;
    for (const TraceKey &t : traces) {
        TraceCache::Acquired acq =
            cache.acquire(t.workload, t.seed, t.records);
        std::vector<uint64_t> a;
        while (const TraceChunk *c = acq.source->fillRef(*scratch)) {
            for (uint32_t i = 0; i < c->size; ++i)
                if (c->isLoad(i) || c->isStore(i))
                    a.push_back(c->effAddr[i]);
        }
        addrs.push_back(std::move(a));
    }

    std::vector<double> times;
    uint64_t accesses = 0, misses = 0;
    for (unsigned rep = 0; rep < kProbeReps; ++rep) {
        ScopedSpan s("probe.mem.dcache");
        accesses = misses = 0;
        for (const std::vector<uint64_t> &a : addrs) {
            mem::Cache dcache(mem::CacheConfig::paperDCache());
            for (uint64_t addr : a)
                dcache.access(addr);
            accesses += dcache.accesses();
            misses += dcache.misses();
        }
        times.push_back(s.elapsed());
    }
    MemProbe p;
    p.accessesPerSecond = static_cast<double>(accesses) / median(times);
    p.missRate = accesses ? static_cast<double>(misses) /
                                static_cast<double>(accesses)
                          : 0.0;
    return p;
}

TraceIoProbe
probeTraceIo(const std::vector<TraceKey> &traces, TraceCache &cache,
             const std::string &diskDir, const std::string &workdir,
             Report &report)
{
    double records = 0, bytes = 0, decodeSeconds = 0, encodeSeconds = 0;
    auto chunk = std::make_unique<TraceChunk>();
    for (const TraceKey &t : traces) {
        // Decode: the disk-tier entry, read into memory first so the
        // span times v3 decoding and its digest checks alone.
        std::string path = diskDir + "/" +
                           workload::DiskTraceCache::entryName(
                               t.workload, t.seed, t.records);
        std::ifstream is(path, std::ios::binary);
        std::vector<uint8_t> image((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
        uint64_t decoded = 0;
        workload::TraceIoResult res;
        {
            ScopedSpan s("probe.trace_io.decode");
            workload::TraceBufferReader reader;
            res = reader.open(image.data(), image.size());
            while (res.ok()) {
                res = reader.read(*chunk);
                if (res.ok())
                    decoded += chunk->size;
            }
            decodeSeconds += s.elapsed();
        }
        if (!res.end() || decoded != t.records)
            report.problem("decoding " + path + " gave " +
                           std::to_string(decoded) + " records, status " +
                           workload::traceIoStatusName(res.status));

        // Encode: the resident trace, v3, to a scratch file.
        TraceCache::Acquired acq =
            cache.acquire(t.workload, t.seed, t.records);
        std::string out = workdir + "/probe.gdtr";
        {
            ScopedSpan s("probe.trace_io.encode");
            workload::TraceWriter writer(out);
            while (const TraceChunk *c = acq.source->fillRef(*chunk))
                writer.append(*c);
            writer.close();
            encodeSeconds += s.elapsed();
        }
        std::filesystem::remove(out);
        records += static_cast<double>(t.records);
        bytes += static_cast<double>(image.size());
    }
    TraceIoProbe p;
    p.decodeRecordsPerSecond = records / decodeSeconds;
    p.encodeRecordsPerSecond = records / encodeSeconds;
    p.bytesPerRecord = bytes / records;
    return p;
}

} // namespace perfbench
