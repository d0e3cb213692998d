/**
 * @file
 * inspect_pipeline — per-instruction value-speculation report from
 * inside the OOO pipeline.
 *
 * Runs one kernel under the gdiff(HGVQ) scheme and under the local
 * stride scheme, and prints per-PC confidence-gated coverage and
 * accuracy for each. This is the microscope for the pipeline figures
 * (13/16/19): it shows which static instructions are confidently
 * mispredicted and which carry the coverage.
 *
 * Usage: inspect_pipeline [workload] [instructions] [order]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "pipeline/ooo_model.hh"
#include "predictors/stride.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

struct PcStats
{
    uint64_t count = 0;
    uint64_t confident = 0;
    uint64_t confidentCorrect = 0;
    std::string disasm;
};

/**
 * A shim scheme that wraps another scheme and records per-PC
 * outcomes. Demonstrates how the VpScheme interface composes.
 */
class RecordingScheme : public pipeline::VpScheme
{
  public:
    RecordingScheme(pipeline::VpScheme &inner,
                    std::map<uint64_t, PcStats> &stats)
        : inner(inner), stats(stats)
    {}

    std::string name() const override { return inner.name(); }

  protected:
    bool
    doPredict(uint64_t pc, unsigned, pipeline::VpDecision &d) override
    {
        pipeline::VpDecision inner_d = inner.predictAtDispatch(pc);
        d.value = inner_d.value;
        d.token = tokens.size();
        tokens.push_back(inner_d);
        return inner_d.predicted;
    }

    void
    doWriteback(uint64_t pc, const pipeline::VpDecision &d,
                int64_t actual) override
    {
        // d.token always indexes the inner decision captured at
        // dispatch (doPredict sets it unconditionally).
        const pipeline::VpDecision &inner_d = tokens[d.token];
        PcStats &s = stats[pc];
        ++s.count;
        if (inner_d.confident) {
            ++s.confident;
            if (inner_d.value == actual)
                ++s.confidentCorrect;
        }
        inner.writeback(pc, inner_d, actual);
    }

  private:
    pipeline::VpScheme &inner;
    std::map<uint64_t, PcStats> &stats;
    std::vector<pipeline::VpDecision> tokens;
};

void
runOne(const std::string &name, uint64_t budget,
       pipeline::VpScheme &scheme, std::map<uint64_t, PcStats> &stats)
{
    workload::Workload w = workload::makeWorkload(name, 1);
    auto exec = w.makeExecutor();
    RecordingScheme rec(scheme, stats);
    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(), rec);
    pipe.run(*exec, budget, budget / 5);

    // attach disassembly
    for (auto &[pc, s] : stats) {
        uint32_t idx = isa::pcToIndex(pc);
        if (idx < w.program.size())
            s.disasm = w.program.at(idx).toString();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "gzip";
    uint64_t budget = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                               : 300'000;
    unsigned order = argc > 3
                         ? static_cast<unsigned>(std::atoi(argv[3]))
                         : 32;

    core::GDiffConfig gcfg;
    gcfg.order = order;
    gcfg.tableEntries = 8192;
    pipeline::HgvqScheme hgvq(gcfg);
    std::map<uint64_t, PcStats> g_stats;
    runOne(name, budget, hgvq, g_stats);

    pipeline::LocalScheme lstride(
        std::make_unique<predictors::StridePredictor>(8192),
        "l_stride");
    std::map<uint64_t, PcStats> s_stats;
    runOne(name, budget, lstride, s_stats);

    std::vector<std::pair<uint64_t, PcStats>> rows(g_stats.begin(),
                                                   g_stats.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.count > b.second.count;
              });

    std::printf("pipeline value speculation for '%s' "
                "(gdiff HGVQ order %u vs local stride)\n\n",
                name.c_str(), order);
    std::printf("%-10s %-26s %9s | %7s %7s | %7s %7s\n", "pc",
                "instruction", "count", "g.cov", "g.acc", "s.cov",
                "s.acc");
    for (const auto &[pc, g] : rows) {
        if (g.count < 200)
            continue;
        const PcStats &s = s_stats[pc];
        auto pct = [](uint64_t num, uint64_t den) {
            return den ? 100.0 * static_cast<double>(num) /
                             static_cast<double>(den)
                       : 0.0;
        };
        std::printf("0x%-8llx %-26s %9llu | %6.1f%% %6.1f%% | %6.1f%% "
                    "%6.1f%%\n",
                    static_cast<unsigned long long>(pc),
                    g.disasm.c_str(),
                    static_cast<unsigned long long>(g.count),
                    pct(g.confident, g.count),
                    pct(g.confidentCorrect, g.confident),
                    pct(s.confident, s.count),
                    pct(s.confidentCorrect, s.confident));
    }
    return 0;
}
