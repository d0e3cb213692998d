/**
 * @file
 * Paper Fig. 16: confidence-gated prediction accuracy and coverage in
 * the OOO pipeline for gdiff with the hybrid global value queue
 * (HGVQ, queue size 32) vs the local stride and local context (DFCM)
 * predictors. All predictors predict at dispatch and update at
 * writeback.
 *
 * Paper averages: gdiff 91% accuracy / 64% coverage, local stride
 * 89% / 55%, local context similar accuracy but smaller coverage.
 */

#include "bench/bench_util.hh"

#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

void
runScheme(const std::string &name, const bench::BenchOptions &opt,
          pipeline::VpScheme &scheme, double &acc, double &cov)
{
    workload::Workload w = workload::makeWorkload(name, opt.seed);
    auto exec = w.makeExecutor();
    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               scheme);
    pipeline::PipelineStats s =
        pipe.run(*exec, opt.instructions, opt.warmup);
    acc = s.gatedAccuracy.value();
    cov = s.coverage.value();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Figure 16",
                  "gdiff with HGVQ vs local predictors in the OOO "
                  "pipeline (queue size 32, confidence-gated)",
                  opt);

    stats::Table t("Fig. 16 — pipeline accuracy / coverage",
                   "benchmark");
    t.addColumn("gdiff acc");
    t.addColumn("l_stride acc");
    t.addColumn("l_context acc");
    t.addColumn("gdiff cov");
    t.addColumn("l_stride cov");
    t.addColumn("l_context cov");

    double sums[6] = {0, 0, 0, 0, 0, 0};
    size_t n = 0;
    for (const auto &name : workload::specWorkloadNames()) {
        // Accuracy columns, then coverage, one per scheme-table row.
        double vals[6];
        const char *const schemes[] = {"hgvq", "l_stride", "l_context"};
        for (int i = 0; i < 3; ++i) {
            auto scheme = runner::makeScheme(schemes[i], 32, 8192);
            runScheme(name, opt, *scheme, vals[i], vals[i + 3]);
        }

        t.beginRow(name);
        for (int i = 0; i < 6; ++i) {
            t.cellPercent(vals[i]);
            sums[i] += vals[i];
        }
        ++n;
    }
    t.beginRow("average");
    for (double s : sums)
        t.cellPercent(s / static_cast<double>(n));
    bench::emit(t, opt);
    std::printf("paper averages: gdiff 91%% acc / 64%% cov; local "
                "stride 89%% / 55%%; local context: similar accuracy, "
                "smaller coverage\n");
    return 0;
}
