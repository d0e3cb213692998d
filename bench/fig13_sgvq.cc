/**
 * @file
 * Paper Fig. 13: gdiff with the *speculative* global value queue
 * (SGVQ, queue size 32) in the OOO pipeline, vs the local stride
 * predictor. The SGVQ is updated with execution results in completion
 * order, so cache-miss-induced scheduling variation perturbs the
 * queue and the learned distances — the reason this scheme falls
 * short (paper: gdiff 74% accuracy / 49% coverage vs local stride's
 * 89% / 55%), motivating the HGVQ of Fig. 16.
 */

#include "bench/bench_util.hh"

#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "workload/workload.hh"

using namespace gdiff;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Figure 13",
                  "gdiff with the speculative GVQ (completion-order "
                  "updates, queue size 32) vs local stride",
                  opt);

    stats::Table t("Fig. 13 — SGVQ accuracy / coverage", "benchmark");
    t.addColumn("gdiff acc");
    t.addColumn("l_stride acc");
    t.addColumn("gdiff cov");
    t.addColumn("l_stride cov");

    double sums[4] = {0, 0, 0, 0};
    size_t n = 0;
    for (const auto &name : workload::specWorkloadNames()) {
        auto sgvq = runner::makeScheme("sgvq", 32, 8192);
        auto lstride = runner::makeScheme("l_stride", 32, 8192);
        for (pipeline::VpScheme *scheme : {sgvq.get(), lstride.get()}) {
            workload::Workload w = workload::makeWorkload(name, opt.seed);
            auto exec = w.makeExecutor();
            pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                                       *scheme);
            pipe.run(*exec, opt.instructions, opt.warmup);
        }

        double vals[4] = {sgvq->gatedAccuracy().value(),
                          lstride->gatedAccuracy().value(),
                          sgvq->coverage().value(),
                          lstride->coverage().value()};
        t.beginRow(name);
        for (int i = 0; i < 4; ++i) {
            t.cellPercent(vals[i]);
            sums[i] += vals[i];
        }
        ++n;
    }
    t.beginRow("average");
    for (double s : sums)
        t.cellPercent(s / static_cast<double>(n));
    bench::emit(t, opt);
    std::printf("paper averages: gdiff(SGVQ) 74%% acc / 49%% cov — "
                "*below* local stride (89%% / 55%%) because execution "
                "variation corrupts the speculative queue\n");
    return 0;
}
