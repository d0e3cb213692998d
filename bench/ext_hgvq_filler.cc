/**
 * @file
 * Ablation: what fills the hybrid queue's speculative slots (§5)?
 *
 * The paper fills HGVQ slots with local-stride predictions. This
 * bench compares that against filling with zero (i.e., only real
 * writebacks carry information) and with the last committed value,
 * isolating how much of the HGVQ's power comes from the *quality* of
 * the speculative filler.
 */

#include "bench/bench_util.hh"

#include "pipeline/ooo_model.hh"
#include "predictors/last_value.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

/** HgvqScheme variant with a pluggable filler policy. */
class FillerHgvq : public pipeline::VpScheme
{
  public:
    enum class Filler { Zero, LastValue, Stride };

    FillerHgvq(Filler filler, unsigned order)
        : filler(filler), gd([&] {
              core::GDiffConfig c;
              c.order = order;
              c.tableEntries = 8192;
              return c;
          }()),
          queue(order, order + 256), lastValue(8192), stride(8192)
    {}

    std::string
    name() const override
    {
        switch (filler) {
          case Filler::Zero: return "hgvq/zero";
          case Filler::LastValue: return "hgvq/last";
          case Filler::Stride: return "hgvq/stride";
        }
        return "hgvq";
    }

  protected:
    bool
    doPredict(uint64_t pc, unsigned ahead,
              pipeline::VpDecision &d) override
    {
        bool predicted = gd.predictWithWindow(
            pc, queue.windowAtDispatch(), d.value);
        int64_t fill = 0;
        switch (filler) {
          case Filler::Zero:
            break;
          case Filler::LastValue:
            lastValue.predict(pc, fill);
            break;
          case Filler::Stride:
            stride.predictAhead(pc, ahead, fill);
            break;
        }
        d.token = queue.pushSpeculative(fill);
        return predicted;
    }

    void
    doWriteback(uint64_t pc, const pipeline::VpDecision &d,
                int64_t actual) override
    {
        queue.commitSlot(d.token, actual);
        gd.trainWithWindow(pc, queue.windowBeforeSlot(d.token),
                           actual);
        lastValue.update(pc, actual);
        stride.update(pc, actual);
    }

  private:
    Filler filler;
    core::GDiffPredictor gd;
    core::HybridGvq queue;
    predictors::LastValuePredictor lastValue;
    predictors::StridePredictor stride;
};

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Ablation: HGVQ filler",
                  "what the hybrid queue's speculative slots hold "
                  "(gdiff component only, no local fallback)",
                  opt);

    stats::Table t("HGVQ filler policy (averages over kernels)",
                   "filler");
    t.addColumn("accuracy");
    t.addColumn("coverage");

    const FillerHgvq::Filler fillers[] = {
        FillerHgvq::Filler::Zero, FillerHgvq::Filler::LastValue,
        FillerHgvq::Filler::Stride};
    const char *names[] = {"zero", "last value", "local stride (paper)"};

    for (size_t f = 0; f < 3; ++f) {
        double acc = 0, cov = 0;
        size_t n = 0;
        for (const auto &name : workload::specWorkloadNames()) {
            workload::Workload w =
                workload::makeWorkload(name, opt.seed);
            auto exec = w.makeExecutor();
            FillerHgvq scheme(fillers[f], 32);
            pipeline::OooPipeline pipe(
                pipeline::PipelineConfig::paper(), scheme);
            pipe.run(*exec, opt.instructions, opt.warmup);
            acc += scheme.gatedAccuracy().value();
            cov += scheme.coverage().value();
            ++n;
        }
        t.beginRow(names[f]);
        t.cellPercent(acc / static_cast<double>(n));
        t.cellPercent(cov / static_cast<double>(n));
    }
    bench::emit(t, opt);
    std::printf("the paper's choice (local stride) should dominate: "
                "better fillers mean more of the dispatch-order "
                "window is trustworthy\n");
    return 0;
}
