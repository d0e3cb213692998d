/**
 * @file
 * Paper Fig. 9: aliasing in the tagless gdiff prediction table —
 * conflict rate (lookups landing on an entry last used by a
 * different PC) as the table shrinks, and the accuracy cost relative
 * to an unlimited table. The tables keep no PCs, so an
 * AliasingCounter beside gdiff in the same profile run counts the
 * conflicts.
 *
 * Scale note (see DESIGN.md): our synthetic kernels have static
 * footprints of a few hundred to a few thousand instructions, versus
 * tens of thousands for compiled SPECint2000, so the absolute table
 * sizes at which aliasing appears are proportionally smaller. The
 * *shape* — negligible loss at the paper's chosen size, growing
 * conflict rates as the table shrinks below the footprint — is what
 * this bench reproduces; we sweep down to 64 entries accordingly.
 */

#include "bench/bench_util.hh"

#include "core/gdiff.hh"
#include "predictors/table.hh"
#include "sim/profile.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

/**
 * A predictor that never predicts and counts the aliasing of a
 * tagless table of the given size. The profile runner feeds it the
 * same lanes as gdiff, in the same order, and gdiff looks up its
 * table once per update, so owner-PC entries updated here see
 * exactly gdiff's lookups. A conflict is an update whose entry a
 * different PC updated last; unlimited tables never conflict.
 */
class AliasingCounter : public predictors::ValuePredictor
{
  public:
    explicit AliasingCounter(size_t entries) : owners(entries) {}

    std::string name() const override { return "aliasing"; }

    bool predict(uint64_t, int64_t &) override { return false; }

    void
    update(uint64_t pc, int64_t) override
    {
        uint64_t &owner = owners.lookup(pc);
        conflicts += owner != 0 && owner != pc;
        owner = pc;
        ++lookups;
    }

    /** @return conflicts/lookups in [0,1]. */
    double
    rate() const
    {
        return lookups == 0 ? 0.0
                            : static_cast<double>(conflicts) /
                                  static_cast<double>(lookups);
    }

  private:
    predictors::PcIndexedTable<uint64_t> owners;
    uint64_t conflicts = 0;
    uint64_t lookups = 0;
};

struct Point
{
    double conflictRate;
    double accuracy;
};

Point
runPoint(const std::string &name, const bench::BenchOptions &opt,
         size_t entries)
{
    workload::Workload w = workload::makeWorkload(name, opt.seed);
    auto exec = w.makeExecutor();
    core::GDiffConfig gcfg;
    gcfg.order = 8;
    gcfg.tableEntries = entries;
    core::GDiffPredictor gd(gcfg);
    AliasingCounter aliasing(entries);

    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = opt.instructions;
    pcfg.warmupInstructions = opt.warmup;
    sim::ValueProfileRunner runner(pcfg);
    runner.addPredictor(gd);
    runner.addPredictor(aliasing);
    runner.run(*exec);
    return Point{aliasing.rate(), runner.results()[0].accuracyAll.value()};
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Figure 9",
                  "aliasing effect of the tagless prediction table "
                  "(gdiff, queue size 8)",
                  opt);

    const size_t sizes[] = {0, 8192, 2048, 512, 256, 128, 64};

    stats::Table conflicts("Fig. 9 — conflict rate by table size",
                           "benchmark");
    stats::Table accloss("Fig. 9b — accuracy loss vs unlimited table",
                         "benchmark");
    for (size_t s : sizes) {
        std::string h = s == 0 ? "unlimited" : std::to_string(s);
        conflicts.addColumn(h);
        if (s != 0)
            accloss.addColumn(h);
    }

    for (const auto &name : workload::specWorkloadNames()) {
        conflicts.beginRow(name);
        accloss.beginRow(name);
        double unlimited_acc = 0;
        for (size_t s : sizes) {
            Point p = runPoint(name, opt, s);
            conflicts.cellPercent(p.conflictRate);
            if (s == 0)
                unlimited_acc = p.accuracy;
            else
                accloss.cellPercent(unlimited_acc - p.accuracy);
        }
    }
    bench::emit(conflicts, opt);
    bench::emit(accloss, opt);
    std::printf("paper: an 8K-entry table costs < 1%% accuracy vs "
                "unlimited; conflicts grow as the table shrinks below "
                "the static footprint\n");
    return 0;
}
