#include "check/mine.hh"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <optional>

#include "check/reference.hh"
#include "check/shrink.hh"
#include "runner/runner.hh"
#include "stats/table.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/trace_io.hh"

namespace gdiff {
namespace check {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void
fnvMix64(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 64; b += 8) {
        h ^= (v >> b) & 0xff;
        h *= kFnvPrime;
    }
}

bool
knownFamily(const std::string &family, bool oracle)
{
    const auto &names = oracle ? pairNames() : batchFamilyNames();
    return std::find(names.begin(), names.end(), family) !=
           names.end();
}

bool
parseSide(const std::string &text, MineSide &out, std::string &error)
{
    std::string spec = text;
    out.oracle = false;
    if (spec.rfind("ref:", 0) == 0) {
        out.oracle = true;
        spec = spec.substr(4);
    }
    out.order = 0;
    size_t at = spec.find('@');
    if (at != std::string::npos) {
        std::string digits = spec.substr(at + 1);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos) {
            error = "bad order in '" + text + "'";
            return false;
        }
        out.order = static_cast<unsigned>(std::stoul(digits));
        spec = spec.substr(0, at);
    }
    out.family = spec;
    if (!knownFamily(out.family, out.oracle)) {
        error = std::string(out.oracle ? "unknown oracle family '"
                                       : "unknown family '") +
                out.family + "' in '" + text + "'";
        return false;
    }
    return true;
}

} // anonymous namespace

std::string
MineSide::describe() const
{
    std::string s = oracle ? "ref:" + family : family;
    if (order != 0)
        s += "@" + std::to_string(order);
    return s;
}

std::unique_ptr<predictors::ValuePredictor>
MineSide::build() const
{
    if (oracle)
        return std::move(makePair(family, order).oracle);
    return makeProduction(family, order);
}

std::string
MineTarget::name() const
{
    return left.describe() + "-vs-" + right.describe();
}

bool
parseMineTarget(const std::string &text, MineTarget &out,
                std::string &error)
{
    // Split on "-vs-"; a "ref:" prefix never contains '-', and family
    // names never contain "-vs-", so the first occurrence is the
    // separator.
    size_t sep = text.find("-vs-");
    if (sep == std::string::npos || sep == 0 ||
        sep + 4 >= text.size()) {
        error = "expected LEFT-vs-RIGHT, got '" + text + "'";
        return false;
    }
    return parseSide(text.substr(0, sep), out.left, error) &&
           parseSide(text.substr(sep + 4), out.right, error);
}

const std::vector<std::string> &
defaultMineTargets()
{
    static const std::vector<std::string> targets = {
        "gdiff-vs-gfcm",   // cheap global stride vs context predictor
        "gdiff@1-vs-gdiff@4", // short vs long correlation window
    };
    return targets;
}

uint64_t
countConflicts(const MineTarget &target,
               const std::vector<FuzzRecord> &stream, Divergence *first)
{
    auto left = target.left.build();
    auto right = target.right.build();
    uint64_t conflicts = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        const FuzzRecord &r = stream[i];
        int64_t lv = 0, rv = 0;
        bool lp = left->predict(r.pc, lv);
        bool rp = right->predict(r.pc, rv);
        if (lp && rp && lv != rv) {
            if (conflicts == 0 && first) {
                first->index = i;
                first->pc = r.pc;
                first->prodPredicted = lp;
                first->refPredicted = rp;
                first->prodValue = lv;
                first->refValue = rv;
                first->updates = i;
            }
            ++conflicts;
        }
        left->update(r.pc, r.value);
        right->update(r.pc, r.value);
    }
    return conflicts;
}

std::string
WitnessFingerprint::key() const
{
    return formatString("p%u/q%u/s%u/0x%x/0x%x", valuePeriod, pcPeriod,
                        phases, signPattern, confTrajectory);
}

uint64_t
WitnessFingerprint::digest() const
{
    uint64_t h = kFnvBasis;
    fnvMix64(h, valuePeriod);
    fnvMix64(h, pcPeriod);
    fnvMix64(h, phases);
    fnvMix64(h, signPattern);
    fnvMix64(h, confTrajectory);
    return h;
}

WitnessFingerprint
fingerprintWitness(const MineTarget &target,
                   const std::vector<FuzzRecord> &stream)
{
    WitnessFingerprint fp;
    std::vector<uint64_t> values, pcs;
    values.reserve(stream.size());
    pcs.reserve(stream.size());
    for (const FuzzRecord &r : stream) {
        values.push_back(static_cast<uint64_t>(r.value));
        pcs.push_back(r.pc);
    }
    fp.valuePeriod = workload::detectStridePeriod(
        values.data(), static_cast<uint32_t>(values.size()));
    fp.pcPeriod = workload::detectStridePeriod(
        pcs.data(), static_cast<uint32_t>(pcs.size()));

    std::vector<uint64_t> distinct = pcs;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    fp.phases = static_cast<uint32_t>(distinct.size());

    for (size_t i = 1; i < stream.size() && i <= 16; ++i) {
        int64_t delta = static_cast<int64_t>(
            static_cast<uint64_t>(stream[i].value) -
            static_cast<uint64_t>(stream[i - 1].value));
        if (delta < 0)
            fp.signPattern |= 1u << (i - 1);
    }

    // The left side's confidence trajectory: whether it abstained,
    // hit, or missed on each of the first 16 records.
    auto left = target.left.build();
    for (size_t i = 0; i < stream.size() && i < 16; ++i) {
        int64_t v = 0;
        uint32_t outcome = 0; // no prediction
        if (left->predict(stream[i].pc, v))
            outcome = v == stream[i].value ? 1 : 2;
        fp.confTrajectory |= outcome << (2 * i);
        left->update(stream[i].pc, stream[i].value);
    }
    return fp;
}

namespace {

/** Score of one generator configuration: conflicts on its stream. */
uint64_t
scoreConfig(const MineTarget &target, const FuzzStreamConfig &gen)
{
    return countConflicts(target, fuzzValueStream(gen));
}

/** Mutate one generator knob in place, seeded. */
void
mutateConfig(Xorshift64Star &rng, FuzzStreamConfig &gen)
{
    switch (rng.below(5)) {
      case 0: { // bump a behavior weight
        unsigned b = static_cast<unsigned>(rng.below(kFuzzBehaviors));
        gen.behaviorWeights[b] += 1 + static_cast<unsigned>(
            rng.below(3));
        break;
      }
      case 1: { // drop a behavior class entirely (if any other stays)
        unsigned b = static_cast<unsigned>(rng.below(kFuzzBehaviors));
        unsigned others = 0;
        for (unsigned i = 0; i < kFuzzBehaviors; ++i)
            if (i != b)
                others += gen.behaviorWeights[i];
        if (others > 0)
            gen.behaviorWeights[b] = 0;
        break;
      }
      case 2: // halve/double the site count within [1, 256]
        if (rng.chancePercent(50))
            gen.sites = std::max(1u, gen.sites / 2);
        else
            gen.sites = std::min(256u, gen.sites * 2);
        break;
      case 3: // reroll how many sites sit at the int64 edges
        gen.wideValuePercent =
            static_cast<unsigned>(rng.below(101));
        break;
      case 4: // reroll the stream sub-seed
      default:
        gen.seed = rng.next();
        break;
    }
}

/**
 * Minimize a conflicting stream beyond plain ddmin. Records after the
 * first conflict are dropped outright (they cannot be needed for *a*
 * conflict to exist), then ddmin runs, then a pairwise-removal
 * fixpoint escapes the contiguous-removal local minima ddmin is
 * allowed to stop in — the streams are a dozen records by then, so
 * the O(n^2) trials are trivially cheap.
 */
std::vector<FuzzRecord>
minimizeWitness(const MineTarget &target,
                std::vector<FuzzRecord> stream, uint64_t maxTrials)
{
    auto conflicts = [&target](const std::vector<FuzzRecord> &c) {
        return countConflicts(target, c) > 0;
    };
    Divergence first;
    if (countConflicts(target, stream, &first) > 0 &&
        first.index + 1 < stream.size())
        stream.resize(first.index + 1);
    stream = shrinkStream(stream, conflicts,
                          ShrinkConfig{maxTrials});
    // Site unification: collapsing every record onto the conflict
    // site shortens the per-PC warm-up the conflict needs, which
    // unlocks removals ddmin alone cannot reach.
    if (countConflicts(target, stream, &first) > 0) {
        std::vector<FuzzRecord> onePc = stream;
        for (auto &r : onePc)
            r.pc = first.pc;
        if (conflicts(onePc))
            stream = shrinkStream(onePc, conflicts,
                                  ShrinkConfig{maxTrials});
    }
    bool improved = true;
    while (improved && stream.size() > 2) {
        improved = false;
        for (size_t i = 0; i < stream.size() && !improved; ++i) {
            for (size_t j = i + 1; j < stream.size() && !improved;
                 ++j) {
                std::vector<FuzzRecord> cand;
                cand.reserve(stream.size() - 2);
                for (size_t k = 0; k < stream.size(); ++k)
                    if (k != i && k != j)
                        cand.push_back(stream[k]);
                if (conflicts(cand)) {
                    stream = shrinkStream(
                        cand, conflicts, ShrinkConfig{maxTrials});
                    improved = true;
                }
            }
        }
    }
    return stream;
}

/** One hill-climb restart; nullopt when no conflict was found. */
std::optional<MinedWitness>
runRestart(const MineConfig &cfg, uint64_t restartSeed)
{
    Xorshift64Star rng(restartSeed);
    FuzzStreamConfig best;
    best.seed = rng.next();
    best.records = cfg.records;
    uint64_t bestScore = scoreConfig(cfg.target, best);

    for (unsigned round = 0; round < cfg.rounds; ++round) {
        FuzzStreamConfig cand = best;
        mutateConfig(rng, cand);
        uint64_t score = scoreConfig(cfg.target, cand);
        if (score > bestScore) {
            best = cand;
            bestScore = score;
        }
    }
    if (bestScore == 0)
        return std::nullopt;

    MinedWitness w;
    w.generator = best;
    w.foundConflicts = bestScore;
    const MineTarget &target = cfg.target;
    w.stream = minimizeWitness(target, fuzzValueStream(best),
                               cfg.shrinkTrials);
    w.conflicts = countConflicts(target, w.stream, &w.first);
    w.digest = streamDigest(w.stream);
    w.fingerprint = fingerprintWitness(target, w.stream);
    return w;
}

} // anonymous namespace

MineReport
mineDisagreements(const MineConfig &cfg)
{
    GDIFF_ASSERT(cfg.restarts >= 1, "mining needs >= 1 restart");
    MineReport report;
    report.targetName = cfg.target.name();

    // Restarts are independent: each derives its own seed from the
    // root seed and its index, runs to completion, and lands in its
    // slot — merged in index order below, so thread count never
    // changes the report.
    std::vector<std::optional<MinedWitness>> found(cfg.restarts);
    runner::ThreadPool pool(cfg.threads);
    pool.forEach(cfg.restarts, [&](size_t r) {
        uint64_t restartSeed =
            cfg.seed + 0x9e3779b97f4a7c15ull * (r + 1);
        found[r] = runRestart(cfg, restartSeed);
    });

    // Deduplicate identical shrunken streams (restarts often converge
    // on the same minimal witness).
    std::vector<uint64_t> seen;
    for (auto &w : found) {
        if (!w)
            continue;
        if (std::find(seen.begin(), seen.end(), w->digest) !=
            seen.end())
            continue;
        seen.push_back(w->digest);
        report.witnesses.push_back(std::move(*w));
    }

    // Cluster by fingerprint key; clusters ordered by key so the
    // report (and its digest) is canonical.
    std::map<std::string, MineCluster> byKey;
    for (size_t i = 0; i < report.witnesses.size(); ++i) {
        const MinedWitness &w = report.witnesses[i];
        MineCluster &c = byKey[w.fingerprint.key()];
        c.fingerprint = w.fingerprint;
        c.members.push_back(i);
    }
    report.digest = kFnvBasis;
    for (auto &[key, cluster] : byKey) {
        cluster.digest = cluster.fingerprint.digest();
        for (size_t m : cluster.members)
            fnvMix64(cluster.digest, report.witnesses[m].digest);
        fnvMix64(report.digest, cluster.digest);
        report.clusters.push_back(std::move(cluster));
    }
    return report;
}

void
printMineReport(const MineReport &report, std::ostream &os)
{
    stats::Table table("blind spots: " + report.targetName, "cluster");
    table.addColumn("fingerprint");
    table.addColumn("witnesses");
    table.addColumn("records");
    table.addColumn("conflicts");
    table.addColumn("digest");
    for (size_t c = 0; c < report.clusters.size(); ++c) {
        const MineCluster &cluster = report.clusters[c];
        const MinedWitness &ex =
            report.witnesses[cluster.members.front()];
        table.beginRow(std::to_string(c));
        table.cell(cluster.fingerprint.key());
        table.cellInt(static_cast<long long>(cluster.members.size()));
        table.cellInt(static_cast<long long>(ex.stream.size()));
        table.cellInt(static_cast<long long>(ex.conflicts));
        table.cell(formatString("%016" PRIx64, cluster.digest));
    }
    table.print(os);
    for (size_t c = 0; c < report.clusters.size(); ++c) {
        const MinedWitness &ex =
            report.witnesses[report.clusters[c].members.front()];
        os << "cluster " << c << " exemplar: " << ex.first.describe()
           << "\n";
    }
    os << formatString("report digest: %016" PRIx64 "\n",
                       report.digest);
}

std::string
mineReportJsonl(const MineReport &report)
{
    std::string out;
    for (size_t c = 0; c < report.clusters.size(); ++c) {
        const MineCluster &cluster = report.clusters[c];
        const MinedWitness &ex =
            report.witnesses[cluster.members.front()];
        const WitnessFingerprint &fp = cluster.fingerprint;
        out += formatString(
            "{\"target\":\"%s\",\"cluster\":%zu,"
            "\"fingerprint\":{\"key\":\"%s\",\"value_period\":%u,"
            "\"pc_period\":%u,\"phases\":%u,\"sign_pattern\":%u,"
            "\"conf_trajectory\":%u},\"witnesses\":%zu,"
            "\"exemplar_records\":%zu,\"exemplar_conflicts\":%" PRIu64
            ",\"exemplar_digest\":\"%016" PRIx64
            "\",\"first\":\"%s\",\"digest\":\"%016" PRIx64 "\"}\n",
            json::escape(report.targetName).c_str(), c,
            json::escape(fp.key()).c_str(), fp.valuePeriod,
            fp.pcPeriod, fp.phases, fp.signPattern, fp.confTrajectory,
            cluster.members.size(), ex.stream.size(), ex.conflicts,
            ex.digest, json::escape(ex.first.describe()).c_str(),
            cluster.digest);
    }
    return out;
}

std::string
mineArtifactName(const std::string &targetName, size_t cluster)
{
    std::string safe = targetName;
    for (char &c : safe)
        if (c == ':' || c == '@')
            c = '_';
    return formatString("gdiffmine_%s_cluster%zu.gdtr", safe.c_str(),
                        cluster);
}

} // namespace check
} // namespace gdiff
