/**
 * @file
 * Disagreement mining: an AnICA-style inconsistency search over the
 * fuzz generators. Where the differential fuzzer (gdifffuzz) waits
 * for a random stream to expose a production-vs-oracle divergence,
 * the miner *searches* for streams on which two chosen predictors
 * disagree as often as possible — any two members of the factory zoo,
 * or a production predictor against a reference oracle, at any
 * prediction orders.
 *
 * The search is a seeded hill-climb over the fuzz generator's
 * parameters (behavior-class mix, site count, wide-value rate, stream
 * sub-seed), restarted from several independent seeds. Each restart's
 * best stream is ddmin-shrunk with the existing shrinkStream() to a
 * minimal witness, and witnesses are clustered by a feature
 * fingerprint — stride period, phase count, delta sign pattern, and
 * the left predictor's confidence trajectory — so the final report
 * reads as a characterization of the pair's blind spots rather than a
 * pile of raw failures.
 *
 * Everything flows from MineConfig::seed through Xorshift64Star and
 * restarts are merged in index order, so reports (including every
 * digest) are bit-identical across runs and thread counts.
 */

#ifndef GDIFF_CHECK_MINE_HH
#define GDIFF_CHECK_MINE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "check/fuzzer.hh"

namespace gdiff {
namespace check {

/**
 * One side of a mined pair: a predictor family plus how to build it.
 * Production sides are family-table rows (runner/factory.hh) built
 * with unlimited first-level tables; oracle sides are the reference
 * models from makePair().
 */
struct MineSide
{
    std::string family;   ///< factory family or oracle pair name
    bool oracle = false;  ///< reference oracle instead of production
    unsigned order = 0;   ///< history/window order; 0 = family default

    /** @return "gdiff@4" / "ref:gdiff" style label. */
    std::string describe() const;

    /** Construct a fresh predictor instance for this side. */
    std::unique_ptr<predictors::ValuePredictor> build() const;
};

/** The pair of predictors whose disagreements are mined. */
struct MineTarget
{
    MineSide left;  ///< reported as "production" in divergences
    MineSide right; ///< reported as "oracle" in divergences

    /** @return canonical "left-vs-right" label. */
    std::string name() const;
};

/**
 * Parse a target spec of the form `LEFT-vs-RIGHT`, where each side is
 * `[ref:]family[@order]` — e.g. `gdiff-vs-gfcm`, `gdiff@1-vs-gdiff@4`,
 * `gdiff@8-vs-ref:gdiff@8`. Production families are the family
 * table's predictor rows, oracle families pairNames().
 *
 * @return false with @p error set on malformed specs.
 */
bool parseMineTarget(const std::string &text, MineTarget &out,
                     std::string &error);

/**
 * @return the documented default targets the CI smoke mines:
 * cheap-global-vs-context (gdiff-vs-gfcm) and short-vs-long window
 * (gdiff@1-vs-gdiff@4).
 */
const std::vector<std::string> &defaultMineTargets();

/** Knobs for mineDisagreements(). */
struct MineConfig
{
    MineTarget target;
    uint64_t seed = 1;        ///< root of every random decision
    uint64_t records = 4096;  ///< records per candidate stream
    unsigned rounds = 32;     ///< hill-climb steps per restart
    unsigned restarts = 8;    ///< independent search starts
    unsigned threads = 1;     ///< workers for the restarts; 0 = auto
    uint64_t shrinkTrials = 20'000; ///< ddmin budget per witness
};

/**
 * Count the disagreements between the target's two sides on a
 * stream. A *conflict* is a record where both sides produce a
 * prediction and the values differ — the strongest form of
 * disagreement, insensitive to the sides' different warm-up
 * coverage (one-sided predictions are expected between families and
 * are not counted).
 *
 * @param first if non-null, receives the first conflict (left side
 *              reported as "production"); untouched when none.
 */
uint64_t countConflicts(const MineTarget &target,
                        const std::vector<FuzzRecord> &stream,
                        Divergence *first = nullptr);

/**
 * The blind-spot features a shrunken witness is clustered by. Two
 * witnesses with the same fingerprint expose the same *kind* of
 * disagreement even when their concrete values differ.
 */
struct WitnessFingerprint
{
    uint32_t valuePeriod = 1; ///< detectStridePeriod over the values
    uint32_t pcPeriod = 1;    ///< detectStridePeriod over the PCs
    uint32_t phases = 0;      ///< distinct PCs in the witness
    /// bit i set = the i-th value delta is negative (first 16 deltas)
    uint32_t signPattern = 0;
    /// 2 bits per record, first 16 records, replaying the left side:
    /// 0 = no prediction, 1 = correct, 2 = wrong
    uint32_t confTrajectory = 0;

    /** @return the canonical cluster key, e.g. "p1/q1/s3/0x5/0x9a". */
    std::string key() const;

    /** @return a stable 64-bit digest of the fingerprint fields. */
    uint64_t digest() const;
};

/** Compute a witness's fingerprint under @p target. */
WitnessFingerprint
fingerprintWitness(const MineTarget &target,
                   const std::vector<FuzzRecord> &stream);

/** One shrunken disagreement witness. */
struct MinedWitness
{
    std::vector<FuzzRecord> stream; ///< the ddmin-minimized stream
    uint64_t digest = 0;            ///< streamDigest(stream)
    uint64_t conflicts = 0;         ///< conflicts on the witness
    uint64_t foundConflicts = 0;    ///< conflicts on the pre-shrink best
    FuzzStreamConfig generator;     ///< the winning generator config
    WitnessFingerprint fingerprint;
    Divergence first;               ///< first conflict on the witness
};

/** Witnesses sharing one fingerprint. */
struct MineCluster
{
    WitnessFingerprint fingerprint;
    std::vector<size_t> members; ///< indices into MineReport::witnesses
    uint64_t digest = 0; ///< over the fingerprint + member digests
};

/** The per-pair blind-spot report. */
struct MineReport
{
    std::string targetName;
    std::vector<MinedWitness> witnesses; ///< deduplicated, seed order
    std::vector<MineCluster> clusters;   ///< sorted by fingerprint key
    uint64_t digest = 0; ///< over the cluster digests, in order
};

/** Run the full search → shrink → cluster pipeline for one target. */
MineReport mineDisagreements(const MineConfig &cfg);

/** Render the report as an aligned table (one row per cluster). */
void printMineReport(const MineReport &report, std::ostream &os);

/**
 * @return the report as deterministic JSONL, one object per cluster
 * (stable field order, hex digests) — byte-comparable across runs.
 */
std::string mineReportJsonl(const MineReport &report);

/** @return canonical artifact filename for a cluster's exemplar. */
std::string mineArtifactName(const std::string &targetName,
                             size_t cluster);

} // namespace check
} // namespace gdiff

#endif // GDIFF_CHECK_MINE_HH
