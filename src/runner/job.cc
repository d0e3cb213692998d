#include "runner/job.hh"

#include <sstream>

#include "core/gdiff2.hh"
#include "core/gvq.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace runner {

const char *
jobModeName(JobMode mode)
{
    return mode == JobMode::Profile ? "profile" : "pipeline";
}

void
JobSpec::validate() const
{
    std::string error;
    if (!validateOr(&error))
        fatal("%s", error.c_str());
}

bool
JobSpec::validateOr(std::string *error) const
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };
    if (instructions == 0) {
        return fail("job " + label() +
                    ": instructions must be > 0 (nothing would be "
                    "measured)");
    }
    if (warmup >= instructions) {
        std::ostringstream os;
        os << "job " << label() << ": warmup (" << warmup
           << ") must be smaller than instructions (" << instructions
           << ")";
        return fail(os.str());
    }
    if (sampleBudget != 0) {
        if (sampleWindow == 0) {
            return fail("job " + label() +
                        ": sample window length must be > 0");
        }
        if (sampleWindow > instructions) {
            std::ostringstream os;
            os << "job " << label() << ": sample window ("
               << sampleWindow
               << " records) is longer than the measured region ("
               << instructions << " records)";
            return fail(os.str());
        }
        if (sampleBudget < sampleWindow) {
            std::ostringstream os;
            os << "job " << label() << ": sample budget ("
               << sampleBudget << ") fits zero windows of "
               << sampleWindow << " records";
            return fail(os.str());
        }
    }
    // The predictor and scheme constructors assert these limits, so
    // a spec from outside the program must fail here, not abort.
    const std::string &family =
        mode == JobMode::Profile ? predictor : scheme;
    unsigned minOrder = 0, maxOrder = 0; // 0: the family has no order
    if (family == "gdiff" || family == "sgvq" || family == "hgvq") {
        minOrder = 1;
        maxOrder = core::maxOrder;
    } else if (family == "gdiff2") {
        minOrder = core::gdiff2MinOrder;
        maxOrder = core::gdiff2MaxOrder;
    }
    if (maxOrder != 0 && (order < minOrder || order > maxOrder)) {
        std::ostringstream os;
        os << "job " << label() << ": " << family << " order " << order
           << " is out of range (" << minOrder << ".." << maxOrder
           << ")";
        return fail(os.str());
    }
    if (tableEntries != 0 && !isPowerOfTwo(tableEntries)) {
        std::ostringstream os;
        os << "job " << label() << ": table size " << tableEntries
           << " is not a power of two (0 = unlimited)";
        return fail(os.str());
    }
    // Past the cap, building the table alone would exhaust memory.
    if (tableEntries > maxTableEntries) {
        std::ostringstream os;
        os << "job " << label() << ": table size " << tableEntries
           << " is above the " << maxTableEntries << "-entry limit";
        return fail(os.str());
    }
    return true;
}

std::string
JobSpec::key() const
{
    std::ostringstream os;
    os << "mode=" << jobModeName(mode) << " workload=" << workload;
    if (mode == JobMode::Profile)
        os << " predictor=" << predictor;
    else
        os << " scheme=" << scheme;
    os << " order=" << order << " table=" << tableEntries
       << " seed=" << seed << " instructions=" << instructions
       << " warmup=" << warmup;
    // Sampling changes what a job computes, so it is part of the
    // identity — but only when on, keeping every pre-sampling
    // manifest and result file joinable.
    if (sampleBudget != 0) {
        os << " sample_budget=" << sampleBudget
           << " sample_window=" << sampleWindow
           << " sample_seed=" << sampleSeed;
    }
    return os.str();
}

std::string
JobSpec::label() const
{
    std::ostringstream os;
    os << workload << '/'
       << (mode == JobMode::Profile ? predictor : scheme);
    os << "[o=" << order << ",s=" << seed << ']';
    return os.str();
}

double
JobResult::metric(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : metrics)
        if (k == name)
            return v;
    return fallback;
}

} // namespace runner
} // namespace gdiff
