#include "runner/sweep_spec.hh"

#include <limits>
#include <sstream>
#include <string>

#include "util/logging.hh"
#include "util/parse.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace runner {

namespace {

/** Split @p text on @p sep; empty pieces are dropped. */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, sep))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** Effective axis values: the list itself, or the fallback. */
template <typename T>
std::vector<T>
axisOr(const std::vector<T> &axis, std::vector<T> fallback)
{
    return axis.empty() ? std::move(fallback) : axis;
}

} // anonymous namespace

size_t
SweepSpec::jobCount() const
{
    auto dim = [](size_t n) { return n == 0 ? size_t(1) : n; };
    size_t variants = mode == JobMode::Profile ? predictors.size()
                                               : schemes.size();
    return dim(workloads.empty() ? workload::specWorkloadNames().size()
                                 : workloads.size()) *
           dim(variants) * dim(orders.size()) * dim(tables.size()) *
           dim(seeds.size()) * dim(instructionWindows.size());
}

std::vector<JobSpec>
SweepSpec::expand() const
{
    auto wl = axisOr(workloads, workload::specWorkloadNames());
    auto variants = mode == JobMode::Profile
                        ? axisOr(predictors, {"stride"})
                        : axisOr(schemes, {"baseline"});
    auto ord = axisOr(orders, {8u});
    auto tab = axisOr(tables, {uint64_t(8192)});
    auto sd = axisOr(seeds, {uint64_t(1)});
    auto windows = axisOr(instructionWindows, {defaultInstructions});

    std::vector<JobSpec> jobs;
    jobs.reserve(wl.size() * variants.size() * ord.size() *
                 tab.size() * sd.size() * windows.size());
    for (const auto &w : wl)
        for (const auto &v : variants)
            for (unsigned o : ord)
                for (uint64_t t : tab)
                    for (uint64_t s : sd)
                        for (uint64_t insts : windows) {
                            JobSpec j;
                            j.workload = w;
                            j.mode = mode;
                            if (mode == JobMode::Profile)
                                j.predictor = v;
                            else
                                j.scheme = v;
                            j.order = o;
                            j.tableEntries = t;
                            j.seed = s;
                            j.instructions = insts;
                            j.warmup = warmup;
                            j.sampleBudget = sampleBudget;
                            j.sampleWindow = sampleWindow;
                            j.sampleSeed = sampleSeed;
                            jobs.push_back(std::move(j));
                        }
    return jobs;
}

SweepSpec
SweepSpec::parseGrid(const std::string &grid)
{
    SweepSpec spec;
    std::string error;
    if (!tryParseGrid(grid, spec, &error))
        fatal("--grid: %s", error.c_str());
    return spec;
}

bool
SweepSpec::tryParseGrid(const std::string &grid, SweepSpec &out,
                        std::string *error)
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };

    SweepSpec spec;
    bool mode_set = false;
    bool scheme_seen = false;
    for (const auto &clause : split(grid, ';')) {
        auto eq = clause.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("expected key=v1,v2,... in '" + clause + "'");
        std::string axis = clause.substr(0, eq);
        std::vector<std::string> values =
            split(clause.substr(eq + 1), ',');
        if (values.empty())
            return fail("axis '" + axis + "' has no values");

        std::string badValue;
        auto numeric = [&](bool allow_zero,
                           std::vector<uint64_t> &dest) {
            dest.clear();
            for (const auto &v : values) {
                uint64_t parsed = 0;
                if (parseU64(v.c_str(), parsed, allow_zero) !=
                    ParseU64Error::Ok) {
                    badValue = v;
                    return false;
                }
                dest.push_back(parsed);
            }
            return true;
        };
        auto badNumber = [&](const std::string &axisName) {
            return fail("axis '" + axisName + "': invalid number '" +
                        badValue + "'");
        };

        if (axis == "workload") {
            spec.workloads = values;
        } else if (axis == "predictor") {
            spec.predictors = values;
        } else if (axis == "scheme") {
            spec.schemes = values;
            scheme_seen = true;
        } else if (axis == "order") {
            std::vector<uint64_t> parsed;
            if (!numeric(false, parsed))
                return badNumber(axis);
            spec.orders.clear();
            for (uint64_t v : parsed) {
                if (v > std::numeric_limits<unsigned>::max()) {
                    return fail("axis 'order': " + std::to_string(v) +
                                " is out of range");
                }
                spec.orders.push_back(static_cast<unsigned>(v));
            }
        } else if (axis == "table") {
            if (!numeric(true, spec.tables)) // 0 = unlimited
                return badNumber(axis);
        } else if (axis == "seed") {
            if (!numeric(true, spec.seeds))
                return badNumber(axis);
        } else if (axis == "instructions") {
            if (!numeric(false, spec.instructionWindows))
                return badNumber(axis);
        } else if (axis == "mode") {
            if (values.size() != 1)
                return fail("mode takes exactly one value");
            if (values[0] == "profile") {
                spec.mode = JobMode::Profile;
            } else if (values[0] == "pipeline") {
                spec.mode = JobMode::Pipeline;
            } else {
                return fail("unknown mode '" + values[0] +
                            "' (expected profile|pipeline)");
            }
            mode_set = true;
        } else {
            return fail("unknown axis '" + axis +
                        "' (expected workload, predictor, scheme, "
                        "order, table, seed, instructions, or mode)");
        }
    }
    if (!mode_set && scheme_seen)
        spec.mode = JobMode::Pipeline;
    if (spec.mode == JobMode::Profile && !spec.schemes.empty())
        return fail("scheme axis requires mode=pipeline");
    if (spec.mode == JobMode::Pipeline && !spec.predictors.empty())
        return fail("predictor axis requires mode=profile");
    out = std::move(spec);
    return true;
}

} // namespace runner
} // namespace gdiff
