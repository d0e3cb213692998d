/**
 * @file
 * Shared pieces of the repository benchmark: run options, the report
 * that becomes the last output line, order-independent result
 * digests, and the in-memory span recorder of the traced run.
 *
 * The benchmark drives the gdiff libraries from outside: every span
 * is opened here, around a call into one library layer, never inside
 * the library. A layer's self time is its span's duration minus the
 * durations of its child spans on the same thread.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "runner/sinks.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Worker threads of every batch sweep and clients of serve_warm:
 * sized for a 4-vCPU host, leaving room for the benchmark itself and
 * the daemon's own threads. */
inline constexpr unsigned kThreads = 2;

/** @return seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** @return the median of @p v (0 when empty). */
double median(std::vector<double> v);

/** @return the nearest-rank @p q quantile of @p v, q in (0, 1]. */
double percentile(std::vector<double> v, double q);

/** @return @p num / @p den, or 0 when @p den is not positive. */
double ratio(double num, double den);

/**
 * Hand memory freed by an earlier set-up back to the OS, so that each
 * repeated set-up starts from the same heap and the peak resident set
 * reflects one set-up rather than the leftovers of several.
 */
void releaseFreedMemory();

/** @return the process's peak resident set, in MiB. */
double peakRssMb();

/** What the command line asked for. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    std::string workdir;    ///< scratch directory inside the checkout
    std::string tracecheck; ///< the repo's trace validator binary
    std::string expected;   ///< committed digests (JSON)
};

/**
 * Everything a run reports: operations attempted and failed, the
 * correctness problems found, and the metrics. print() writes one
 * human line per metric and then the JSON result line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Set a per-layer metric of the traced run (see layerMetrics). */
    void layer(const std::string &name, double value);

    /**
     * Append every per-layer metric, in layerMetrics() order. A layer
     * the workload does not exercise reads 0.
     */
    void addLayerMetrics();

    /**
     * Report request_p50_ms and request_p95_ms over @p ms, the
     * latencies of one operation kind (@p what), and print how many
     * samples lie beyond p95.
     */
    void latency(const std::vector<double> &ms, const char *what);

    /** Count one checked operation. */
    void
    op(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Record a correctness problem: the run is reported incorrect. */
    void problem(const std::string &why);

    bool correct() const { return problems.empty() && failed == 0; }

    void print() const;

  private:
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::map<std::string, double> layers;
};

/** The profile_zoo predictor families. */
extern const std::vector<std::string> kFamilies;

/** @return every per-layer metric of the traced run: name and unit,
 * in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** @return the deterministic payload of every record, in index
 * order — what digests and per-job comparisons are computed over. */
std::vector<std::string>
payloads(std::vector<gdiff::runner::JobRecord> records);

/** @return an order-independent FNV-1a digest (16 hex digits) of
 * @p lines: sorted, then hashed with a newline after each. */
std::string digestLines(std::vector<std::string> lines);

/**
 * The digests every run of a workload must reproduce: the one
 * committed for this seed (if any) and the one of the run's own
 * reference pass.
 */
class Expected
{
  public:
    Expected(const Options &opt, Report &report);

    /**
     * Adopt @p lines (index order) as the reference payloads. When a
     * digest is committed for this workload and seed, the reference
     * must match it.
     */
    void setReference(const std::vector<std::string> &lines,
                      const char *what);

    /** @return true when @p lines (index order) equal the
     * reference payloads. */
    bool matches(const std::vector<std::string> &lines) const;

    /**
     * Count each job of one sweep as an operation, failed when its
     * payload differs from the reference or is missing.
     * @return the number of failed jobs.
     */
    size_t checkJobs(const std::vector<std::string> &lines,
                     const char *what) const;

  private:
    Report &report;
    std::string workload;
    uint64_t seed;
    std::string committed;
    std::vector<std::string> reference;
};

/** Collects every delivered record; the sweeps' checking sink. */
class CollectSink : public gdiff::runner::ResultSink
{
  public:
    void onJob(const gdiff::runner::JobRecord &record) override
    {
        records.push_back(record);
    }
    std::vector<gdiff::runner::JobRecord> records;
};

// ------------------------------------------------------------ spans

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span
{
    const char *name = ""; ///< static or interned string
    uint64_t start = 0;
    uint64_t end = 0;
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = root
    uint32_t tid = 0;
    uint64_t op = 0;     ///< job or request id; 0 = none
    std::string args;    ///< extra Chrome-trace args (JSON members)
};

/** @return steady-clock nanoseconds. */
uint64_t nowNs();

/**
 * Process-wide span store. Recording is off until start(); spans are
 * kept in memory and written out once at the end.
 */
class Tracer
{
  public:
    static Tracer &get();

    void start() { on.store(true, std::memory_order_relaxed); }
    void stop() { on.store(false, std::memory_order_relaxed); }
    bool recording() const { return on.load(std::memory_order_relaxed); }

    void add(Span s);
    uint32_t nextId() { return ids.fetch_add(1) + 1; }

    /** @return a copy of the spans recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Write every span as Chrome trace-event JSON (complete "X"
     * events plus thread names). @return false when @p path cannot
     * be written.
     */
    bool writeChrome(const std::string &path) const;

  private:
    std::atomic<bool> on{false};
    std::atomic<uint32_t> ids{0};
    mutable std::mutex lock;
    std::vector<Span> store;
};

/** Per-name totals over a set of spans. */
struct LayerTimes
{
    std::map<std::string, double> self;  ///< seconds
    std::map<std::string, double> total; ///< seconds
    std::map<std::string, uint64_t> count;
};

/** @return totals of the spans that started in [from, to). */
LayerTimes layerTimes(const std::vector<Span> &spans, uint64_t from,
                      uint64_t to);

/** RAII span around one call; a no-op while the tracer is off. */
class ScopedSpan
{
  public:
    /**
     * @param parent explicit parent id (a span opened on another
     *        thread); 0 = the innermost open span of this thread.
     */
    explicit ScopedSpan(const char *name, uint64_t op = 0,
                        uint32_t parent = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t id() const { return span.id; }
    void setArgs(std::string args) { span.args = std::move(args); }

    /** @return seconds since the span opened (valid when off too). */
    double elapsed() const;

  private:
    Span span;
    uint64_t t0;
    bool active;
};

/**
 * Run the repo's tracecheck on @p path. @return true when it accepts
 * the file; its one-line verdict goes to standard output.
 */
bool runTracecheck(const std::string &tracecheck,
                   const std::string &path, uint64_t minSpans);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
