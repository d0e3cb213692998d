/**
 * @file
 * gdiffd — the simulation-as-a-service daemon.
 *
 * A Daemon turns the repo's batch sweep machinery into a long-lived
 * server: clients connect over a Unix-domain socket, submit sweep
 * grids (serve/protocol.hh), and get per-job results streamed back
 * as they complete. What the daemon adds over running gdiffrun per
 * experiment:
 *
 *  - a single TraceCache spanning *all* requests for the daemon's
 *    lifetime, so repeated sweeps over the same (workload, seed,
 *    budget) triples replay materialized traces instead of paying
 *    functional regeneration per process;
 *  - admission control: a bounded job queue shared by every client.
 *    A submit that would overflow it is answered with a "rejected"
 *    backpressure frame (queue occupancy + capacity included) and
 *    costs nothing;
 *  - per-client round-robin fairness: each connection has its own
 *    FIFO of admitted jobs and the worker pool services connections
 *    in rotation, one job at a time, so a 1000-job sweep cannot
 *    starve a 4-job sweep that arrived later;
 *  - graceful drain: on SIGTERM (or a "shutdown" request) the daemon
 *    stops admitting, finishes every queued and running job, streams
 *    the remaining results and sweep_done frames, then exits.
 *
 * Threading model: one accept thread, one reader thread per
 * connection, and a fixed worker pool executing jobs via
 * runner::runJob against the daemon-owned cache. Results are written
 * under a per-connection write lock so frames never interleave.
 * Lock order: a connection's write lock may be taken before the
 * scheduler lock (submit acks), never the other way around.
 *
 * Everything is in-process testable: tests and perfbench
 * construct a Daemon directly, point clients at its socket, and
 * drain it — no fork/exec involved.
 */

#ifndef GDIFF_SERVE_DAEMON_HH
#define GDIFF_SERVE_DAEMON_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/trace_cache.hh"

namespace gdiff {
namespace serve {

/** Daemon construction knobs. */
struct DaemonConfig
{
    std::string socketPath;  ///< Unix-domain socket to listen on
    unsigned workers = 0;    ///< job workers; 0 = hardware threads
    /// admission cap: total jobs queued (not yet running) across all
    /// clients; a submit that would exceed it is rejected
    size_t maxQueuedJobs = 1024;
    /// byte cap for the daemon's trace cache; 0 = the cache default
    size_t traceCacheBytes = 0;
    /// persistent trace-cache root; empty = GDIFF_TRACE_CACHE_DIR
    /// (when set) or no disk tier
    std::string traceCacheDir;
    /// byte cap for the persistent tier; 0 = the tier's default
    size_t traceCacheDiskBytes = 0;
};

/** Live scheduler counters, as reported by the status endpoint. */
struct DaemonStats
{
    size_t queuedJobs = 0;   ///< admitted, not yet running
    size_t runningJobs = 0;  ///< currently on a worker
    uint64_t completedJobs = 0;
    /// jobs purged because their client disconnected mid-sweep
    uint64_t droppedJobs = 0;
    uint64_t acceptedSweeps = 0;
    uint64_t rejectedSweeps = 0; ///< backpressure rejections
    size_t connectedClients = 0;
    bool draining = false;
    workload::TraceCache::Stats traceCache;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);

    /** Drains and joins if the caller never did. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind the socket and spawn the accept and worker threads.
     * @return true when listening; false with @p error set.
     */
    bool start(std::string *error);

    /**
     * Begin graceful drain: stop accepting connections and admitting
     * sweeps, let queued and running jobs finish. Idempotent, safe
     * from any thread (the shutdown request handler calls it).
     */
    void requestDrain();

    /**
     * Block until a requested drain completes, then join every
     * thread, close every connection, and remove the socket file.
     * Blocks indefinitely if no one ever calls requestDrain().
     */
    void waitUntilDrained();

    /** @return a point-in-time scheduler snapshot. */
    DaemonStats stats() const;

    /** @return the number of job workers actually running. */
    unsigned workers() const;

    const std::string &socketPath() const { return cfgSocketPath; }

  private:
    struct Impl;
    Impl *impl;
    std::string cfgSocketPath;
};

} // namespace serve
} // namespace gdiff

#endif // GDIFF_SERVE_DAEMON_HH
