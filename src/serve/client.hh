/**
 * @file
 * Client side of the gdiffd protocol: connect, submit a sweep,
 * stream the per-job results back, query status. Used by the
 * gdiffctl CLI, perfbench's serve_warm, and the protocol tests; all
 * the wire details live in serve/protocol.hh.
 *
 * Every call reports failure through a returned false plus an error
 * string — a client library must never fatal() out of a caller that
 * may want to retry or fail over to in-process execution.
 */

#ifndef GDIFF_SERVE_CLIENT_HH
#define GDIFF_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "runner/job.hh"
#include "serve/socket.hh"

namespace gdiff {
namespace serve {

/** What to submit. */
struct SubmitRequest
{
    std::string grid;          ///< gdiffrun --grid syntax
    std::string client;        ///< name for fairness/obs attribution
    uint64_t instructions = 0; ///< 0 = daemon/grid default
    uint64_t warmup = 0;       ///< 0 = grid default
    /// 0 = full-trace simulation; non-zero requests sampled
    /// simulation with this many timing-simulated records per job
    uint64_t sampleBudget = 0;
    uint64_t sampleWindow = 4096; ///< records per measured window
    uint64_t sampleSeed = 1;      ///< window-selection seed
};

/** The daemon's sweep_done summary. */
struct SweepOutcome
{
    uint64_t sweep = 0;      ///< daemon-assigned sweep id
    size_t jobs = 0;         ///< jobs executed
    size_t generated = 0;    ///< jobs that materialized a trace
    size_t replayed = 0;     ///< jobs served from the daemon cache
    double wallSeconds = 0;  ///< submit-to-done, daemon-side
};

/** One connection to a gdiffd daemon. */
class Client
{
  public:
    Client() = default;

    /** Connect to the daemon socket at @p path. */
    bool connect(const std::string &path, std::string *error);

    bool connected() const { return sock.valid(); }

    /** Close the connection (dropping any in-flight sweep). */
    void close() { sock.reset(); }

    /**
     * Submit @p request and block until the daemon acks it. A
     * "rejected" backpressure answer is reported as failure with the
     * daemon's reason in @p error.
     */
    bool submit(const SubmitRequest &request, std::string *error);

    /**
     * After a successful submit(): deliver each arriving job record
     * to @p onJob (in completion order) until the sweep_done frame.
     *
     * @param onJob   may be null.
     * @param outcome filled with the daemon's summary; may be null.
     * @return true when the sweep completed.
     */
    bool streamResults(
        const std::function<void(const runner::JobRecord &)> &onJob,
        SweepOutcome *outcome, std::string *error);

    /** @return the daemon's status_ok JSON document in @p statusJson. */
    bool status(std::string *statusJson, std::string *error);

    /** Liveness probe. */
    bool ping(std::string *error);

    /** Ask the daemon to drain and exit. */
    bool shutdown(std::string *error);

    /** Expose the raw fd for protocol edge-case tests. */
    int fd() const { return sock.get(); }

  private:
    /** Read one frame and parse it as a JSON object. */
    bool readMessage(std::string &payload, std::string *error);

    Fd sock;
};

} // namespace serve
} // namespace gdiff

#endif // GDIFF_SERVE_CLIENT_HH
