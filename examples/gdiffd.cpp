/**
 * @file
 * gdiffd — the persistent sweep daemon.
 *
 * Runs the src/serve daemon in the foreground: binds a Unix-domain
 * socket, accepts gdiffctl clients, and executes their sweep grids on
 * a shared worker pool with one trace cache spanning every request.
 * SIGTERM/SIGINT (or a client "shutdown" request) trigger a graceful
 * drain: queued and running jobs finish and stream out before exit.
 *
 *   gdiffd --socket /tmp/gdiffd.sock --workers 4 &
 *   gdiffctl --socket /tmp/gdiffd.sock submit \
 *       --grid 'workload=mcf;predictor=stride,gdiff'
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/obs.hh"
#include "serve/daemon.hh"
#include "util/parse.hh"

using namespace gdiff;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket=PATH       Unix-domain socket to listen on "
        "(required)\n"
        "  --workers=N         job worker threads (default: hardware "
        "concurrency)\n"
        "  --queue-cap=N       max queued jobs across all clients "
        "before\n"
        "                      submits are rejected (default 1024)\n"
        "  --trace-cache-mb=N  cap the shared trace cache at N MiB\n"
        "  --trace-cache-dir=DIR  persist generated traces under DIR\n"
        "                      so a restarted daemon replays them from\n"
        "                      disk (GDIFF_TRACE_CACHE_DIR sets the\n"
        "                      default)\n"
        "  --trace-cache-disk-mb=N  cap the persistent tier at N MiB\n"
        "                      (default 2048)\n",
        argv0);
    std::exit(2);
}

// Self-pipe: the handler may only make async-signal-safe calls, so it
// writes one byte and the watcher thread does the real drain work.
int signalPipe[2] = {-1, -1};

void
onSignal(int)
{
    char byte = 1;
    // The pipe can't meaningfully fail here; a full pipe means a
    // drain is already pending.
    [[maybe_unused]] ssize_t n = write(signalPipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::DaemonConfig cfg;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto take = [&](const char *key, std::string &dest) {
            std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) == 0) {
                dest = a.substr(prefix.size());
                return true;
            }
            if (a == key && i + 1 < argc) {
                dest = argv[++i];
                return true;
            }
            return false;
        };
        std::string v;
        if (take("--socket", cfg.socketPath)) {
        } else if (take("--workers", v)) {
            cfg.workers = static_cast<unsigned>(
                parseU64Flag("--workers", v.c_str(), true));
        } else if (take("--queue-cap", v)) {
            cfg.maxQueuedJobs = static_cast<size_t>(
                parseU64Flag("--queue-cap", v.c_str()));
        } else if (take("--trace-cache-mb", v)) {
            cfg.traceCacheBytes =
                static_cast<size_t>(parseU64Flag("--trace-cache-mb",
                                                 v.c_str(), true)) *
                (size_t(1) << 20);
        } else if (take("--trace-cache-dir", cfg.traceCacheDir)) {
        } else if (take("--trace-cache-disk-mb", v)) {
            cfg.traceCacheDiskBytes =
                static_cast<size_t>(
                    parseU64Flag("--trace-cache-disk-mb", v.c_str(),
                                 true)) *
                (size_t(1) << 20);
        } else {
            usage(argv[0]);
        }
    }
    if (cfg.socketPath.empty())
        usage(argv[0]);

    // The status endpoint serves latency percentiles out of the obs
    // histograms, so instrumentation is always on in the daemon.
    obs::setEnabled(true);

    if (pipe(signalPipe) != 0) {
        std::perror("gdiffd: pipe");
        return 1;
    }
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    serve::Daemon daemon(cfg);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "gdiffd: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "gdiffd: listening on %s (%u workers, queue cap "
                 "%zu)\n",
                 daemon.socketPath().c_str(), daemon.workers(),
                 cfg.maxQueuedJobs);

    std::thread signalWatcher([&] {
        char byte;
        if (read(signalPipe[0], &byte, 1) == 1) {
            std::fprintf(stderr,
                         "gdiffd: signal received, draining\n");
            daemon.requestDrain();
        }
    });

    // Blocks until a drain is requested — by a signal or by a client
    // shutdown frame — and fully completed.
    daemon.waitUntilDrained();

    // A client-initiated shutdown leaves the watcher blocked on the
    // pipe; feed it a byte so it can exit (requestDrain is idempotent).
    onSignal(0);
    signalWatcher.join();
    close(signalPipe[0]);
    close(signalPipe[1]);

    serve::DaemonStats st = daemon.stats();
    std::fprintf(stderr,
                 "gdiffd: drained: %llu jobs completed, %llu dropped, "
                 "%llu sweeps accepted, %llu rejected\n",
                 static_cast<unsigned long long>(st.completedJobs),
                 static_cast<unsigned long long>(st.droppedJobs),
                 static_cast<unsigned long long>(st.acceptedSweeps),
                 static_cast<unsigned long long>(st.rejectedSweeps));
    return 0;
}
