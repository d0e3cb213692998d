/**
 * @file
 * The process's one worker pool, for every thread started for parallel
 * work: sweep jobs and sampled windows (runner::ThreadPool::forEach)
 * and the v3 trace encode (TraceWriter). Only serve::Daemon keeps
 * threads of its own. The workers start at the first post() and live
 * until exit; each runs one task at a time, to its end, so a task's
 * per-thread obs deltas are its own.
 *
 * A posted task runs later, or never: a fork() child has no workers
 * and drops what it is given. So no poster waits for a task to start:
 * each keeps the task's work claimable and does itself what no worker
 * claimed.
 */

#ifndef GDIFF_UTIL_WORKER_POOL_HH
#define GDIFF_UTIL_WORKER_POOL_HH

#include <functional>

namespace gdiff {
namespace workers {

/** @return the pool's worker count: hardware concurrency, min 1. */
unsigned count();

/** Queue @p task, which must not throw, to run once on a worker,
 *  starting the workers on first use (obs `pool.thread_start`). */
void post(std::function<void()> task);

} // namespace workers
} // namespace gdiff

#endif // GDIFF_UTIL_WORKER_POOL_HH
