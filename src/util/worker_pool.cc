#include "util/worker_pool.hh"

#include <pthread.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace gdiff {
namespace workers {

namespace {

/** An idle worker, waiting for post() to hand it a task. */
struct Idle
{
    std::condition_variable wake;
    std::function<void()> task; ///< guarded by the pool's lock
};

struct Pool
{
    std::mutex lock;
    /// tasks posted while no worker was idle (guarded by lock)
    std::deque<std::function<void()>> tasks;
    /// idle workers, the most recent last (guarded by lock). post()
    /// hands a task to the most recent one, so a small batch keeps to
    /// the same few threads and their malloc arenas.
    std::vector<Idle *> idle;
    /// never joined: the workers run until exit (guarded by lock)
    std::vector<std::thread> threads;
    bool started = false; ///< guarded by lock
    unsigned running = 0; ///< live workers (guarded; 0 after fork())
};

Pool &
pool()
{
    // Never destroyed: workers wait on it until exit. A fork() child
    // has no worker, and must not inherit the lock held.
    static Pool *const p = [] {
        ::pthread_atfork([] { pool().lock.lock(); },
                         [] { pool().lock.unlock(); },
                         [] {
                             pool().running = 0;
                             pool().lock.unlock();
                         });
        return new Pool;
    }();
    return *p;
}

void
runWorker()
{
    Pool &p = pool();
    Idle self;
    std::unique_lock<std::mutex> guard(p.lock);
    for (;;) {
        std::function<void()> task;
        if (p.tasks.empty()) {
            p.idle.push_back(&self);
            self.wake.wait(guard, [&self] { return self.task != nullptr; });
            task = std::exchange(self.task, nullptr);
        } else {
            task = std::move(p.tasks.front());
            p.tasks.pop_front();
        }
        guard.unlock();
        task();
        task = nullptr; // release its captures outside the lock
        guard.lock();
    }
}

} // anonymous namespace

unsigned
count()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
post(std::function<void()> task)
{
    Pool &p = pool();
    std::lock_guard<std::mutex> guard(p.lock);
    if (!p.started) {
        p.started = true;
        try {
            for (const unsigned n = count(); p.running < n; ++p.running)
                p.threads.emplace_back(runWorker);
        } catch (const std::system_error &) {
            // fewer workers: posters do what none takes
        }
        GDIFF_OBS_COUNT("pool.thread_start", p.running);
    }
    if (p.running == 0)
        return;
    if (p.idle.empty()) {
        p.tasks.push_back(std::move(task));
        return;
    }
    Idle *w = p.idle.back();
    p.idle.pop_back();
    w->task = std::move(task);
    w->wake.notify_one();
}

} // namespace workers
} // namespace gdiff
