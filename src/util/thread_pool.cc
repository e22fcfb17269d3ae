#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/logging.h"

namespace vmt {

namespace {

/** Set while a thread is executing a pool task, or draining chunks
 *  of its own parallelFor. */
thread_local bool tls_inside_worker = false;

/** Process-wide task telemetry (see ThreadPool::taskStats). Stored
 *  in integer nanoseconds so accumulation is a plain atomic add. */
std::atomic<std::uint64_t> g_tasks_run{0};
std::atomic<std::uint64_t> g_task_busy_ns{0};

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0)
        fatal("ThreadPool requires at least one thread");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            panic("ThreadPool::submit after shutdown");
        queue_.push_back(std::move(packaged));
    }
    cv_.notify_one();
    return future;
}

bool
ThreadPool::insideWorker()
{
    return tls_inside_worker;
}

ThreadPool::TaskStats
ThreadPool::taskStats()
{
    TaskStats stats;
    stats.tasks = g_tasks_run.load(std::memory_order_relaxed);
    stats.busySeconds =
        static_cast<double>(
            g_task_busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    return stats;
}

void
ThreadPool::workerLoop()
{
    tls_inside_worker = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ with a drained queue
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        const auto start = std::chrono::steady_clock::now();
        task(); // Exceptions land in the task's future.
        const auto elapsed =
            std::chrono::steady_clock::now() - start;
        g_tasks_run.fetch_add(1, std::memory_order_relaxed);
        g_task_busy_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count()),
            std::memory_order_relaxed);
    }
}

std::size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("VMT_THREADS")) {
        char *end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || value < 0)
            fatal("VMT_THREADS must be a non-negative integer, got '" +
                  std::string(env) + "'");
        if (value > 0)
            return static_cast<std::size_t>(value);
        // 0 falls through to the hardware default.
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_requested_threads = 0; // 0 = VMT_THREADS/hardware

} // namespace

void
setGlobalThreadCount(std::size_t num_threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool && g_pool->size() ==
                      (num_threads > 0 ? num_threads
                                       : defaultThreadCount())) {
        g_requested_threads = num_threads;
        return; // Already the right size; keep the warm pool.
    }
    g_requested_threads = num_threads;
    g_pool.reset();
}

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool) {
        const std::size_t threads = g_requested_threads > 0
                                        ? g_requested_threads
                                        : defaultThreadCount();
        g_pool = std::make_unique<ThreadPool>(threads);
    }
    return *g_pool;
}

void
parallelFor(ThreadPool &pool, std::size_t begin, std::size_t end,
            std::size_t grain,
            const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain == 0)
        fatal("parallelFor requires grain > 0");

    const std::size_t count = end - begin;
    const std::size_t num_chunks = (count + grain - 1) / grain;
    if (num_chunks == 1 || pool.size() <= 1 ||
        ThreadPool::insideWorker()) {
        // Serial reference path (also taken for nested parallelism;
        // see the header). One call over the whole range keeps the
        // caller's loop fused and cache-friendly.
        fn(begin, end);
        return;
    }

    // Every chunk index is claimed exactly once: by a helper, or by
    // the caller, which keeps claiming until none is left. The caller
    // then waits only for the chunks helpers claimed to finish — not
    // for helpers to be scheduled at all. A helper that starts after
    // the last claim finds nothing and returns without touching fn
    // (which may be gone by then; Control is shared so it is not).
    struct Control
    {
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<bool> failed{false};
        std::mutex mutex;
        std::condition_variable finished;
        /** Chunks run or skipped; guarded by mutex, like error. */
        std::size_t done = 0;
        std::exception_ptr error;
    };
    auto control = std::make_shared<Control>();

    const auto drain = [control, begin, end, grain, num_chunks,
                        &fn]() {
        for (;;) {
            const std::size_t chunk =
                control->nextChunk.fetch_add(1);
            if (chunk >= num_chunks)
                return;
            // After a failure the remaining chunks are claimed and
            // counted but skipped.
            if (!control->failed.load(std::memory_order_relaxed)) {
                const std::size_t chunk_begin = begin + chunk * grain;
                const std::size_t chunk_end =
                    std::min(end, chunk_begin + grain);
                try {
                    fn(chunk_begin, chunk_end);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(control->mutex);
                    if (!control->error)
                        control->error = std::current_exception();
                    control->failed.store(true,
                                          std::memory_order_relaxed);
                }
            }
            bool last = false;
            {
                std::lock_guard<std::mutex> lock(control->mutex);
                last = ++control->done == num_chunks;
            }
            if (last)
                control->finished.notify_all();
        }
    };

    // One helper per worker (capped at the chunk count, minus the
    // calling thread which drains too).
    const std::size_t helpers =
        std::min(pool.size(), num_chunks - 1);
    for (std::size_t i = 0; i < helpers; ++i)
        pool.submit(drain);
    // While the caller drains chunks it is inside the region like any
    // helper: a parallelFor reached from its chunk must run inline
    // too, not queue helpers behind this region's own. (drain()
    // catches everything fn throws, so the flag is always reset.)
    tls_inside_worker = true;
    drain();
    tls_inside_worker = false;
    std::unique_lock<std::mutex> lock(control->mutex);
    control->finished.wait(
        lock, [&] { return control->done == num_chunks; });
    if (control->error)
        std::rethrow_exception(control->error);
}

} // namespace vmt
