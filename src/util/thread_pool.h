/**
 * @file
 * Parallel-execution layer: a fixed-size thread pool plus
 * deterministic fan-out helpers.
 *
 * Everything the simulator parallelizes — datacenter cluster fan-out,
 * bench sweep points, chunked thermal stepping — goes through this
 * file so the determinism rules live in one place:
 *
 *  - parallelFor() hands out fixed [begin, end) index ranges; which
 *    thread runs a range never affects what the range computes.
 *  - parallelMap() writes result i into slot i, so output order is
 *    input order regardless of completion order.
 *  - Floating-point reductions are the *caller's* job and must be
 *    performed in index order on the calling thread (see
 *    Cluster::stepThermal for the pattern); the helpers never sum
 *    across tasks themselves.
 *
 * Nested parallelism runs inline: a parallelFor() issued from inside
 * a pool worker — or from a chunk the calling thread runs of its own
 * parallelFor() — executes serially on that thread, which both avoids
 * queue-deadlock (an outer task blocking on inner tasks that can
 * never be scheduled) and oversubscription when runDatacenter's
 * cluster fan-out or vmtserve's shard fan-out reaches
 * Cluster::stepThermal.
 *
 * The pool size comes from, in priority order: setGlobalThreadCount()
 * (the --threads flag), the VMT_THREADS environment variable, then
 * std::thread::hardware_concurrency().
 */

#ifndef VMT_UTIL_THREAD_POOL_H
#define VMT_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace vmt {

/** Fixed-size worker pool; tasks run FIFO. */
class ThreadPool
{
  public:
    /**
     * Spawn `num_threads` workers (>= 1 required). A one-thread pool
     * is valid — the fan-out helpers then run inline on the caller,
     * which is the reference serial path.
     */
    explicit ThreadPool(std::size_t num_threads);

    /** Joins all workers; outstanding tasks finish first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count the pool was built with. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Enqueue a task. The future completes when the task ran (or
     * rethrows what the task threw).
     */
    std::future<void> submit(std::function<void()> task);

    /** True on a thread currently executing a pool task (any pool)
     *  or draining chunks of its own parallelFor(). */
    static bool insideWorker();

    /**
     * Process-wide task-execution telemetry (all pools): tasks run
     * and wall seconds spent inside them. Maintained with relaxed
     * atomics; the observability layer publishes deltas of these
     * under `profile.pool.*` — like every `profile.` metric they are
     * wall-clock derived and carry no determinism guarantee.
     */
    struct TaskStats
    {
        std::uint64_t tasks = 0;
        double busySeconds = 0.0;
    };
    static TaskStats taskStats();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Thread count resolved from VMT_THREADS (falling back to
 * hardware_concurrency, minimum 1). Does not consult
 * setGlobalThreadCount(); use globalPool().size() for the effective
 * count.
 */
std::size_t defaultThreadCount();

/**
 * Override the global pool's size (the --threads knob). 0 restores
 * the VMT_THREADS/hardware default. Rebuilds the pool on next
 * globalPool() call; do not call concurrently with running parallel
 * work.
 */
void setGlobalThreadCount(std::size_t num_threads);

/** The process-wide pool, created lazily at the configured size. */
ThreadPool &globalPool();

/**
 * Run fn(chunk_begin, chunk_end) over [begin, end) split into chunks
 * of `grain` indices (the final chunk may be short). Chunk boundaries
 * depend only on (begin, end, grain) — never on the thread count — so
 * per-chunk results are reproducible across pool sizes. Runs inline
 * (single fn(begin, end) call) when the range fits one grain, the
 * pool has one thread, or the caller is already inside a parallel
 * region (a pool worker, or a caller running chunks of an enclosing
 * parallelFor).
 *
 * The calling thread participates in chunk execution and returns once
 * every chunk has run — it does not wait for helpers that were never
 * scheduled in time to claim one (they exit without calling fn). The
 * first exception thrown by fn is rethrown on the caller after all
 * chunks settle; remaining chunks are skipped.
 */
void parallelFor(ThreadPool &pool, std::size_t begin, std::size_t end,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)> &fn);

/**
 * Order-preserving map: out[i] = fn(i) for i in [0, count), computed
 * in parallel. Results land in input order regardless of which thread
 * finished first.
 */
template <typename R, typename Fn>
std::vector<R>
parallelMap(ThreadPool &pool, std::size_t count, std::size_t grain,
            Fn &&fn)
{
    std::vector<std::optional<R>> slots(count);
    parallelFor(pool, 0, count, grain,
                [&](std::size_t chunk_begin, std::size_t chunk_end) {
                    for (std::size_t i = chunk_begin; i < chunk_end;
                         ++i)
                        slots[i].emplace(fn(i));
                });
    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R> &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace vmt

#endif // VMT_UTIL_THREAD_POOL_H
