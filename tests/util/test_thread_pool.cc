/**
 * @file
 * Unit tests for the parallel-execution layer: ThreadPool task
 * execution, parallelFor chunking/exception rules and parallelMap
 * order preservation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

TEST(ThreadPool, RejectsZeroThreads)
{
    EXPECT_THROW(ThreadPool(0), FatalError);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([&] { ++ran; }));
    for (auto &future : futures)
        future.wait();
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        [] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, InsideWorkerIsVisibleToTasks)
{
    EXPECT_FALSE(ThreadPool::insideWorker());
    ThreadPool pool(2);
    bool inside = false;
    pool.submit([&] { inside = ThreadPool::insideWorker(); }).wait();
    EXPECT_TRUE(inside);
    EXPECT_FALSE(ThreadPool::insideWorker());
}

TEST(ParallelFor, EmptyRangeNeverCallsFn)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(pool, 5, 5, 1,
                [&](std::size_t, std::size_t) { ++calls; });
    parallelFor(pool, 7, 3, 1,
                [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RejectsZeroGrain)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        parallelFor(pool, 0, 4, 0, [](std::size_t, std::size_t) {}),
        FatalError);
}

TEST(ParallelFor, GrainLargerThanRangeRunsOneInlineCall)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    std::size_t seen_begin = 99, seen_end = 0;
    parallelFor(pool, 2, 10, 100,
                [&](std::size_t begin, std::size_t end) {
                    ++calls;
                    seen_begin = begin;
                    seen_end = end;
                });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_begin, 2u);
    EXPECT_EQ(seen_end, 10u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallelFor(pool, 0, kCount, 7,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        ++hits[i];
                });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ChunkBoundariesFollowGrain)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallelFor(pool, 0, 10, 4,
                [&](std::size_t begin, std::size_t end) {
                    std::lock_guard<std::mutex> lock(mutex);
                    chunks.emplace_back(begin, end);
                });
    std::sort(chunks.begin(), chunks.end());
    const std::vector<std::pair<std::size_t, std::size_t>> expected =
        {{0, 4}, {4, 8}, {8, 10}};
    EXPECT_EQ(chunks, expected);
}

TEST(ParallelFor, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(pool, 0, 100, 1,
                    [&](std::size_t begin, std::size_t) {
                        if (begin == 42)
                            throw std::runtime_error("chunk boom");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallRunsInline)
{
    ThreadPool pool(2);
    std::atomic<int> inner_calls{0};
    pool.submit([&] {
            // From inside a worker the nested fan-out must degrade
            // to one serial call (deadlock/oversubscription guard).
            parallelFor(pool, 0, 100, 1,
                        [&](std::size_t, std::size_t) {
                            ++inner_calls;
                        });
        })
        .get();
    EXPECT_EQ(inner_calls.load(), 1);
}

TEST(ParallelFor, ReturnsWithoutWaitingForUnstartedHelpers)
{
    // Both workers are held, so the helpers parallelFor submits queue
    // behind them and cannot start: the caller has to drain all 8
    // chunks itself and must then return without waiting for them.
    ThreadPool pool(2);
    std::promise<void> release;
    const std::shared_future<void> latch = release.get_future().share();
    std::vector<std::future<void>> held;
    for (int i = 0; i < 2; ++i)
        held.push_back(pool.submit([latch] { latch.wait(); }));

    std::atomic<int> chunks{0};
    auto call = std::async(std::launch::async, [&] {
        parallelFor(pool, 0, 8, 1,
                    [&](std::size_t, std::size_t) { ++chunks; });
    });
    const bool returned = call.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    release.set_value();
    call.wait();
    for (std::future<void> &future : held)
        future.wait();
    EXPECT_TRUE(returned)
        << "parallelFor waited for helpers that never got a chunk";
    EXPECT_EQ(chunks.load(), 8);
}

TEST(ParallelMap, PreservesInputOrder)
{
    ThreadPool pool(4);
    const std::vector<int> out = parallelMap<int>(
        pool, 257, 3, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelMap, WorksWithMoveOnlyResults)
{
    ThreadPool pool(2);
    const auto out = parallelMap<std::unique_ptr<int>>(
        pool, 10, 1, [](std::size_t i) {
            return std::make_unique<int>(static_cast<int>(i));
        });
    ASSERT_EQ(out.size(), 10u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(*out[i], static_cast<int>(i));
}

TEST(GlobalPool, ThreadCountKnobResizesPool)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalPool().size(), 3u);
    setGlobalThreadCount(1);
    EXPECT_EQ(globalPool().size(), 1u);
    setGlobalThreadCount(0); // Back to auto.
    EXPECT_GE(globalPool().size(), 1u);
    EXPECT_EQ(globalPool().size(), defaultThreadCount());
}

TEST(GlobalPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(defaultThreadCount(), 1u);
}

} // namespace
} // namespace vmt
