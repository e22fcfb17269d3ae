/**
 * @file
 * Unit tests for the bounded ingress ring between a JobFeed and the
 * serving driver's admission step: FIFO order across wraparound,
 * capacity-bounded bulk push, bulk consume over the two contiguous
 * runs of a wrapped ring (budget, deadline expiry, requeue), the
 * shed-policy clear(), and the snapshot round trip and its input
 * checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "serve/ingress_queue.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt::serve {
namespace {

FeedJob
job(double time)
{
    return FeedJob{time, WorkloadType::WebSearch, 60.0};
}

std::vector<FeedJob>
jobs(double first, int count)
{
    std::vector<FeedJob> out;
    for (int i = 0; i < count; ++i)
        out.push_back(job(first + i));
    return out;
}

/** Push @p count jobs timed first, first + 1, ...; returns accepted. */
std::size_t
pushJobs(IngressQueue &q, double first, int count)
{
    return q.push(jobs(first, count));
}

/** Pop up to @p n entries; returns their times in pop order. */
std::vector<double>
popTimes(IngressQueue &q, std::size_t n)
{
    std::vector<double> times;
    q.consume([&](std::span<const FeedJob> run) {
        std::size_t k = 0;
        for (; k < run.size() && times.size() < n; ++k)
            times.push_back(run[k].time);
        return k;
    });
    return times;
}

std::vector<double>
drain(IngressQueue &q)
{
    return popTimes(q, q.size());
}

std::vector<double>
range(double first, double last)
{
    std::vector<double> out;
    for (double t = first; t <= last; t += 1.0)
        out.push_back(t);
    return out;
}

TEST(IngressQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(IngressQueue(0), FatalError);
}

TEST(IngressQueue, FifoAcrossWraparound)
{
    IngressQueue q(4);
    // Fill, drain two, refill: the ring head wraps.
    EXPECT_EQ(pushJobs(q, 0, 4), 4u);
    EXPECT_EQ(pushJobs(q, 99, 1), 0u); // Full: shed, not queued.
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(popTimes(q, 2), range(0, 1));
    EXPECT_EQ(pushJobs(q, 4, 2), 2u);
    EXPECT_EQ(pushJobs(q, 99, 1), 0u);
    EXPECT_EQ(drain(q), range(2, 5));
    EXPECT_TRUE(q.empty());
}

TEST(IngressQueue, BulkPushPartiallyAcceptsAcrossWrap)
{
    IngressQueue q(6);
    ASSERT_EQ(pushJobs(q, 0, 4), 4u);
    ASSERT_EQ(popTimes(q, 1), range(0, 0));
    // Head at 1, three queued: the free space runs from slot 4 over
    // the end of the ring back to slot 0. Only a prefix fits.
    EXPECT_EQ(pushJobs(q, 10, 5), 3u);
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(pushJobs(q, 99, 1), 0u);
    const std::vector<double> expected = {1, 2, 3, 10, 11, 12};
    EXPECT_EQ(drain(q), expected);
}

TEST(IngressQueue, ConsumeSeesAtMostTwoRuns)
{
    IngressQueue q(6);
    ASSERT_EQ(pushJobs(q, 0, 6), 6u);
    ASSERT_EQ(popTimes(q, 4).size(), 4u);
    ASSERT_EQ(pushJobs(q, 6, 3), 3u); // Slots 4, 5, then 0, 1, 2.
    std::vector<std::size_t> runs;
    const std::size_t popped =
        q.consume([&](std::span<const FeedJob> run) {
            runs.push_back(run.size());
            return run.size();
        });
    EXPECT_EQ(popped, 5u);
    EXPECT_EQ(runs, (std::vector<std::size_t>{2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(IngressQueue, BudgetBoundedConsumeAcrossWrap)
{
    IngressQueue q(6);
    ASSERT_EQ(pushJobs(q, 0, 6), 6u);
    ASSERT_EQ(popTimes(q, 4).size(), 4u);
    ASSERT_EQ(pushJobs(q, 6, 3), 3u); // Queued 4 5 | 6 7 8.

    // A budget of 3 takes the first run whole and one entry of the
    // second; the rest stays queued in order.
    std::vector<FeedJob> admitted;
    const std::size_t budget = 3;
    const std::size_t popped =
        q.consume([&](std::span<const FeedJob> run) {
            const std::size_t take =
                std::min(run.size(), budget - admitted.size());
            admitted.insert(admitted.end(), run.begin(),
                            run.begin() +
                                static_cast<std::ptrdiff_t>(take));
            return take;
        });
    EXPECT_EQ(popped, 3u);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0].time, 4.0);
    EXPECT_EQ(admitted[2].time, 6.0);
    EXPECT_EQ(drain(q), range(7, 8));
}

TEST(IngressQueue, DeadlineExpiryAcrossWrapIsNotChargedToBudget)
{
    IngressQueue q(6);
    ASSERT_EQ(pushJobs(q, 0, 6), 6u);
    ASSERT_EQ(popTimes(q, 4).size(), 4u);
    // Queued, oldest first: 4 5 | 0.5 7 1.5 — a requeued ring is not
    // time-sorted, so stale entries sit on both sides of the wrap.
    const std::vector<FeedJob> tail = {job(0.5), job(7), job(1.5)};
    ASSERT_EQ(q.push(tail), 3u);

    // The driver's degraded-mode pop: expired entries are popped and
    // counted but do not use up the budget of 2.
    const double cutoff = 4.5;
    const std::size_t budget = 2;
    std::vector<double> admitted;
    std::size_t expired = 0;
    const std::size_t popped =
        q.consume([&](std::span<const FeedJob> run) {
            std::size_t k = 0;
            for (; k < run.size() && admitted.size() < budget; ++k) {
                if (run[k].time < cutoff)
                    ++expired;
                else
                    admitted.push_back(run[k].time);
            }
            return k;
        });
    EXPECT_EQ(admitted, (std::vector<double>{5, 7}));
    EXPECT_EQ(expired, 2u); // 4 and 0.5.
    EXPECT_EQ(popped, 4u);
    EXPECT_EQ(drain(q), (std::vector<double>{1.5}));
}

TEST(IngressQueue, RequeuedTailKeepsFifoOrder)
{
    IngressQueue q(8);
    ASSERT_EQ(pushJobs(q, 0, 8), 8u);
    ASSERT_EQ(popTimes(q, 5).size(), 5u);
    ASSERT_EQ(pushJobs(q, 8, 4), 4u); // Queued 5 6 7 | 8 9 10 11.

    // Admit a budget of 5, route the first 2, requeue the other 3
    // behind what stayed queued.
    std::vector<FeedJob> admitted;
    q.consume([&](std::span<const FeedJob> run) {
        const std::size_t take = std::min(run.size(), 5 - admitted.size());
        admitted.insert(admitted.end(), run.begin(),
                        run.begin() + static_cast<std::ptrdiff_t>(take));
        return take;
    });
    ASSERT_EQ(admitted.size(), 5u);
    const std::size_t routed = 2;
    EXPECT_EQ(q.push(std::span<const FeedJob>(admitted).subspan(routed)),
              3u);
    const std::vector<double> expected = {10, 11, 7, 8, 9};
    EXPECT_EQ(drain(q), expected);
}

TEST(IngressQueue, ClearReportsDropCount)
{
    IngressQueue q(8);
    ASSERT_EQ(pushJobs(q, 0, 5), 5u);
    EXPECT_EQ(q.clear(), 5u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.clear(), 0u);
    // Reusable after a clear.
    ASSERT_EQ(pushJobs(q, 7, 1), 1u);
    EXPECT_EQ(drain(q), range(7, 7));
}

TEST(IngressQueue, SnapshotRoundTripsWrappedOrder)
{
    IngressQueue q(4);
    ASSERT_EQ(pushJobs(q, 0, 4), 4u);
    ASSERT_EQ(popTimes(q, 2).size(), 2u);
    ASSERT_EQ(pushJobs(q, 4, 1), 1u); // Physically wrapped.

    Serializer out;
    q.saveState(out);
    Deserializer in(out.bytes());
    IngressQueue restored(4);
    restored.loadState(in);
    in.expectEnd();

    ASSERT_EQ(restored.size(), q.size());
    std::vector<FeedJob> a;
    std::vector<FeedJob> b;
    const auto collect = [](std::vector<FeedJob> &into) {
        return [&into](std::span<const FeedJob> run) {
            into.insert(into.end(), run.begin(), run.end());
            return run.size();
        };
    };
    q.consume(collect(a));
    restored.consume(collect(b));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(b[i].time, a[i].time);
        EXPECT_EQ(b[i].type, a[i].type);
        EXPECT_DOUBLE_EQ(b[i].duration, a[i].duration);
    }
    EXPECT_TRUE(restored.empty());
}

TEST(IngressQueue, LoadRejectsCapacityMismatch)
{
    IngressQueue q(4);
    ASSERT_EQ(pushJobs(q, 0, 1), 1u);
    Serializer out;
    q.saveState(out);

    IngressQueue other(8);
    Deserializer in(out.bytes());
    EXPECT_THROW(other.loadState(in), FatalError);
}

/** The FatalError message loading one (time, type, duration) entry
 *  into a capacity-4 queue throws, or empty if it loads. */
std::string
loadEntryError(double time, std::uint8_t type, double duration)
{
    Serializer out;
    out.putSize(4);
    out.putSize(1);
    out.putDouble(time);
    out.putU8(type);
    out.putDouble(duration);
    IngressQueue q(4);
    Deserializer in(out.bytes());
    try {
        q.loadState(in);
    } catch (const FatalError &err) {
        EXPECT_TRUE(q.empty());
        return err.what();
    }
    return {};
}

TEST(IngressQueue, LoadRejectsMalformedEntries)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(loadEntryError(1.0, 0, 0.0), "");
    EXPECT_NE(loadEntryError(1.0, 5, 60.0).find("invalid workload type 5"),
              std::string::npos);
    EXPECT_NE(loadEntryError(1.0, 0xFF, 60.0).find("workload type 255"),
              std::string::npos);
    for (const double bad : {nan, inf, -1.0}) {
        EXPECT_NE(loadEntryError(bad, 0, 60.0).find("invalid arrival time"),
                  std::string::npos);
        EXPECT_NE(loadEntryError(1.0, 0, bad).find("invalid duration"),
                  std::string::npos);
    }
}

} // namespace
} // namespace vmt::serve
