/**
 * @file
 * Unit tests for the interval-bucketed calendar queue. The contract
 * under test is exact equivalence with EventQueue: for any
 * schedule/pop sequence whose drains happen at interval boundaries,
 * both queues pop the same payloads in the same order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference/event_queue.h"
#include "sim/interval_queue.h"
#include "util/rng.h"

namespace vmt {
namespace {

using reference::EventQueue;

constexpr Seconds kDt = 60.0;

TEST(IntervalQueue, EmptyOnConstruction)
{
    IntervalQueue<int> q(kDt);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.hasEventDue(1e9));
}

TEST(IntervalQueue, PopsInTimeOrder)
{
    IntervalQueue<int> q(kDt);
    q.schedule(30.0, 3);
    q.schedule(10.0, 1);
    q.schedule(20.0, 2);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(IntervalQueue, TiesPopFifo)
{
    IntervalQueue<std::string> q(kDt);
    q.schedule(5.0, "first");
    q.schedule(5.0, "second");
    q.schedule(5.0, "third");
    EXPECT_EQ(q.pop(), "first");
    EXPECT_EQ(q.pop(), "second");
    EXPECT_EQ(q.pop(), "third");
}

TEST(IntervalQueue, HasEventDueRespectsNow)
{
    IntervalQueue<int> q(kDt);
    q.schedule(100.0, 1);
    EXPECT_FALSE(q.hasEventDue(99.9));
    EXPECT_TRUE(q.hasEventDue(100.0));
    EXPECT_TRUE(q.hasEventDue(200.0));
}

TEST(IntervalQueue, NextTimeTracksEarliest)
{
    IntervalQueue<int> q(kDt);
    q.schedule(50.0, 1);
    q.schedule(25.0, 2);
    EXPECT_DOUBLE_EQ(q.nextTime(), 25.0);
    q.pop();
    EXPECT_DOUBLE_EQ(q.nextTime(), 50.0);
    EXPECT_EQ(q.size(), 1u);
}

TEST(IntervalQueue, ZeroDurationEventPopsWithinActiveBoundary)
{
    // A zero-duration job scheduled exactly at the drain point (the
    // driver's step-3 placement loop does this) must surface in the
    // same drain, after anything earlier but before anything later.
    IntervalQueue<int> q(kDt);
    q.schedule(2.0 * kDt, 1);
    q.schedule(2.0 * kDt, 2);
    ASSERT_TRUE(q.hasEventDue(2.0 * kDt));
    EXPECT_EQ(q.pop(), 1);
    q.schedule(2.0 * kDt, 3); // Lands mid-drain at "now".
    q.schedule(3.0 * kDt, 4);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_FALSE(q.hasEventDue(2.0 * kDt));
    EXPECT_EQ(q.pop(), 4);
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, PastTimeClampsIntoActiveBucketInOrder)
{
    // After a bucket is retired, an event stamped inside it (which
    // the driver never produces, but the queue tolerates) drains at
    // the next opportunity, ordered by (time, seq) against whatever
    // the active bucket still holds.
    IntervalQueue<int> q(kDt);
    q.schedule(10.0, 1);
    EXPECT_EQ(q.pop(), 1); // Retires bucket 0... eventually.
    q.schedule(200.0, 2);
    EXPECT_EQ(q.pop(), 2); // Bucket 0/1 now retired for sure.
    q.schedule(5.0, 3);
    q.schedule(300.0, 4);
    EXPECT_DOUBLE_EQ(q.nextTime(), 5.0);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
}

TEST(IntervalQueue, BoundaryTimesLandStrictlyByBucket)
{
    // An event exactly on boundary b*dt belongs to drain b, not b+1;
    // an event epsilon past it belongs to drain b+1.
    IntervalQueue<int> q(kDt);
    q.schedule(3.0 * kDt, 1);
    q.schedule(3.0 * kDt + 1e-9, 2);
    EXPECT_TRUE(q.hasEventDue(3.0 * kDt));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.hasEventDue(3.0 * kDt));
    EXPECT_TRUE(q.hasEventDue(4.0 * kDt));
    EXPECT_EQ(q.pop(), 2);
}

/**
 * Drive both queues through the driver's exact access pattern —
 * schedule a random batch each interval, drain everything due at the
 * boundary — and require identical pop sequences throughout.
 */
TEST(IntervalQueue, RandomizedDrainMatchesEventQueue)
{
    Rng rng(1234);
    IntervalQueue<int> iq(kDt);
    EventQueue<int> eq;
    int next_id = 0;
    for (std::size_t interval = 0; interval < 500; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        ASSERT_EQ(iq.size(), eq.size()) << "interval " << interval;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now))
                << "interval " << interval;
            ASSERT_EQ(iq.nextTime(), eq.nextTime())
                << "interval " << interval;
            ASSERT_EQ(iq.pop(), eq.pop()) << "interval " << interval;
        }
        ASSERT_FALSE(iq.hasEventDue(now)) << "interval " << interval;

        const std::uint64_t batch = rng.below(13);
        for (std::uint64_t j = 0; j < batch; ++j) {
            // Durations mix exact multiples of dt, sub-interval
            // fractions, ties, and zero (due immediately).
            Seconds duration = 0.0;
            switch (rng.below(4)) {
            case 0:
                duration =
                    static_cast<double>(1 + rng.below(5)) * kDt;
                break;
            case 1:
                duration = rng.uniform() * 10.0 * kDt;
                break;
            case 2:
                duration = 90.0; // Deliberate tie generator.
                break;
            default:
                duration = 0.0;
                break;
            }
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    // Drain the stragglers.
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
    EXPECT_TRUE(iq.empty());
}

TEST(IntervalQueue, CutoffSizedBucketsAndDenseTiesMatchEventQueue)
{
    // The randomized equivalence above, with buckets sized around the
    // insertion-sort cut-off and times drawn from a few values per
    // bucket (dense ties). Every interval checks the visitPending
    // order against the heap's full pop order and the drainDue order
    // against the heap's pops — at the boundary and, sometimes, half
    // an interval early, which leaves a sorted front drained part-way
    // for the zero-duration and late inserts that follow.
    constexpr std::size_t kCut = IntervalQueue<int>::kInsertionSortMax;
    using Visit = std::pair<Seconds, int>;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        IntervalQueue<int> iq(kDt);
        EventQueue<int> eq;
        int next = 0;
        const auto schedule = [&](Seconds time) {
            iq.schedule(time, next);
            eq.schedule(time, next);
            ++next;
        };
        const auto expectVisitMatches = [&](std::size_t interval) {
            std::vector<Visit> visited;
            iq.visitPending([&visited](Seconds time, int payload) {
                visited.emplace_back(time, payload);
            });
            std::vector<Visit> expected;
            EventQueue<int> rest = eq;
            while (!rest.empty()) {
                const Seconds time = rest.nextTime();
                expected.emplace_back(time, rest.pop());
            }
            ASSERT_EQ(visited, expected)
                << "seed " << seed << " interval " << interval;
        };
        const auto expectDrainMatches = [&](Seconds now,
                                            std::size_t interval) {
            std::vector<int> drained;
            iq.drainDue(now, [&drained](int p) { drained.push_back(p); });
            std::vector<int> popped;
            while (eq.hasEventDue(now))
                popped.push_back(eq.pop());
            ASSERT_EQ(drained, popped)
                << "seed " << seed << " interval " << interval;
        };

        for (int i = 0; i < 40; ++i)
            schedule(i % 2 == 0 ? -0.0 : 0.0);
        for (std::size_t interval = 0; interval < 160; ++interval) {
            const Seconds now = static_cast<double>(interval) * kDt;
            if (interval > 0 && rng.below(3) == 0) {
                expectDrainMatches(now - 0.5 * kDt, interval);
                for (std::uint64_t k = rng.below(6); k > 0; --k)
                    schedule(now - 0.5 * kDt); // Zero duration.
                expectVisitMatches(interval);
            }
            expectDrainMatches(now, interval);
            expectVisitMatches(interval);
            if (::testing::Test::HasFailure())
                return;

            // One bucket 1-4 intervals ahead takes a cut-off-sized
            // batch over three distinct times; a few late and
            // zero-duration inserts land in the sorted front.
            const std::size_t sizes[] = {kCut - 1, kCut, kCut + 1,
                                         rng.below(2 * kCut + 2)};
            const std::size_t count = sizes[rng.below(4)];
            const Seconds lo =
                now + static_cast<double>(rng.below(4)) * kDt;
            const Seconds ties[] = {lo + rng.uniform(1e-6, kDt),
                                    lo + rng.uniform(1e-6, kDt),
                                    lo + kDt};
            for (std::size_t k = 0; k < count; ++k)
                schedule(rng.below(8) == 0 ? lo + rng.uniform(1e-6, kDt)
                                           : ties[rng.below(3)]);
            for (std::uint64_t k = rng.below(4); k > 0; --k)
                schedule(rng.below(2) == 0
                             ? now
                             : std::max(0.0, now - rng.uniform(0.0, kDt)));
            expectVisitMatches(interval);
        }
        expectDrainMatches(1e12, 0);
        EXPECT_TRUE(iq.empty());
    }
}

/**
 * Long-horizon property: the serving mode runs open-ended, so the
 * queue must stay exact far past the batch driver's two-day traces.
 * Start three weeks in and drive the same randomized drain pattern —
 * bucket indexing (guess + correction loops) must still match
 * EventQueue bit for bit.
 */
TEST(IntervalQueue, MultiWeekDrainMatchesEventQueue)
{
    Rng rng(99);
    IntervalQueue<int> iq(kDt);
    EventQueue<int> eq;
    // Three weeks of one-minute intervals, then 300 more.
    const std::size_t start = 3 * 7 * 24 * 60;
    int next_id = 0;
    for (std::size_t interval = start; interval < start + 300;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now))
                << "interval " << interval;
            ASSERT_EQ(iq.nextTime(), eq.nextTime())
                << "interval " << interval;
            ASSERT_EQ(iq.pop(), eq.pop()) << "interval " << interval;
        }
        ASSERT_FALSE(iq.hasEventDue(now)) << "interval " << interval;
        const std::uint64_t batch = rng.below(9);
        for (std::uint64_t j = 0; j < batch; ++j) {
            Seconds duration = 0.0;
            switch (rng.below(4)) {
            case 0:
                duration =
                    static_cast<double>(1 + rng.below(5)) * kDt;
                break;
            case 1:
                duration = rng.uniform() * 10.0 * kDt;
                break;
            case 2:
                duration = 90.0;
                break;
            default:
                duration = 0.0;
                break;
            }
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
    EXPECT_TRUE(iq.empty());
}

TEST(IntervalQueue, DayBoundaryTimesStayStrictAtWeekScale)
{
    // Exact multiples of a day, weeks out: an event at k*86400
    // belongs to that drain, epsilon past it to the next — the same
    // strictness the two-day tests pin, at 1440x the bucket index.
    IntervalQueue<int> q(kDt);
    for (int day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        q.schedule(boundary, day);
        q.schedule(boundary + 1e-6, 1000 + day);
    }
    for (int day = 14; day <= 28; day += 7) {
        const Seconds boundary = static_cast<double>(day) * 86400.0;
        ASSERT_TRUE(q.hasEventDue(boundary));
        EXPECT_EQ(q.pop(), day);
        EXPECT_FALSE(q.hasEventDue(boundary));
        ASSERT_TRUE(q.hasEventDue(boundary + kDt));
        EXPECT_EQ(q.pop(), 1000 + day);
    }
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, NonRepresentableIntervalStaysExactFarOut)
{
    // dt = 0.1 is not a representable double, so bucket boundaries
    // accumulate rounding; the cast-then-correct bucketOf must agree
    // with the heap ten million intervals in anyway.
    const Seconds dt = 0.1;
    Rng rng(7);
    IntervalQueue<int> iq(dt);
    EventQueue<int> eq;
    const std::uint64_t start = 10'000'000;
    int next_id = 0;
    for (std::uint64_t interval = start; interval < start + 200;
         ++interval) {
        const Seconds now = static_cast<double>(interval) * dt;
        while (eq.hasEventDue(now)) {
            ASSERT_TRUE(iq.hasEventDue(now));
            ASSERT_EQ(iq.pop(), eq.pop());
        }
        ASSERT_FALSE(iq.hasEventDue(now));
        const std::uint64_t batch = rng.below(5);
        for (std::uint64_t j = 0; j < batch; ++j) {
            const Seconds duration = rng.uniform() * 20.0 * dt;
            iq.schedule(now + duration, next_id);
            eq.schedule(now + duration, next_id);
            ++next_id;
        }
    }
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty());
        ASSERT_EQ(iq.pop(), eq.pop());
    }
}

TEST(IntervalQueue, SparseFarFutureEventDrainsThroughEmptyBuckets)
{
    // One event a month out forces the window across ~43k empty
    // buckets; size accounting and the drain must survive the sweep.
    IntervalQueue<int> q(kDt);
    q.schedule(10.0, 1);
    const Seconds month = 30.0 * 86400.0;
    q.schedule(month, 2);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.hasEventDue(month - kDt));
    ASSERT_TRUE(q.hasEventDue(month));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, VisitRestoreRoundtripAtLongHorizon)
{
    // Checkpoint idiom at a multi-week resume point: pop part of a
    // drain, save the remainder via visitPending, rebuild with
    // restoreFront(now) + schedule, and require the identical
    // remaining pop sequence (including tie order under fresh seq
    // numbers).
    const std::size_t start = 2 * 7 * 24 * 60; // Two weeks.
    const Seconds now = static_cast<double>(start) * kDt;
    Rng rng(42);
    IntervalQueue<int> original(kDt);
    for (int i = 0; i < 64; ++i) {
        const Seconds time =
            now + static_cast<double>(rng.below(10)) * 0.5 * kDt;
        original.schedule(time, i);
    }
    for (int i = 0; i < 20; ++i)
        original.pop(); // Mid-bucket cursor.

    std::vector<std::pair<Seconds, int>> saved;
    original.visitPending([&saved](Seconds time, int payload) {
        saved.push_back({time, payload});
    });
    ASSERT_EQ(saved.size(), original.size());

    IntervalQueue<int> restored(kDt);
    restored.restoreFront(now);
    for (const auto &[time, payload] : saved)
        restored.schedule(time, payload);

    while (!original.empty()) {
        ASSERT_FALSE(restored.empty());
        ASSERT_EQ(restored.nextTime(), original.nextTime());
        ASSERT_EQ(restored.pop(), original.pop());
    }
    EXPECT_TRUE(restored.empty());
}

TEST(IntervalQueue, VisitPendingMatchesGlobalSortReference)
{
    // Reference model: every pending event as (time, seq) in one
    // list. A pop removes its global (time, seq) minimum; a visit is
    // the whole list sorted at once — the global sort the per-bucket
    // visit replaced. Drains run at interval boundaries like the
    // drivers', and visits land mid-drain (sorted front bucket with a
    // live cursor), between drains (unsorted buckets) and after
    // zero-duration and late (retired-bucket) inserts.
    struct Pending
    {
        Seconds time;
        int seq;
    };
    const auto before = [](const Pending &a, const Pending &b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        IntervalQueue<int> q(kDt);
        std::vector<Pending> model;
        int next_seq = 0;
        const auto schedule = [&](Seconds time) {
            q.schedule(time, next_seq);
            model.push_back({time, next_seq});
            ++next_seq;
        };
        const auto expectVisitMatches = [&] {
            std::vector<Pending> sorted = model;
            std::sort(sorted.begin(), sorted.end(), before);
            std::vector<Pending> visited;
            q.visitPending([&visited](Seconds time, int seq) {
                visited.push_back({time, seq});
            });
            ASSERT_EQ(visited.size(), sorted.size());
            for (std::size_t i = 0; i < sorted.size(); ++i) {
                ASSERT_EQ(visited[i].time, sorted[i].time)
                    << "seed " << seed << " entry " << i;
                ASSERT_EQ(visited[i].seq, sorted[i].seq)
                    << "seed " << seed << " entry " << i;
            }
        };
        const auto lateTime = [&](Seconds now) {
            return std::max(0.0, now - rng.uniform(0.0, 3.0 * kDt));
        };

        for (std::size_t interval = 0; interval < 150; ++interval) {
            const Seconds now = static_cast<double>(interval) * kDt;
            while (q.hasEventDue(now)) {
                if (rng.below(6) == 0)
                    expectVisitMatches();
                const int seq = q.pop();
                const auto it =
                    std::min_element(model.begin(), model.end(), before);
                ASSERT_EQ(seq, it->seq) << "seed " << seed;
                model.erase(it);
                if (rng.below(5) == 0)
                    schedule(now); // Zero-duration job.
                if (rng.below(9) == 0)
                    schedule(lateTime(now));
            }
            expectVisitMatches();
            const std::size_t arrivals = rng.below(12);
            for (std::size_t k = 0; k < arrivals; ++k) {
                switch (rng.below(4)) {
                case 0: // Exactly on a later boundary (ties).
                    schedule(now + static_cast<double>(
                                       1 + rng.below(20)) * kDt);
                    break;
                case 1:
                    schedule(now); // Zero duration, after the drain.
                    break;
                case 2:
                    schedule(lateTime(now));
                    break;
                default:
                    schedule(now + rng.uniform(0.0, 25.0 * kDt));
                    break;
                }
            }
            if (rng.below(3) == 0)
                expectVisitMatches();
        }
        EXPECT_GT(next_seq, 500) << "seed " << seed;
    }
}

/**
 * Drain both queues completely and require identical (time, payload)
 * pop sequences — the exact-order contract on whatever the caller
 * scheduled.
 */
void
expectSamePops(IntervalQueue<int> &iq, EventQueue<int> &eq)
{
    ASSERT_EQ(iq.size(), eq.size());
    std::size_t popped = 0;
    while (!eq.empty()) {
        ASSERT_FALSE(iq.empty()) << "pop " << popped;
        const Seconds expected_time = eq.nextTime();
        ASSERT_EQ(iq.nextTime(), expected_time) << "pop " << popped;
        ASSERT_EQ(iq.pop(), eq.pop()) << "pop " << popped;
        ++popped;
    }
    EXPECT_TRUE(iq.empty());
}

TEST(IntervalQueue, NegativeZeroTiesPositiveZeroFifo)
{
    // -0.0 == +0.0, so the two are one tie group and pop in
    // insertion order (the radix key maps -0.0 onto +0.0), in a small
    // bucket and a large one, where they sit among later times of the
    // same bucket.
    for (const std::size_t count : {std::size_t{6}, std::size_t{256}}) {
        IntervalQueue<int> q(kDt);
        EventQueue<int> oracle;
        for (std::size_t i = 0; i < count; ++i) {
            const Seconds time =
                i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : 1e-3 * i);
            q.schedule(time, static_cast<int>(i));
            oracle.schedule(time, static_cast<int>(i));
        }
        // The zeros come out first, in insertion order.
        std::vector<int> zeros;
        for (std::size_t i = 0; i < count; i += 3) {
            zeros.push_back(static_cast<int>(i));
            if (i + 1 < count)
                zeros.push_back(static_cast<int>(i + 1));
        }
        std::vector<int> popped;
        for (std::size_t i = 0; i < zeros.size(); ++i)
            popped.push_back(q.pop());
        EXPECT_EQ(popped, zeros) << "count " << count;
        for (std::size_t i = 0; i < zeros.size(); ++i)
            oracle.pop();
        expectSamePops(q, oracle);
    }
}

TEST(IntervalQueue, BucketStraddlingPowerOfTwoSortsExactly)
{
    // With dt = 60 the bucket (131040, 131100] contains 2^17 = 131072,
    // so the exponent field changes inside the bucket and the varying
    // bit range reaches into it. Times on both sides, ties included.
    const Seconds pow2 = 131072.0;
    const std::uint64_t bucket = 2185;
    ASSERT_LT(static_cast<double>(bucket - 1) * kDt, pow2);
    ASSERT_GE(static_cast<double>(bucket) * kDt, pow2);
    Rng rng(2185);
    IntervalQueue<int> q(kDt);
    EventQueue<int> oracle;
    for (int i = 0; i < 3000; ++i) {
        Seconds time = 0.0;
        switch (rng.below(4)) {
        case 0:
            time = pow2; // Exactly on the power of two (ties).
            break;
        case 1:
            time = std::nextafter(pow2, 0.0);
            break;
        case 2:
            time = 131040.0 + rng.uniform(1e-9, 32.0); // Below 2^17.
            break;
        default:
            time = pow2 + rng.uniform(0.0, 28.0); // At or above 2^17.
            break;
        }
        q.schedule(time, i);
        oracle.schedule(time, i);
    }
    expectSamePops(q, oracle);
}

TEST(IntervalQueue, FiveThousandEqualTimesPopFifo)
{
    IntervalQueue<int> q(kDt);
    for (int i = 0; i < 5000; ++i)
        q.schedule(1234.5, i);
    int expected = 0;
    const std::size_t drained =
        q.drainDue(1260.0, [&expected](int payload) {
            EXPECT_EQ(payload, expected);
            ++expected;
        });
    EXPECT_EQ(drained, 5000u);
    EXPECT_EQ(expected, 5000);
    EXPECT_TRUE(q.empty());
}

TEST(IntervalQueue, EveryBucketSizeUpTo130MatchesHeap)
{
    // One bucket of n entries — random times with deliberate ties —
    // for every n from a single entry up to past one radix digit's
    // worth of distinct keys.
    for (std::size_t n = 1; n <= 130; ++n) {
        Rng rng(n);
        IntervalQueue<int> q(kDt);
        EventQueue<int> oracle;
        for (std::size_t i = 0; i < n; ++i) {
            const Seconds time =
                rng.below(4) == 0
                    ? 600.0 // Tie on the bucket's boundary.
                    : 540.0 + rng.uniform(1e-6, 60.0);
            q.schedule(time, static_cast<int>(i));
            oracle.schedule(time, static_cast<int>(i));
        }
        expectSamePops(q, oracle);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "bucket size " << n;
            return;
        }
    }
}

TEST(IntervalQueue, EqualTimeInsertsIntoMidDrainFrontPopFifo)
{
    // A radix-sized front bucket is partly drained; inserts at times
    // equal to pending ones (and before and after them, all clamped
    // into that bucket) must pop after the earlier-scheduled ties.
    Rng rng(77);
    IntervalQueue<int> q(kDt);
    EventQueue<int> oracle;
    int next = 0;
    const auto schedule = [&](Seconds time) {
        q.schedule(time, next);
        oracle.schedule(time, next);
        ++next;
    };
    const Seconds ties[] = {130.0, 150.0, 180.0};
    for (int i = 0; i < 400; ++i)
        schedule(rng.below(2) == 0 ? ties[rng.below(3)]
                                   : 120.0 + rng.uniform(1e-6, 60.0));
    for (int round = 0; round < 6; ++round) {
        for (int k = 0; k < 30; ++k) {
            ASSERT_EQ(q.nextTime(), oracle.nextTime());
            ASSERT_EQ(q.pop(), oracle.pop());
        }
        for (int k = 0; k < 25; ++k) {
            switch (rng.below(3)) {
            case 0:
                schedule(ties[rng.below(3)]);
                break;
            case 1:
                schedule(q.nextTime()); // Tie with the next pop.
                break;
            default:
                schedule(rng.uniform(0.0, 180.0)); // Clamped if late.
                break;
            }
        }
    }
    expectSamePops(q, oracle);
}

TEST(IntervalQueue, DrainDueMatchesPopLoop)
{
    // The drivers' bulk drain against the hasEventDue/pop loop it
    // replaced, on identical schedules with big (radix) buckets,
    // ties, zero durations and late inserts between drains.
    Rng rng(31);
    IntervalQueue<int> bulk(kDt);
    IntervalQueue<int> single(kDt);
    int next = 0;
    for (std::size_t interval = 0; interval < 300; ++interval) {
        const Seconds now = static_cast<double>(interval) * kDt;
        std::vector<int> from_bulk;
        const std::size_t drained = bulk.drainDue(
            now, [&from_bulk](int payload) {
                from_bulk.push_back(payload);
            });
        std::vector<int> from_pop;
        while (single.hasEventDue(now))
            from_pop.push_back(single.pop());
        ASSERT_EQ(from_bulk, from_pop) << "interval " << interval;
        ASSERT_EQ(drained, from_pop.size());
        ASSERT_EQ(bulk.size(), single.size());
        ASSERT_FALSE(bulk.hasEventDue(now));

        const std::uint64_t batch = rng.below(240);
        for (std::uint64_t j = 0; j < batch; ++j) {
            Seconds time = now;
            switch (rng.below(5)) {
            case 0:
                time = now + 90.0;
                break;
            case 1:
                time = std::max(0.0, now - rng.uniform(0.0, 2.0 * kDt));
                break;
            case 2:
                break; // Zero duration.
            default:
                time = now + rng.uniform(0.0, 8.0 * kDt);
                break;
            }
            bulk.schedule(time, next);
            single.schedule(time, next);
            ++next;
        }
    }
    std::vector<int> rest_bulk;
    bulk.drainDue(1e12, [&rest_bulk](int p) { rest_bulk.push_back(p); });
    std::vector<int> rest_pop;
    while (!single.empty())
        rest_pop.push_back(single.pop());
    EXPECT_EQ(rest_bulk, rest_pop);
    EXPECT_TRUE(bulk.empty());
    EXPECT_EQ(bulk.drainDue(1e12, [](int) {}), 0u);
}

TEST(IntervalQueue, VisitRestoreRoundtripWithRadixBuckets)
{
    // Checkpoint idiom on radix-sized buckets: a mid-drain sorted
    // front, unsorted later buckets, +-0.0 and equal-time ties. The
    // rebuilt queue must pop exactly what the original pops.
    Rng rng(5);
    IntervalQueue<int> original(kDt);
    for (int i = 0; i < 2000; ++i) {
        Seconds time = 0.0;
        switch (rng.below(4)) {
        case 0:
            time = i % 2 == 0 ? -0.0 : 0.0;
            break;
        case 1:
            time = 60.0 * static_cast<double>(1 + rng.below(4));
            break;
        default:
            time = rng.uniform(0.0, 240.0);
            break;
        }
        original.schedule(time, i);
    }
    for (int i = 0; i < 300; ++i)
        original.pop(); // Mid-bucket cursor in bucket 0 or 1.
    const Seconds now = 60.0;

    std::vector<std::pair<Seconds, int>> saved;
    original.visitPending([&saved](Seconds time, int payload) {
        saved.push_back({time, payload});
    });
    ASSERT_EQ(saved.size(), original.size());

    IntervalQueue<int> restored(kDt);
    restored.restoreFront(now);
    for (const auto &[time, payload] : saved)
        restored.schedule(time, payload);
    while (!original.empty()) {
        ASSERT_FALSE(restored.empty());
        ASSERT_EQ(restored.nextTime(), original.nextTime());
        ASSERT_EQ(restored.pop(), original.pop());
    }
    EXPECT_TRUE(restored.empty());
}

} // namespace
} // namespace vmt
