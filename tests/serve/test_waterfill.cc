/**
 * @file
 * The serving router's closed-form waterfill (serve/waterfill.h)
 * against the per-job heap it replaced (tests/reference/): the same
 * shard sequence and the same per-shard debits on seeded fleets with
 * ties, zero-free shards, an all-zero fleet, and job counts below, at
 * and above the fleet's total capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "reference/heap_waterfill.h"
#include "serve/waterfill.h"
#include "util/rng.h"

namespace vmt::serve {
namespace {

struct Routed
{
    std::size_t routed = 0;
    std::vector<std::size_t> sequence;
    std::vector<std::size_t> debit;
};

Routed
closedForm(Waterfill &router, const std::vector<std::size_t> &free,
           std::size_t jobs)
{
    Routed out;
    out.routed = router.route(free, jobs, [&](std::size_t s) {
        out.sequence.push_back(s);
    });
    out.debit.assign(router.debit().begin(), router.debit().end());
    return out;
}

void
expectSameAsHeap(Waterfill &router, const std::vector<std::size_t> &free,
                 std::size_t jobs)
{
    const reference::HeapWaterfillResult heap =
        reference::heapWaterfill(free, jobs);
    const Routed got = closedForm(router, free, jobs);
    const std::size_t capacity =
        std::accumulate(free.begin(), free.end(), std::size_t{0});
    EXPECT_EQ(got.routed, std::min(jobs, capacity));
    EXPECT_EQ(got.routed, heap.sequence.size());
    EXPECT_EQ(got.sequence, heap.sequence);
    EXPECT_EQ(got.debit, heap.debit);
}

TEST(Waterfill, WalksLevelsInIdOrder)
{
    // Level 3: shards 1, 2; level 2: 0, 1, 2; level 1: 0, 1, 2, 4.
    Waterfill router;
    const Routed got = closedForm(router, {2, 3, 3, 0, 1}, 100);
    EXPECT_EQ(got.routed, 9u);
    EXPECT_EQ(got.sequence,
              (std::vector<std::size_t>{1, 2, 0, 1, 2, 0, 1, 2, 4}));
    EXPECT_EQ(got.debit, (std::vector<std::size_t>{2, 3, 3, 0, 1}));
}

TEST(Waterfill, EdgeCasesMatchHeap)
{
    Waterfill router;
    for (const std::size_t shards : {1u, 2u, 40u, 391u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        const std::vector<std::size_t> zero(shards, 0);
        const std::vector<std::size_t> flat(shards, 5);
        for (const std::size_t jobs : {0u, 1u, 3u, 1000000u}) {
            expectSameAsHeap(router, zero, jobs);
            expectSameAsHeap(router, flat, jobs);
        }
        EXPECT_EQ(closedForm(router, zero, 10).routed, 0u);
        EXPECT_EQ(closedForm(router, flat, 0).routed, 0u);
    }
}

TEST(Waterfill, SeededFleetsMatchHeap)
{
    Rng rng(20261017);
    Waterfill router; // Reused: its buffers carry across calls.
    for (const std::size_t shards : {1u, 2u, 40u, 391u}) {
        for (int trial = 0; trial < 60; ++trial) {
            SCOPED_TRACE("shards " + std::to_string(shards) +
                         " trial " + std::to_string(trial));
            // Alternate few distinct values (many ties, some zeros)
            // with a wide spread; every third trial is sparse.
            const std::uint64_t span = trial % 2 == 0 ? 4 : 300;
            std::vector<std::size_t> free(shards);
            for (std::size_t &f : free) {
                f = rng.below(span);
                if (trial % 3 == 0 && rng.below(2) == 0)
                    f = 0;
            }
            const std::size_t capacity = std::accumulate(
                free.begin(), free.end(), std::size_t{0});
            std::vector<std::size_t> counts = {0, capacity,
                                               capacity + 7};
            if (capacity > 0) {
                counts.push_back(capacity - 1);
                counts.push_back(rng.below(capacity));
            }
            for (const std::size_t jobs : counts)
                expectSameAsHeap(router, free, jobs);
        }
    }
}

} // namespace
} // namespace vmt::serve
