/**
 * @file
 * circularScan and ServerMask against the probe loop they replace:
 * n probes of `cursor = (cursor + 1) % n`, returning the first id
 * that qualifies. Sizes cover one partial word, exact words and a
 * partial last word.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "sched/circular_scan.h"
#include "util/rng.h"

namespace vmt {
namespace {

/** The historical loop: the id found (or kNoServer) and the cursor
 *  it leaves behind. */
std::size_t
moduloProbe(std::size_t &cursor, const std::vector<bool> &ok)
{
    const std::size_t n = ok.size();
    for (std::size_t probes = 0; probes < n; ++probes) {
        const std::size_t id = cursor;
        cursor = (cursor + 1) % n;
        if (ok[id])
            return id;
    }
    return kNoServer;
}

TEST(CircularScan, MatchesTheModuloProbeLoop)
{
    Rng rng(0xC1C5CA11ull);
    for (const std::size_t n : {1, 2, 48, 64, 100, 128, 130, 256}) {
        for (int trial = 0; trial < 200; ++trial) {
            SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                         std::to_string(trial));
            // Sparse to dense, including all-clear and all-set.
            const double density = static_cast<double>(trial % 5) / 4.0;
            std::vector<bool> ok(n);
            for (std::size_t id = 0; id < n; ++id)
                ok[id] = rng.uniform() < density;
            const std::size_t start = rng.below(n);

            std::size_t expected_cursor = start;
            const std::size_t expected = moduloProbe(expected_cursor, ok);

            std::size_t dense_cursor = start;
            EXPECT_EQ(circularScan(dense_cursor, n,
                                   [&](std::size_t id) { return ok[id]; }),
                      expected);
            EXPECT_EQ(dense_cursor, expected_cursor);

            // A mask that over-approximates (extra set bits the
            // accept refuses and clears) finds the same id.
            ServerMask mask;
            mask.assign(n, [&](std::size_t id) {
                return ok[id] || rng.uniform() < 0.3;
            });
            std::size_t mask_cursor = start;
            EXPECT_EQ(mask.circularScan(mask_cursor,
                                        [&](std::size_t id) {
                                            if (ok[id])
                                                return true;
                                            mask.reset(id);
                                            return false;
                                        }),
                      expected);
            EXPECT_EQ(mask_cursor, expected_cursor);
            // A miss visited every set bit and refused it.
            if (expected == kNoServer) {
                EXPECT_EQ(mask.next(0, n), n);
            }
        }
    }
}

TEST(ServerMask, NextFindsSetBitsAcrossWords)
{
    ServerMask mask;
    mask.assign(130, [](std::size_t id) {
        return id == 3 || id == 64 || id == 129;
    });
    EXPECT_EQ(mask.next(0, 130), 3u);
    EXPECT_EQ(mask.next(4, 130), 64u);
    EXPECT_EQ(mask.next(65, 130), 129u);
    EXPECT_EQ(mask.next(65, 129), 129u); // None in [65, 129).
    EXPECT_EQ(mask.next(130, 130), 130u);
    mask.reset(64);
    EXPECT_EQ(mask.next(4, 130), 129u);
}

} // namespace
} // namespace vmt
