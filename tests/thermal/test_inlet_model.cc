/**
 * @file
 * Unit tests for per-server inlet temperature variation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "thermal/inlet_model.h"
#include "util/logging.h"

namespace vmt {
namespace {

TEST(InletModel, ZeroSigmaIsAllZeros)
{
    Rng rng(1);
    const auto offsets = drawInletOffsets(50, 0.0, rng);
    ASSERT_EQ(offsets.size(), 50u);
    for (double o : offsets)
        EXPECT_EQ(o, 0.0);
}

TEST(InletModel, NegativeSigmaIsFatal)
{
    Rng rng(1);
    EXPECT_THROW(drawInletOffsets(10, -1.0, rng), FatalError);
}

TEST(InletModel, NonFiniteSigmaIsFatal)
{
    // A NaN sigma would draw NaN offsets into every inlet.
    Rng rng(1);
    for (const double sigma : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()})
        EXPECT_THROW(drawInletOffsets(10, sigma, rng), FatalError);
}

TEST(InletModel, MomentsMatchRequestedSigma)
{
    Rng rng(2);
    const auto offsets = drawInletOffsets(20000, 2.0, rng);
    double sum = 0.0, sq = 0.0;
    for (double o : offsets) {
        sum += o;
        sq += o * o;
    }
    const double n = static_cast<double>(offsets.size());
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(InletModel, DeterministicGivenSeed)
{
    Rng a(3), b(3);
    const auto x = drawInletOffsets(10, 1.0, a);
    const auto y = drawInletOffsets(10, 1.0, b);
    EXPECT_EQ(x, y);
}

TEST(InletModel, EmptyClusterOk)
{
    Rng rng(4);
    EXPECT_TRUE(drawInletOffsets(0, 1.0, rng).empty());
}

} // namespace
} // namespace vmt
