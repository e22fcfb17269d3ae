/**
 * @file
 * Unit tests for Eq. 1 / Eq. 2 group sizing.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/vmt_config.h"
#include "util/logging.h"

namespace vmt {
namespace {

VmtConfig
config(double gv)
{
    VmtConfig c;
    c.groupingValue = gv;
    c.physicalMeltTemp = 35.7;
    return c;
}

TEST(VmtConfig, EquationOneMatchesPaperRatios)
{
    // hot = GV / PMT x N (Eq. 1).
    EXPECT_EQ(hotGroupSizeFor(config(22.0), 1000), 616u);
    EXPECT_EQ(hotGroupSizeFor(config(20.0), 1000), 560u);
    EXPECT_EQ(hotGroupSizeFor(config(24.0), 1000), 672u);
    EXPECT_EQ(hotGroupSizeFor(config(22.0), 100), 62u);
}

TEST(VmtConfig, EquationTwoIsComplement)
{
    for (double gv : {10.0, 20.0, 22.0, 30.0}) {
        EXPECT_EQ(hotGroupSizeFor(config(gv), 1000) +
                      coldGroupSizeFor(config(gv), 1000),
                  1000u);
    }
}

TEST(VmtConfig, TableTwoGvValuesAreOrderedBySize)
{
    // Table II's GV column is monotone: a larger GV maps to a larger
    // hot group (and a lower virtual melting temperature).
    const double table2[] = {20.03, 20.14, 20.23, 20.83, 21.25,
                             21.55, 21.69, 21.84, 23.99, 30.75};
    std::size_t prev = 0;
    for (double gv : table2) {
        const std::size_t size = hotGroupSizeFor(config(gv), 10000);
        EXPECT_GE(size, prev);
        prev = size;
    }
}

TEST(VmtConfig, ClampsAtClusterSize)
{
    EXPECT_EQ(hotGroupSizeFor(config(40.0), 100), 100u);
    EXPECT_EQ(coldGroupSizeFor(config(40.0), 100), 0u);
}

TEST(VmtConfig, SmallClustersRound)
{
    // 22/35.7 * 10 = 6.16 -> 6.
    EXPECT_EQ(hotGroupSizeFor(config(22.0), 10), 6u);
}

TEST(VmtConfig, ValidatesInputs)
{
    VmtConfig c;
    c.groupingValue = 0.0;
    EXPECT_THROW(hotGroupSizeFor(c, 100), FatalError);
    c.groupingValue = 22.0;
    c.physicalMeltTemp = 0.0;
    EXPECT_THROW(hotGroupSizeFor(c, 100), FatalError);
}

TEST(VmtConfig, NonFiniteGroupingValueIsFatal)
{
    VmtConfig c;
    for (const double gv : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
        c.groupingValue = gv;
        EXPECT_THROW(hotGroupSizeFor(c, 100), FatalError);
    }
}

} // namespace
} // namespace vmt
