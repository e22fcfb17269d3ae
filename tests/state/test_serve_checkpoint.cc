/**
 * @file
 * The serving driver's checkpoint commits: each boundary is written
 * once (an exit on a periodic boundary does not write it again, so
 * `.prev` holds the boundary before it), the file on disk when run()
 * returns is the final snapshot, a failed commit is counted, and a
 * run() that throws still joins the commit in flight.
 *
 * Labelled "state", so the thread-sanitizer job runs the background
 * commit against the driver's own fan-out.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "state/recovery.h"
#include "state/snapshot.h"
#include "util/thread_pool.h"

namespace vmt::serve {
namespace {

ServeConfig
checkpointingConfig(const std::string &path, std::size_t intervals)
{
    ServeConfig config;
    config.numServers = 40;
    config.podSize = 8; // 5 shards.
    config.policy = "wa";
    config.maxIntervals = intervals;
    config.checkpointEvery = 10;
    config.checkpointPath = path;
    return config;
}

SyntheticFeedParams
busyFeed()
{
    SyntheticFeedParams params;
    params.users = 24000.0;
    params.requestsPerUserHour = 1.0;
    params.diurnalTrough = 1.0;
    params.seed = 3;
    return params;
}

/** The completed-interval count a snapshot file was taken at. */
std::size_t
boundaryOf(const std::string &path)
{
    const SnapshotReader reader(path);
    Deserializer conf = reader.section("SCON");
    return conf.getSize();
}

std::string
freshPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    std::remove(previousSnapshotPath(path).c_str());
    return path;
}

void
removeBoth(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(previousSnapshotPath(path).c_str());
}

ServeResult
runTo(const std::string &path, std::size_t intervals)
{
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(checkpointingConfig(path, intervals));
    return driver.run(feed);
}

TEST(ServeCheckpoint, ExitOnAPeriodicBoundaryWritesItOnce)
{
    // 40 intervals, every 10: boundaries 10, 20, 30, 40 — four
    // writes, the exit boundary among them, and .prev one period back.
    const std::string path = freshPath("vmt_sc_once.snap");
    const ServeResult result = runTo(path, 40);
    EXPECT_EQ(result.checkpointsWritten, 4u);
    EXPECT_EQ(result.checkpointFailures, 0u);
    EXPECT_EQ(result.finalCheckpoint, path);
    EXPECT_EQ(boundaryOf(path), 40u);
    EXPECT_EQ(boundaryOf(previousSnapshotPath(path)), 30u);
    removeBoth(path);
}

TEST(ServeCheckpoint, ExitBetweenBoundariesAddsOneFinalWrite)
{
    const std::string path = freshPath("vmt_sc_final.snap");
    const ServeResult result = runTo(path, 45);
    EXPECT_EQ(result.checkpointsWritten, 5u);
    EXPECT_EQ(result.finalCheckpoint, path);
    EXPECT_EQ(boundaryOf(path), 45u);
    EXPECT_EQ(boundaryOf(previousSnapshotPath(path)), 40u);
    removeBoth(path);
}

TEST(ServeCheckpoint, FileReadRightAfterRunIsTheFinalSnapshot)
{
    // Pool threads encode while the commit thread writes: at every
    // thread count the file is complete and final when run() returns.
    for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t intervals : {30u, 34u}) {
            const std::string path = freshPath("vmt_sc_read.snap");
            setGlobalThreadCount(threads);
            const ServeResult result = runTo(path, intervals);
            setGlobalThreadCount(0);
            EXPECT_EQ(result.completedIntervals, intervals);
            EXPECT_EQ(boundaryOf(path), intervals)
                << threads << " threads, " << intervals << " intervals";
            EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
            removeBoth(path);
        }
    }
}

TEST(ServeCheckpoint, FailedCommitsAreCountedAndTheRunGoesOn)
{
    const std::string dir = testing::TempDir() + "vmt_sc_missing_dir";
    std::filesystem::remove_all(dir);
    const ServeResult result = runTo(dir + "/ck.snap", 25);
    EXPECT_EQ(result.completedIntervals, 25u);
    // Boundaries 10 and 20, then the final one at 25.
    EXPECT_EQ(result.checkpointFailures, 3u);
    EXPECT_EQ(result.checkpointsWritten, 0u);
    EXPECT_TRUE(result.finalCheckpoint.empty());
}

TEST(ServeCheckpoint, RunThatThrowsStillJoinsTheCommitInFlight)
{
    // The stop hook runs right after boundary 10 is handed to the
    // commit thread; throwing there unwinds run() with the commit
    // still in flight. Its destructor must join it (an unjoined
    // thread would terminate the process) and leave boundary 10 on
    // disk.
    const std::string path = freshPath("vmt_sc_throw.snap");
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(checkpointingConfig(path, 40));
    std::size_t polls = 0;
    EXPECT_THROW(driver.run(feed,
                            [&polls] {
                                if (++polls == 11)
                                    throw std::runtime_error("stop");
                                return false;
                            }),
                 std::runtime_error);
    EXPECT_EQ(boundaryOf(path), 10u);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    removeBoth(path);
}

} // namespace
} // namespace vmt::serve
