/**
 * @file
 * Serving checkpoint byte identity: a degraded run (10 shards, a
 * scripted outage and cooling derate, brownout, queue deadline) is
 * checkpointed at 1 and 4 threads. Both files must be byte-identical
 * to each other, and their SHRD section to a serial reference encoder
 * kept here — one buffer, shards in order, each job table through the
 * put-by-put reference (tests/reference/job_table_save.h), which
 * reads departures back by draining a copy of each queue — the
 * pre-parallel layout the production fan-out (one part per shard,
 * concatenated in shard order) must reproduce.
 *
 * Labelled "state;parallel" so the thread-sanitizer job runs the
 * per-shard fan-out.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "reference/job_table_save.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "state/serializer.h"
#include "state/snapshot.h"
#include "util/thread_pool.h"

namespace vmt::serve {

/** Friend of ShardedDriver: reads the shards after a run. */
struct ShardedDriverTestPeer
{
    /** The serial SHRD encoder the parallel one replaced. */
    static std::vector<std::uint8_t>
    referenceShrd(const ShardedDriver &driver)
    {
        Serializer out;
        out.putSize(driver.shards_.size());
        for (const ShardedDriver::Shard &shard : driver.shards_) {
            shard.cluster.saveState(out);
            shard.scheduler->saveState(out);
            reference::saveJobTable(shard.jobs, out);
        }
        return out.bytes();
    }
};

namespace {

constexpr std::size_t kServers = 80;
constexpr std::size_t kPodSize = 8; // 10 shards.

ServeConfig
degradedConfig(const std::string &path)
{
    ServeConfig config;
    config.numServers = kServers;
    config.podSize = kPodSize;
    config.policy = "wa";
    config.maxIntervals = 40;
    config.checkpointEvery = 10;
    config.checkpointPath = path;

    // Every 4th server down at interval 8, back at interval 30; a
    // 6 K supply derate over intervals 12..24.
    std::vector<FaultEvent> events;
    for (std::size_t id = 0; id < kServers; id += 4)
        events.push_back({480.0, FaultEventType::ServerDown, id, 0.0});
    events.push_back({720.0, FaultEventType::CoolingDerate, 0, 6.0});
    events.push_back({1440.0, FaultEventType::CoolingRestore, 0, 0.0});
    for (std::size_t id = 0; id < kServers; id += 4)
        events.push_back({1800.0, FaultEventType::ServerUp, id, 0.0});
    config.faults.plan = FaultPlan(std::move(events));
    config.brownout.maxAirTemp = 28.0;
    config.brownout.maxMelt = 0.05;
    config.maxQueueAge = 300.0;
    return config;
}

SyntheticFeedParams
busyFeed()
{
    SyntheticFeedParams params;
    params.users = 60000.0;
    params.requestsPerUserHour = 1.0;
    params.diurnalTrough = 1.0;
    params.seed = 5;
    return params;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

struct Checkpointed
{
    ServeResult result;
    std::vector<std::uint8_t> file;
    std::vector<std::uint8_t> referenceShrd;
};

Checkpointed
runAt(std::size_t threads)
{
    const std::string path = testing::TempDir() + "vmt_ckbytes_" +
                             std::to_string(threads) + ".snap";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    setGlobalThreadCount(threads);
    SyntheticFeed feed(busyFeed());
    ShardedDriver driver(degradedConfig(path));
    Checkpointed out;
    out.result = driver.run(feed);
    setGlobalThreadCount(0);
    // The final checkpoint is written after the last interval, so
    // the driver still holds exactly the state it encoded.
    out.file = readFile(path);
    out.referenceShrd = ShardedDriverTestPeer::referenceShrd(driver);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    return out;
}

/** (tag, payload) per section, walking the container frames. */
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
sectionsOf(const std::vector<std::uint8_t> &image)
{
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        sections;
    Deserializer header(image.data() + 8, 8);
    header.getU32();
    const std::uint32_t count = header.getU32();
    std::size_t offset = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::string tag(
            reinterpret_cast<const char *>(image.data() + offset), 4);
        Deserializer frame(image.data() + offset + 4, 12);
        const auto length = static_cast<std::size_t>(frame.getU64());
        offset += 16;
        sections.emplace_back(
            tag, std::vector<std::uint8_t>(
                     image.begin() + static_cast<std::ptrdiff_t>(offset),
                     image.begin() +
                         static_cast<std::ptrdiff_t>(offset + length)));
        offset += length;
    }
    return sections;
}

/** Re-frame the payloads as one-part sections (per-section CRC,
 *  no combining). */
std::vector<std::uint8_t>
reframe(const std::vector<std::pair<std::string,
                                    std::vector<std::uint8_t>>> &sections)
{
    SnapshotWriter writer;
    for (const auto &[tag, payload] : sections)
        writer.section(tag).putBytes(payload.data(), payload.size());
    return writer.encode();
}

void
expectMatchesReference(const Checkpointed &run, const char *label)
{
    // The container validates (framing + every CRC) before the
    // frames are walked below.
    ASSERT_NO_THROW(SnapshotReader::fromBytes(run.file)) << label;
    auto sections = sectionsOf(run.file);
    ASSERT_EQ(sections.size(), 5u) << label; // SCON FEED INGR SHRD DGRD
    ASSERT_EQ(sections[3].first, "SHRD") << label;
    EXPECT_EQ(sections[3].second, run.referenceShrd) << label;
    EXPECT_EQ(reframe(sections), run.file) << label;
}

TEST(CheckpointBytes, DegradedRunMatchesSerialReferenceAtOneAndFourThreads)
{
    const Checkpointed serial = runAt(1);
    const Checkpointed parallel = runAt(4);

    // The scenario exercises the degraded machinery it claims to.
    EXPECT_GT(serial.result.evacuatedJobs, 0u);
    EXPECT_GT(serial.result.brownoutIntervals, 0u);
    EXPECT_GT(serial.result.finalInFlight, 0u);
    EXPECT_EQ(serial.result.completedIntervals, 40u);

    ASSERT_FALSE(serial.file.empty());
    EXPECT_EQ(serial.file, parallel.file);
    expectMatchesReference(serial, "threads=1");
    expectMatchesReference(parallel, "threads=4");
}

} // namespace
} // namespace vmt::serve
