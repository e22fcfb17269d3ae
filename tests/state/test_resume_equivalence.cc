/**
 * @file
 * The checkpoint/restore correctness bar: interrupting a run at any
 * interval and resuming from the snapshot must reproduce the
 * uninterrupted SimResult bitwise — every series sample and every
 * aggregate, at any thread count, and regardless of which thread
 * count wrote the checkpoint. Double
 * comparisons are deliberately exact (ASSERT_EQ, not ASSERT_NEAR).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_wa.h"
#include "fault/fault_plan.h"
#include "sched/round_robin.h"
#include "serve/brownout.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "sim/simulation.h"
#include "state/config_echo.h"
#include "state/serializer.h"
#include "state/sim_snapshot.h"
#include "thermal/thermal_kernel.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

/** Restores the thermal fan-out threshold a test lowers. */
class ThresholdGuard
{
  public:
    ~ThresholdGuard() { setThermalParallelThreshold(saved_); }

  private:
    std::size_t saved_ = thermalParallelThreshold();
};

std::string
tempSnapshotPath(const char *name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

SimConfig
shortRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    return config;
}

VmtWaScheduler
waScheduler()
{
    return VmtWaScheduler(bench::studyVmt(22.0), hotMaskFromPaper());
}

void
expectSeriesIdentical(const char *what, const TimeSeries &a,
                      const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << what << " interval " << i;
}

void
expectHeatmapsIdentical(const char *what,
                        const std::optional<Heatmap> &a,
                        const std::optional<Heatmap> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (!a)
        return;
    ASSERT_EQ(a->rows(), b->rows()) << what;
    ASSERT_EQ(a->cols(), b->cols()) << what;
    for (std::size_t r = 0; r < a->rows(); ++r)
        for (std::size_t c = 0; c < a->cols(); ++c)
            ASSERT_EQ(a->at(r, c), b->at(r, c))
                << what << " cell (" << r << ", " << c << ")";
}

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.schedulerName, b.schedulerName);
    expectSeriesIdentical("coolingLoad", a.coolingLoad, b.coolingLoad);
    expectSeriesIdentical("totalPower", a.totalPower, b.totalPower);
    expectSeriesIdentical("waxHeatFlow", a.waxHeatFlow, b.waxHeatFlow);
    expectSeriesIdentical("meanAirTemp", a.meanAirTemp, b.meanAirTemp);
    expectSeriesIdentical("hotGroupTemp", a.hotGroupTemp,
                          b.hotGroupTemp);
    expectSeriesIdentical("hotGroupSizeSeries", a.hotGroupSizeSeries,
                          b.hotGroupSizeSeries);
    expectSeriesIdentical("meanMeltFraction", a.meanMeltFraction,
                          b.meanMeltFraction);
    expectSeriesIdentical("utilization", a.utilization,
                          b.utilization);
    expectSeriesIdentical("inletTemp", a.inletTemp, b.inletTemp);
    expectHeatmapsIdentical("airTempMap", a.airTempMap, b.airTempMap);
    expectHeatmapsIdentical("meltMap", a.meltMap, b.meltMap);
    EXPECT_EQ(a.peakCoolingLoad, b.peakCoolingLoad);
    EXPECT_EQ(a.peakPower, b.peakPower);
    EXPECT_EQ(a.maxMeltFraction, b.maxMeltFraction);
    EXPECT_EQ(a.maxAirTemp, b.maxAirTemp);
    EXPECT_EQ(a.overheatedServerIntervals,
              b.overheatedServerIntervals);
    EXPECT_EQ(a.throttledServerIntervals, b.throttledServerIntervals);
    EXPECT_EQ(a.droppedJobs, b.droppedJobs);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.placedJobs, b.placedJobs);
}

/** Checkpoint once at @p at completed intervals, into @p path. */
void
installSingleCheckpoint(SimConfig &config, std::size_t at,
                        const std::string &path)
{
    config.checkpointHook = [at, path](const SimState &state,
                                       std::size_t completed) {
        if (completed == at)
            saveSnapshot(state, completed, path);
    };
}

void
installResume(SimConfig &config, const std::string &path)
{
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(config, options);
}

/**
 * The full contract for one configuration: (a) a run that writes a
 * checkpoint at @p at is itself unperturbed, and (b) a fresh driver +
 * fresh scheduler resumed from that checkpoint finishes with a
 * bitwise-identical result.
 */
void
expectResumeReproduces(const SimConfig &base, std::size_t at,
                       const std::string &path)
{
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(base, plain);

    SimConfig saving = base;
    installSingleCheckpoint(saving, at, path);
    VmtWaScheduler interrupted = waScheduler();
    const SimResult perturbed = runSimulation(saving, interrupted);
    expectResultsIdentical(reference, perturbed);

    SimConfig resuming = base;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    const SimResult after = runSimulation(resuming, resumed);
    expectResultsIdentical(reference, after);
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, Cluster100BothThreadCounts)
{
    ThreadCountGuard guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_100.snap");
    const SimConfig config = shortRun(100, 2.0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreadCount(threads);
        expectResumeReproduces(config, 45, path);
    }
}

TEST(ResumeEquivalence, Cluster1000BothThreadCounts)
{
    ThreadCountGuard guard;
    ThresholdGuard threshold_guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_1000.snap");
    // Threshold 1: the 1,000 servers take the chunked-parallel thermal
    // path at threads=4 whatever the default cutover is, so this
    // covers checkpointing both execution paths.
    setThermalParallelThreshold(1);
    const SimConfig config = shortRun(1000, 1.0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setGlobalThreadCount(threads);
        expectResumeReproduces(config, 20, path);
    }
}

TEST(ResumeEquivalence, CheckpointThreadCountDoesNotLeakIntoResume)
{
    ThreadCountGuard guard;
    ThresholdGuard threshold_guard;
    const std::string path =
        tempSnapshotPath("vmt_resume_cross_threads.snap");
    // The 4-thread leg fans the thermal step out (threshold 1).
    setThermalParallelThreshold(1);
    const SimConfig config = shortRun(1000, 1.0);

    setGlobalThreadCount(1);
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // Write the checkpoint from a 4-thread run...
    setGlobalThreadCount(4);
    SimConfig saving = config;
    installSingleCheckpoint(saving, 30, path);
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);

    // ...and resume single-threaded: still bitwise identical.
    setGlobalThreadCount(1);
    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, EveryInterruptionPointOnASmallCluster)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_every.snap");
    SimConfig config = shortRun(20, 0.2); // 12 intervals.
    config.recordHeatmaps = true;         // Cover the RSLT heatmaps.
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);
    const std::size_t intervals = reference.coolingLoad.size();
    ASSERT_EQ(intervals, 12u);

    for (std::size_t at = 1; at < intervals; ++at) {
        SCOPED_TRACE("checkpoint after interval " +
                     std::to_string(at));
        SimConfig saving = config;
        installSingleCheckpoint(saving, at, path);
        VmtWaScheduler interrupted = waScheduler();
        runSimulation(saving, interrupted);

        SimConfig resuming = config;
        installResume(resuming, path);
        VmtWaScheduler resumed = waScheduler();
        expectResultsIdentical(reference,
                               runSimulation(resuming, resumed));
    }
    std::remove(path.c_str());
}

/**
 * The hard case from the paper's physics: a checkpoint taken while
 * wax is mid-melt (fraction strictly between 0 and 1) must restore
 * the partial enthalpy exactly, or the resumed melt/freeze
 * trajectory diverges.
 */
TEST(ResumeEquivalence, MidMeltCheckpointRestoresPartialEnthalpy)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_midmelt.snap");
    SimConfig config = shortRun(100, 4.0);
    // The built-in trace spends hours 0-6 in the trough, where the
    // hot group never reaches the melting point; substitute a shape
    // that ramps straight to the peak so wax melts within the run.
    config.trace.customShape = {{0.0, 0.3}, {1.5, 1.0}, {4.0, 1.0}};
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // Pick the first interval where the cluster is genuinely
    // mid-melt in the reference run.
    std::size_t at = 0;
    for (std::size_t i = 0; i < reference.meanMeltFraction.size();
         ++i) {
        const double melt = reference.meanMeltFraction.at(i);
        if (melt > 0.05 && melt < 0.95) {
            at = i + 1; // completed-interval count, not index
            break;
        }
    }
    ASSERT_GT(at, 0u) << "trace never reaches a mid-melt state; "
                         "lengthen the run";

    SimConfig saving = config;
    bool checkpointed_mid_melt = false;
    saving.checkpointHook = [&](const SimState &state,
                                std::size_t completed) {
        if (completed != at)
            return;
        double sum = 0.0;
        for (std::size_t id = 0; id < state.cluster.numServers();
             ++id)
            sum += state.cluster.server(id).waxMeltFraction();
        const double mean =
            sum / static_cast<double>(state.cluster.numServers());
        EXPECT_GT(mean, 0.0);
        EXPECT_LT(mean, 1.0);
        checkpointed_mid_melt = true;
        saveSnapshot(state, completed, path);
    };
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);
    ASSERT_TRUE(checkpointed_mid_melt);

    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, PeriodicCadenceSkipsFinalIntervalAndResumes)
{
    const std::string path =
        tempSnapshotPath("vmt_resume_cadence.snap");
    const SimConfig config = shortRun(20, 0.2); // 12 intervals.
    VmtWaScheduler plain = waScheduler();
    const SimResult reference = runSimulation(config, plain);

    // attachCheckpointing at every=4 saves after intervals 4 and 8
    // only: 12 is the final interval, and the run is already done.
    SimConfig saving = config;
    CheckpointOptions options;
    options.every = 4;
    options.path = path;
    attachCheckpointing(saving, options);
    // Detect the actual saves by diffing the file bytes around each
    // hook call (snapshots at different intervals never coincide).
    const auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    std::vector<std::size_t> saved_at;
    const auto periodic = saving.checkpointHook;
    saving.checkpointHook = [&](const SimState &state,
                                std::size_t completed) {
        const std::string before = slurp(path);
        periodic(state, completed);
        if (slurp(path) != before)
            saved_at.push_back(completed);
    };
    VmtWaScheduler interrupted = waScheduler();
    runSimulation(saving, interrupted);
    const std::vector<std::size_t> expected_saves = {4, 8};
    EXPECT_EQ(saved_at, expected_saves);

    // The surviving snapshot is the interval-8 one; resume from it.
    SimConfig resuming = config;
    installResume(resuming, path);
    VmtWaScheduler resumed = waScheduler();
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Committed v2 driver fixtures: each pins the byte layout of every
// section a driver writes (CONF/GENR/CLUS/QUEU/SCHD/RSLT/FALT for the
// batch driver, SCON/FEED/INGR/SHRD/DGRD for serving). The same run
// must write the same bytes, and a resume from the committed file
// must finish exactly like the uninterrupted run.
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string
fixturePath(const char *name)
{
    return std::string(VMT_TEST_DATA_DIR) + "/" + name;
}

/**
 * The run behind `driver_v2_faults.snap`: studyConfig(20) for 0.2 h
 * (12 intervals), VMT-WA at GV 22, an outage, a cooling derate and a
 * repair from a plan, stochastic failures (repairs still pending at
 * the checkpoint) and a critical threshold; checkpointed after
 * interval 6, while the derate is active.
 */
SimConfig
faultedFixtureRun()
{
    SimConfig config = shortRun(20, 0.2);
    config.faults.plan = FaultPlan::parse("0.03 server-down 4\n"
                                          "0.05 cooling-derate 6\n"
                                          "0.15 server-up 4\n");
    config.faults.mtbf = 0.5;
    config.faults.criticalTemp = 40.0;
    return config;
}

TEST(DriverFixture, FaultedBatchSnapshotBytesAndResume)
{
    const std::string fixture = fixturePath("driver_v2_faults.snap");
    const std::string path = tempSnapshotPath("vmt_fixture_faults.snap");
    SimConfig saving = faultedFixtureRun();
    installSingleCheckpoint(saving, 6, path);
    VmtWaScheduler writer = waScheduler();
    const SimResult reference = runSimulation(saving, writer);
    EXPECT_GT(reference.evacuatedJobs, 0u);
    EXPECT_LT(reference.aliveServers.trough(), 20.0);

    // On a difference the new file stays at `path` for inspection.
    ASSERT_TRUE(slurp(path) == slurp(fixture))
        << path << " differs from " << fixture;
    std::remove(path.c_str());

    SimConfig resuming = faultedFixtureRun();
    installResume(resuming, fixture);
    VmtWaScheduler resumed = waScheduler();
    const SimResult after = runSimulation(resuming, resumed);
    expectResultsIdentical(reference, after);
    expectSeriesIdentical("aliveServers", reference.aliveServers,
                          after.aliveServers);
    EXPECT_EQ(reference.evacuatedJobs, after.evacuatedJobs);
    EXPECT_EQ(reference.lostJobs, after.lostJobs);
    EXPECT_EQ(reference.criticalServerIntervals,
              after.criticalServerIntervals);
}

/**
 * The run behind `serve_v2_degraded.snap`: 21 servers in three 7-server
 * pods, an admission budget below the arrival rate, a 2-minute queue
 * deadline, a brownout governor on air temperature and melt, and a
 * plan that takes one server down in each of two pods and derates the
 * cooling. `intervals` 6 writes the fixture (one checkpoint, at 6).
 */
serve::ServeConfig
degradedFixtureRun(const std::string &ckpt, std::size_t intervals)
{
    serve::ServeConfig config;
    config.numServers = 21;
    config.podSize = 7;
    config.maxIntervals = intervals;
    config.admissionBudget = 40;
    config.maxQueueAge = 120.0;
    config.brownout.maxAirTemp = 20.0;
    config.brownout.maxMelt = 0.5;
    config.brownout.holdIntervals = 2;
    config.faults.plan = FaultPlan::parse("0.06 server-down 3\n"
                                          "0.06 server-down 10\n"
                                          "0.07 cooling-derate 4\n");
    config.checkpointEvery = 6;
    config.checkpointPath = ckpt;
    config.keepTelemetry = true;
    return config;
}

serve::ServeResult
runDegradedFixture(const serve::ServeConfig &config)
{
    serve::SyntheticFeedParams feed_params;
    feed_params.users = 14400.0;
    serve::SyntheticFeed feed(feed_params);
    return serve::ShardedDriver(config).run(feed);
}

TEST(DriverFixture, DegradedServeCheckpointBytesAndResume)
{
    const std::string fixture = fixturePath("serve_v2_degraded.snap");
    const std::string leg = tempSnapshotPath("vmt_fixture_serve_leg.ckpt");
    const serve::ServeResult first =
        runDegradedFixture(degradedFixtureRun(leg, 6));
    EXPECT_GT(first.evacuatedJobs, 0u);
    EXPECT_GT(first.expiredJobs, 0u);
    EXPECT_GT(first.brownoutIntervals, 0u);
    ASSERT_TRUE(slurp(leg) == slurp(fixture))
        << leg << " differs from " << fixture;
    std::remove(leg.c_str());

    const std::string full_path =
        tempSnapshotPath("vmt_fixture_serve_full.ckpt");
    const serve::ServeResult full =
        runDegradedFixture(degradedFixtureRun(full_path, 12));

    const std::string resumed_path =
        tempSnapshotPath("vmt_fixture_serve_resumed.ckpt");
    serve::ServeConfig resuming = degradedFixtureRun(resumed_path, 12);
    resuming.resumeFrom = fixture;
    const serve::ServeResult resumed = runDegradedFixture(resuming);

    EXPECT_EQ(resumed.resumedIntervals, 6u);
    EXPECT_EQ(resumed.telemetry,
              full.telemetry.substr(first.telemetry.size()));
    EXPECT_EQ(resumed.arrivals, full.arrivals);
    EXPECT_EQ(resumed.expiredJobs, full.expiredJobs);
    EXPECT_EQ(resumed.evacuatedJobs, full.evacuatedJobs);
    EXPECT_EQ(resumed.completedJobs, full.completedJobs);
    EXPECT_EQ(resumed.peakCoolingLoad, full.peakCoolingLoad);
    // The interval-12 checkpoints agree byte for byte too.
    EXPECT_TRUE(slurp(resumed_path) == slurp(full_path));
    for (const std::string &path : {full_path, resumed_path}) {
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
    }
}

// ---------------------------------------------------------------------
// Mismatch rejection: resuming needs the exact configuration that
// produced the checkpoint. Every divergence is fatal, never silent.
// ---------------------------------------------------------------------

/** Write a snapshot of the 20-server run at interval 6. */
std::string
writeReferenceSnapshot(const char *name)
{
    const std::string path = tempSnapshotPath(name);
    SimConfig config = shortRun(20, 0.2);
    installSingleCheckpoint(config, 6, path);
    VmtWaScheduler sched = waScheduler();
    runSimulation(config, sched);
    return path;
}

SimResult
tryResume(const SimConfig &config, Scheduler &scheduler,
          const std::string &path)
{
    SimConfig resuming = config;
    installResume(resuming, path);
    return runSimulation(resuming, scheduler);
}

TEST(ResumeMismatch, DifferentSeedIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_seed.snap");
    SimConfig config = shortRun(20, 0.2);
    config.seed = 8;
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, DifferentClusterSizeIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_servers.snap");
    const SimConfig config = shortRun(21, 0.2);
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, DifferentSchedulerIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_sched.snap");
    const SimConfig config = shortRun(20, 0.2);
    RoundRobinScheduler sched;
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

/**
 * Rewrite one section of a snapshot file in place and re-seal its
 * CRC, so the loader sees a well-formed file whose only difference is
 * the edit. `edit` gets the section's payload and length.
 */
void
patchSection(const std::string &path, const std::string &tag,
             const std::function<void(std::uint8_t *, std::size_t)> &edit)
{
    std::vector<std::uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in), {});
    }
    // Container framing (snapshot.h): 8-byte magic, u32 version, u32
    // count, then per section a 4-byte tag, u64 length, u32 CRC and
    // the payload.
    std::size_t pos = 16;
    while (pos + 16 <= image.size()) {
        std::uint64_t length;
        std::memcpy(&length, image.data() + pos + 4, sizeof length);
        std::uint8_t *payload = image.data() + pos + 16;
        if (std::string(image.begin() + static_cast<long>(pos),
                        image.begin() + static_cast<long>(pos) + 4) ==
            tag) {
            edit(payload, length);
            const std::uint32_t crc = crc32(payload, length);
            std::memcpy(image.data() + pos + 12, &crc, sizeof crc);
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(image.data()),
                      static_cast<std::streamsize>(image.size()));
            return;
        }
        pos += 16 + length;
    }
    FAIL() << "no " << tag << " section in " << path;
}

/**
 * Overwrite the PCM-integrator byte of a snapshot file's `tag`
 * section. `skip` decodes the fields stored in front of it.
 */
void
patchIntegratorByte(const std::string &path, const std::string &tag,
                    std::uint8_t value,
                    const std::function<void(Deserializer &)> &skip)
{
    patchSection(path, tag, [&](std::uint8_t *payload, std::size_t length) {
        Deserializer fields(payload, length);
        skip(fields);
        payload[length - fields.remaining()] = value;
    });
}

/** The FatalError message `fn` throws, or empty if it returns. */
std::string
fatalMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &err) {
        return err.what();
    }
    return {};
}

void
skipBatchConfFields(Deserializer &conf)
{
    for (int k = 0; k < 4; ++k) // completed, run length, servers, seed
        conf.getU64();
    for (int k = 0; k < 6; ++k) // interval .. overheat temp
        conf.getDouble();
    conf.getSize(); // migration budget
    conf.getSize(); // peak window
    conf.getBool(); // recirculation
    conf.getBool(); // heatmaps
}

void
skipServeConfFields(Deserializer &conf)
{
    for (int k = 0; k < 3; ++k) // completed, servers, pod size
        conf.getSize();
    conf.getDouble(); // interval
    conf.getU64();    // seed
    conf.getDouble(); // power scale
    conf.getDouble(); // overheat temp
    conf.getSize();   // queue capacity
    conf.getSize();   // admission budget
    conf.getU8();     // admission policy
    conf.getString(); // scheduler
    conf.getDouble(); // grouping value
    conf.getDouble(); // wax threshold
}

/**
 * Where one FaultEngine::saveState block keeps its supply rise and
 * its first pending repair's due time (npos when none is pending),
 * as offsets into the section payload.
 */
struct EngineStateOffsets
{
    std::size_t supplyRise = std::string::npos;
    std::size_t firstRepairDue = std::string::npos;
};

EngineStateOffsets
skipFaultEngineState(Deserializer &in, std::size_t length)
{
    EngineStateOffsets at;
    in.getSize(); // plan cursor
    at.supplyRise = length - in.remaining();
    in.getDouble();
    for (int k = 0; k < 4; ++k) // Rng words
        in.getU64();
    in.getBool(); // Rng spare flag and value
    in.getDouble();
    const std::size_t repairs = in.getSize();
    if (repairs > 0)
        at.firstRepairDue = length - in.remaining();
    for (std::size_t i = 0; i < repairs; ++i) {
        in.getDouble();
        in.getSize();
    }
    const std::size_t servers = in.getSize();
    for (std::size_t i = 0; i < servers; ++i)
        in.getU8();
    return at;
}

using EngineField = std::size_t EngineStateOffsets::*;

void
putDoubleAt(std::uint8_t *at, double value)
{
    std::memcpy(at, &value, sizeof value);
}

/**
 * Copy the committed batch fixture, overwrite `field` of its fault
 * engine state in FALT with `bad` and return the FatalError message
 * of resuming from it. The echo in front of the state is walked by
 * the echo itself.
 */
std::string
corruptBatchFaultStateMessage(EngineField field, double bad)
{
    const std::string path = tempSnapshotPath("vmt_corrupt_falt.snap");
    std::ofstream(path, std::ios::binary)
        << slurp(fixturePath("driver_v2_faults.snap"));
    const SimConfig config = faultedFixtureRun();
    patchSection(path, "FALT", [&](std::uint8_t *payload,
                                   std::size_t length) {
        Deserializer in(payload, length);
        ConfigEcho echo(in, "fixture");
        echo.flag("fault enable", config.faults.enable);
        echoFaultParams(echo, config.faults);
        echoFaultPlan(echo, config.faults.plan);
        in.getBool(); // engine active
        const EngineStateOffsets at = skipFaultEngineState(in, length);
        ASSERT_NE(at.*field, std::string::npos);
        putDoubleAt(payload + at.*field, bad);
    });
    VmtWaScheduler sched = waScheduler();
    std::string message =
        fatalMessage([&] { tryResume(config, sched, path); });
    std::remove(path.c_str());
    return message;
}

/**
 * The serving counterpart: a degraded-fixture run with stochastic
 * failures too (so repairs are pending) writes its interval-6
 * checkpoint; `field` of the first shard engine that has one is
 * overwritten with `bad` in DGRD.
 */
std::string
corruptServeFaultStateMessage(EngineField field, double bad)
{
    const std::string ckpt = tempSnapshotPath("vmt_corrupt_dgrd.ckpt");
    serve::ServeConfig config = degradedFixtureRun(ckpt, 6);
    config.faults.mtbf = 0.5;
    runDegradedFixture(config);
    patchSection(ckpt, "DGRD", [&](std::uint8_t *payload,
                                   std::size_t length) {
        Deserializer in(payload, length);
        ConfigEcho echo(in, "checkpoint");
        serve::echoDegradedConfig(echo, config);
        for (int k = 0; k < 5; ++k) // evacuated .. brownout intervals
            in.getU64();
        serve::BrownoutGovernor(config.brownout).loadState(in);
        while (in.remaining() > 0) { // per shard: applied rise, engine
            in.getDouble();
            const EngineStateOffsets at = skipFaultEngineState(in, length);
            if (at.*field != std::string::npos) {
                putDoubleAt(payload + at.*field, bad);
                return;
            }
        }
        FAIL() << "no shard engine holds the field";
    });
    config.resumeFrom = ckpt;
    std::string message =
        fatalMessage([&] { runDegradedFixture(config); });
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
    return message;
}

/**
 * A fault engine's supply rise goes straight into the inlets, so one
 * that is NaN, infinite or negative is refused by name, in a batch
 * FALT and a serving DGRD alike; so is a pending repair whose due
 * time is not finite (a NaN one would never come due).
 */
TEST(ResumeMismatch, CorruptFaultEngineStateIsFatal)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {nan, inf, -1.0}) {
        SCOPED_TRACE("supply rise " + std::to_string(bad));
        const EngineField rise = &EngineStateOffsets::supplyRise;
        EXPECT_NE(corruptBatchFaultStateMessage(rise, bad)
                      .find("fault snapshot: supply rise"),
                  std::string::npos);
        EXPECT_NE(corruptServeFaultStateMessage(rise, bad)
                      .find("fault snapshot: supply rise"),
                  std::string::npos);
    }
    for (const double bad : {nan, inf, -inf}) {
        SCOPED_TRACE("repair due " + std::to_string(bad));
        const EngineField due = &EngineStateOffsets::firstRepairDue;
        EXPECT_NE(corruptBatchFaultStateMessage(due, bad)
                      .find("has a due time that is not finite"),
                  std::string::npos);
        EXPECT_NE(corruptServeFaultStateMessage(due, bad)
                      .find("has a due time that is not finite"),
                  std::string::npos);
    }
}

/**
 * Snapshot format v2 keeps one PCM-integrator byte in the batch CONF
 * and serving SCON sections. Writers always store 0 (closed form);
 * 1 named the removed sub-stepped integrator and must be refused by
 * name, and any other value is refused as invalid — in batch
 * snapshots and in vmtserve checkpoints alike.
 */
TEST(ResumeMismatch, DifferentIntegratorIsFatal)
{
    const struct
    {
        std::uint8_t byte;
        const char *named;
    } cases[] = {{1, "sub-stepped integrator, which has been removed"},
                 {0xFF, "invalid byte 255"}};

    for (const auto &c : cases) {
        SCOPED_TRACE("byte " + std::to_string(c.byte));
        const std::string path =
            writeReferenceSnapshot("vmt_mismatch_integ.snap");
        patchIntegratorByte(path, "CONF", c.byte, skipBatchConfFields);
        const SimConfig config = shortRun(20, 0.2);
        VmtWaScheduler sched = waScheduler();
        EXPECT_NE(fatalMessage([&] { tryResume(config, sched, path); })
                      .find(c.named),
                  std::string::npos);
        std::remove(path.c_str());
    }

    for (const auto &c : cases) {
        SCOPED_TRACE("serve byte " + std::to_string(c.byte));
        const std::string ckpt =
            tempSnapshotPath("vmt_mismatch_integ_serve.ckpt");
        serve::ServeConfig config;
        config.numServers = 24;
        config.podSize = 7;
        config.maxIntervals = 4;
        config.checkpointEvery = 2;
        config.checkpointPath = ckpt;
        serve::SyntheticFeedParams feed_params;
        feed_params.users = 14400.0;
        {
            serve::SyntheticFeed feed(feed_params);
            serve::ShardedDriver(config).run(feed);
        }
        patchIntegratorByte(ckpt, "SCON", c.byte, skipServeConfFields);
        config.resumeFrom = ckpt;
        serve::SyntheticFeed feed(feed_params);
        serve::ShardedDriver resumed(config);
        EXPECT_NE(fatalMessage([&] { resumed.run(feed); }).find(c.named),
                  std::string::npos);
        std::remove(ckpt.c_str());
        std::remove((ckpt + ".prev").c_str());
    }
}

/**
 * Write a small `vmtserve` checkpoint whose ingress ring holds a
 * backlog (the admission budget is below the arrival rate), patch it
 * with `edit` (see patchSection) and return the FatalError message of
 * resuming from it.
 */
std::string
corruptServeResumeMessage(
    const char *name, const std::string &tag,
    const std::function<void(std::uint8_t *, std::size_t)> &edit,
    const std::string &policy = "wa")
{
    const std::string ckpt = tempSnapshotPath(name);
    serve::ServeConfig config;
    config.policy = policy;
    // Three equal pods, so the router spreads jobs over all of them
    // and the last shard has departures pending.
    config.numServers = 21;
    config.podSize = 7;
    config.maxIntervals = 4;
    config.admissionBudget = 5;
    config.checkpointEvery = 2;
    config.checkpointPath = ckpt;
    serve::SyntheticFeedParams feed_params;
    feed_params.users = 14400.0;
    {
        serve::SyntheticFeed feed(feed_params);
        const serve::ServeResult result =
            serve::ShardedDriver(config).run(feed);
        EXPECT_GT(result.finalQueueDepth, 0u);
        EXPECT_GT(result.finalInFlight, 0u);
    }
    patchSection(ckpt, tag, edit);
    config.resumeFrom = ckpt;
    serve::SyntheticFeed feed(feed_params);
    serve::ShardedDriver resumed(config);
    std::string message = fatalMessage([&] { resumed.run(feed); });
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
    return message;
}

/**
 * INGR stores the ring as (capacity, depth) then per entry an arrival
 * time, a workload byte and a duration. A workload byte out of range,
 * or a time or duration that is NaN, infinite or negative, is refused
 * by name instead of being cast or queued.
 */
TEST(ResumeMismatch, CorruptIngressEntryIsFatal)
{
    // First entry: time at 16, workload byte at 24, duration at 25.
    const std::size_t time_at = 16;
    const std::size_t type_at = 24;
    const std::size_t duration_at = 25;
    const double nan = std::numeric_limits<double>::quiet_NaN();

    EXPECT_NE(corruptServeResumeMessage(
                  "vmt_corrupt_ingr_type.ckpt", "INGR",
                  [&](std::uint8_t *payload, std::size_t) {
                      payload[type_at] = 0xFF;
                  })
                  .find("ingress entry 0 has an invalid workload type "
                        "255"),
              std::string::npos);
    for (const double bad : {nan, -1.0}) {
        SCOPED_TRACE(std::to_string(bad));
        EXPECT_NE(corruptServeResumeMessage(
                      "vmt_corrupt_ingr_time.ckpt", "INGR",
                      [&](std::uint8_t *payload, std::size_t) {
                          putDoubleAt(payload + time_at, bad);
                      })
                      .find("ingress entry 0 has an invalid arrival "
                            "time"),
                  std::string::npos);
        EXPECT_NE(corruptServeResumeMessage(
                      "vmt_corrupt_ingr_duration.ckpt", "INGR",
                      [&](std::uint8_t *payload, std::size_t) {
                          putDoubleAt(payload + duration_at, bad);
                      })
                      .find("ingress entry 0 has an invalid duration"),
                  std::string::npos);
    }
}

/**
 * The synthetic feed's FEED section ends with its pending arrival
 * (time, workload byte, duration) and the emitted count; the arrival
 * is checked like an INGR entry.
 */
TEST(ResumeMismatch, CorruptFeedPendingArrivalIsFatal)
{
    EXPECT_NE(corruptServeResumeMessage(
                  "vmt_corrupt_feed_type.ckpt", "FEED",
                  [](std::uint8_t *payload, std::size_t length) {
                      payload[length - 17] = 0xFF;
                  })
                  .find("feed pending arrival has an invalid workload "
                        "type 255"),
              std::string::npos);
    EXPECT_NE(corruptServeResumeMessage(
                  "vmt_corrupt_feed_time.ckpt", "FEED",
                  [](std::uint8_t *payload, std::size_t length) {
                      putDoubleAt(payload + length - 25,
                                  std::numeric_limits<double>::
                                      quiet_NaN());
                  })
                  .find("feed pending arrival has an invalid arrival "
                        "time"),
              std::string::npos);
}

/**
 * SHRD ends with the last shard's pending departures as (time, slot)
 * pairs. A NaN or infinite time would reach IntervalQueue's
 * float-to-integer bucket conversion (undefined behaviour); it and a
 * negative time are refused by name.
 */
TEST(ResumeMismatch, CorruptDepartureTimeIsFatal)
{
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1.0}) {
        SCOPED_TRACE(std::to_string(bad));
        EXPECT_NE(corruptServeResumeMessage(
                      "vmt_corrupt_shrd_departure.ckpt", "SHRD",
                      [&](std::uint8_t *payload, std::size_t length) {
                          putDoubleAt(payload + length - 12, bad);
                      })
                      .find("is not a finite non-negative number"),
                  std::string::npos);
    }
}

/**
 * Write the 20-server reference snapshot, patch its QUEU section (the
 * batch job table) with `edit` and return the FatalError message of
 * resuming from it.
 */
std::string
corruptBatchQueueMessage(
    const char *name,
    const std::function<void(std::uint8_t *, std::size_t)> &edit)
{
    const std::string path = writeReferenceSnapshot(name);
    patchSection(path, "QUEU", edit);
    const SimConfig config = shortRun(20, 0.2);
    VmtWaScheduler sched = waScheduler();
    std::string message =
        fatalMessage([&] { tryResume(config, sched, path); });
    std::remove(path.c_str());
    return message;
}

/**
 * The batch QUEU section goes through the same job-table decoder as
 * a serving shard: its last pending departure's time (12 bytes from
 * the end) is refused when NaN, infinite or negative, before it
 * reaches the calendar's bucket conversion.
 */
TEST(ResumeMismatch, CorruptBatchDepartureTimeIsFatal)
{
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1.0}) {
        SCOPED_TRACE(std::to_string(bad));
        EXPECT_NE(corruptBatchQueueMessage(
                      "vmt_corrupt_queu_departure.snap",
                      [&](std::uint8_t *payload, std::size_t length) {
                          putDoubleAt(payload + length - 12, bad);
                      })
                      .find("is not a finite non-negative number"),
                  std::string::npos);
    }
}

/**
 * QUEU stores the slot table, the free list, then one residency list
 * per (server, workload). A residency entry naming a slot past the
 * table is refused by name instead of indexing past it.
 */
TEST(ResumeMismatch, CorruptBatchResidencySlotIsFatal)
{
    const auto point_past_table = [](std::uint8_t *payload,
                                     std::size_t length) {
        Deserializer queue(payload, length);
        const std::size_t slots = queue.getSize();
        for (std::size_t i = 0; i < slots; ++i) {
            queue.getSize(); // server
            queue.getU8();   // workload
            queue.getU32();  // position
        }
        const std::size_t free_count = queue.getSize();
        for (std::size_t i = 0; i < free_count; ++i)
            queue.getU32();
        // Skip the empty lists; patch the first entry of the first
        // non-empty one.
        while (queue.getSize() == 0)
            continue;
        const auto past = static_cast<std::uint32_t>(slots);
        std::memcpy(payload + length - queue.remaining(), &past,
                    sizeof past);
    };
    EXPECT_NE(corruptBatchQueueMessage("vmt_corrupt_queu_residency.snap",
                                       point_past_table)
                  .find("residency list references job slot"),
              std::string::npos);
}

void
putSizeAt(std::uint8_t *at, std::size_t value)
{
    Serializer encoded;
    encoded.putSize(value);
    std::memcpy(at, encoded.bytes().data(), encoded.bytes().size());
}

/**
 * A saved round-robin cursor — RoundRobin's `cursor_`, VMT-WA's
 * fallback `anyCursor_` — indexes a server. One at or past the server
 * count is refused by name at load, in batch snapshots (SCHD) and
 * serving checkpoints (SHRD) alike, instead of aborting the first
 * fallback placement in Cluster::server.
 */
TEST(ResumeMismatch, OutOfRangeCursorIsFatal)
{
    const std::size_t bad_cursors[] = {20, std::size_t{1} << 40};
    // Batch, 20 servers: RoundRobin's SCHD is the cursor alone;
    // VMT-WA's ends with anyCursor_.
    for (const std::size_t bad : bad_cursors) {
        SCOPED_TRACE("batch cursor " + std::to_string(bad));
        const std::string path = tempSnapshotPath("vmt_cursor_rr.snap");
        SimConfig config = shortRun(20, 0.2);
        installSingleCheckpoint(config, 6, path);
        RoundRobinScheduler writer;
        runSimulation(config, writer);
        patchSection(path, "SCHD",
                     [&](std::uint8_t *payload, std::size_t) {
                         putSizeAt(payload, bad);
                     });
        RoundRobinScheduler rr;
        EXPECT_NE(fatalMessage([&] {
                      tryResume(shortRun(20, 0.2), rr, path);
                  }).find("round-robin cursor " + std::to_string(bad) +
                          " is past the last server of a 20-server"),
                  std::string::npos);
        std::remove(path.c_str());

        const std::string wa_path =
            writeReferenceSnapshot("vmt_cursor_wa.snap");
        patchSection(wa_path, "SCHD",
                     [&](std::uint8_t *payload, std::size_t length) {
                         putSizeAt(payload + length - 8, bad);
                     });
        VmtWaScheduler wa = waScheduler();
        EXPECT_NE(fatalMessage([&] {
                      tryResume(shortRun(20, 0.2), wa, wa_path);
                  }).find("VMT-WA fallback cursor " +
                          std::to_string(bad) +
                          " is past the last server of a 20-server"),
                  std::string::npos);
        std::remove(wa_path.c_str());
    }

    // Serving, 7-server pods: SHRD holds the shard count, then per
    // shard the cluster, the scheduler and the job block. Patch the
    // first shard's cursor.
    Serializer cluster_block;
    Cluster(7, ServerSpec{}, ServerThermalParams{}, PowerModel({}, 1.0))
        .saveState(cluster_block);
    const std::size_t scheduler_at = 8 + cluster_block.bytes().size();
    Serializer wa_block;
    waScheduler().saveState(wa_block);
    const struct
    {
        const char *policy;
        std::size_t cursorAt;
        const char *named;
    } serve_cases[] = {
        {"rr", scheduler_at, "round-robin cursor 7 is past the last "
                             "server of a 7-server"},
        {"wa", scheduler_at + wa_block.bytes().size() - 8,
         "VMT-WA fallback cursor 7 is past the last server of a "
         "7-server"},
    };
    for (const auto &c : serve_cases) {
        SCOPED_TRACE(c.policy);
        EXPECT_NE(corruptServeResumeMessage(
                      "vmt_cursor_shrd.ckpt", "SHRD",
                      [&](std::uint8_t *payload, std::size_t) {
                          putSizeAt(payload + c.cursorAt, 7);
                      },
                      c.policy)
                      .find(c.named),
                  std::string::npos);
    }
}

TEST(ResumeMismatch, ShorterRunThanCompletedIntervalsIsFatal)
{
    const std::string path =
        writeReferenceSnapshot("vmt_mismatch_len.snap");
    SimConfig config = shortRun(20, 0.2);
    config.trace.duration = 0.05; // 3 intervals < 6 completed.
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched, path), FatalError);
    std::remove(path.c_str());
}

TEST(ResumeMismatch, MissingSnapshotFileIsFatal)
{
    const SimConfig config = shortRun(20, 0.2);
    VmtWaScheduler sched = waScheduler();
    EXPECT_THROW(tryResume(config, sched,
                           testing::TempDir() +
                               "vmt_no_such_snapshot.snap"),
                 FatalError);
}

} // namespace
} // namespace vmt
