/**
 * @file
 * Determinism suite for the parallel execution subsystem: every
 * parallel path (datacenter cluster fan-out, chunked thermal
 * stepping) must produce results bitwise identical to the serial
 * path at any thread count. Double comparisons here are deliberately
 * exact (EXPECT_EQ, not EXPECT_NEAR).
 *
 * The binary carries the ctest label "parallel" so it can be run
 * alone under TSan: cmake -DVMT_SANITIZE=thread && ctest -L parallel.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sched/round_robin.h"
#include "server/cluster.h"
#include "sim/datacenter_sim.h"
#include "thermal/rc_node.h"
#include "thermal/thermal_kernel.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the auto thread count when a test exits. */
class ThreadCountGuard
{
  public:
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

/** Restores the thermal fan-out threshold when a test exits. */
class ThresholdGuard
{
  public:
    ~ThresholdGuard() { setThermalParallelThreshold(saved_); }

  private:
    std::size_t saved_ = thermalParallelThreshold();
};

/** Pool tasks run so far, once the counts have settled: a task's
 *  count lands just after its future completes, so wait (bounded)
 *  until it reaches `at_least`, then a moment more for stragglers. */
std::uint64_t
settledTaskCount(std::uint64_t at_least)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (ThreadPool::taskStats().tasks < at_least &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ThreadPool::taskStats().tasks;
}

DatacenterSimConfig
smallDc(std::size_t clusters = 4)
{
    DatacenterSimConfig config;
    config.numClusters = clusters;
    config.cluster.numServers = 20;
    config.cluster.trace.duration = 6.0;
    return config;
}

DatacenterSimResult
runWithThreads(std::size_t threads, const DatacenterSimConfig &config)
{
    setGlobalThreadCount(threads);
    return runDatacenter(config, [](std::size_t) {
        return std::make_unique<RoundRobinScheduler>();
    });
}

void
expectSeriesIdentical(const TimeSeries &a, const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << "interval " << i;
}

TEST(ParallelDeterminism, DatacenterRunIsThreadCountInvariant)
{
    ThreadCountGuard guard;
    const DatacenterSimConfig config = smallDc();
    const DatacenterSimResult serial = runWithThreads(1, config);
    const DatacenterSimResult parallel = runWithThreads(4, config);

    EXPECT_EQ(serial.peakCoolingLoad, parallel.peakCoolingLoad);
    EXPECT_EQ(serial.sumOfClusterPeaks, parallel.sumOfClusterPeaks);
    expectSeriesIdentical(serial.coolingLoad, parallel.coolingLoad);
    expectSeriesIdentical(serial.totalPower, parallel.totalPower);

    ASSERT_EQ(serial.clusterSeeds.size(),
              parallel.clusterSeeds.size());
    EXPECT_EQ(serial.clusterSeeds, parallel.clusterSeeds);
    ASSERT_EQ(serial.clusterPhaseOffsets.size(),
              parallel.clusterPhaseOffsets.size());
    for (std::size_t c = 0; c < serial.clusterPhaseOffsets.size();
         ++c)
        EXPECT_EQ(serial.clusterPhaseOffsets[c],
                  parallel.clusterPhaseOffsets[c]);

    ASSERT_EQ(serial.clusters.size(), parallel.clusters.size());
    for (std::size_t c = 0; c < serial.clusters.size(); ++c) {
        EXPECT_EQ(serial.clusters[c].peakCoolingLoad,
                  parallel.clusters[c].peakCoolingLoad);
        EXPECT_EQ(serial.clusters[c].placedJobs,
                  parallel.clusters[c].placedJobs);
        expectSeriesIdentical(serial.clusters[c].coolingLoad,
                              parallel.clusters[c].coolingLoad);
    }
}

TEST(ParallelDeterminism, DatacenterSeedsMatchPreDrawContract)
{
    ThreadCountGuard guard;
    DatacenterSimConfig config = smallDc(3);
    config.cluster.seed = 11;
    const DatacenterSimResult r = runWithThreads(4, config);
    ASSERT_EQ(r.clusterSeeds.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(r.clusterSeeds[c], 11 + 1000 * (c + 1));
}

/** A 1,000-server cluster with a non-uniform load pattern. */
Cluster
bigCluster()
{
    Cluster cluster(1000, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.77));
    // Uneven occupancy so per-server temperatures diverge.
    for (std::size_t id = 0; id < cluster.numServers(); ++id) {
        const std::size_t jobs = id % 5;
        for (std::size_t j = 0; j < jobs; ++j)
            cluster.addJob(id, j % 2 == 0
                                   ? WorkloadType::WebSearch
                                   : WorkloadType::VideoEncoding);
    }
    return cluster;
}

TEST(ParallelDeterminism, StepThermalParallelMatchesSerialBitwise)
{
    ThreadCountGuard guard;
    ThresholdGuard threshold_guard;
    // Threshold 1: the 1,000-server cluster takes the chunked path at
    // 4 threads whatever the default cutover is.
    setThermalParallelThreshold(1);

    setGlobalThreadCount(1); // Reference: the serial fused loop.
    Cluster serial_cluster = bigCluster();
    std::vector<ClusterSample> serial_samples;
    for (int step = 0; step < 30; ++step)
        serial_samples.push_back(
            serial_cluster.stepThermal(60.0, 35.0));
    const Watts serial_power = serial_cluster.totalPower();

    setGlobalThreadCount(4); // Chunked parallel path.
    Cluster parallel_cluster = bigCluster();
    for (int step = 0; step < 30; ++step) {
        const ClusterSample s =
            parallel_cluster.stepThermal(60.0, 35.0);
        const ClusterSample &ref =
            serial_samples[static_cast<std::size_t>(step)];
        ASSERT_EQ(ref.totalPower, s.totalPower) << "step " << step;
        ASSERT_EQ(ref.coolingLoad, s.coolingLoad) << "step " << step;
        ASSERT_EQ(ref.waxHeatFlow, s.waxHeatFlow) << "step " << step;
        ASSERT_EQ(ref.meanAirTemp, s.meanAirTemp) << "step " << step;
        ASSERT_EQ(ref.meanMeltFraction, s.meanMeltFraction)
            << "step " << step;
        ASSERT_EQ(ref.maxAirTemp, s.maxAirTemp) << "step " << step;
        ASSERT_EQ(ref.serversAboveThreshold, s.serversAboveThreshold)
            << "step " << step;
        ASSERT_EQ(ref.throttledServers, s.throttledServers)
            << "step " << step;
    }
    EXPECT_EQ(serial_power, parallel_cluster.totalPower());

    // Per-server state must match too, not just the aggregates.
    for (std::size_t id = 0; id < serial_cluster.numServers(); ++id) {
        ASSERT_EQ(serial_cluster.server(id).airTemp(),
                  parallel_cluster.server(id).airTemp())
            << "server " << id;
        ASSERT_EQ(serial_cluster.server(id).waxMeltFraction(),
                  parallel_cluster.server(id).waxMeltFraction())
            << "server " << id;
    }
}

// ---------------------------------------------------------------------
// Cache regression tests: the hot-path caches (RcNode step gain,
// per-server power, cluster aggregate power) must reproduce the
// pre-cache computations bit for bit. Each test recomputes the
// historical expression inline and compares with EXPECT_EQ.
// ---------------------------------------------------------------------

TEST(CacheRegression, RcNodeStepMatchesDirectFormula)
{
    const Seconds tau = 120.0;
    RcNode node(tau, 25.0);
    Celsius reference = 25.0;
    // Varying targets at a fixed dt (the cached regime), then a dt
    // change mid-run to force a gain recompute, then the original dt
    // again.
    const Seconds dts[] = {60.0, 60.0, 60.0, 15.0, 15.0, 60.0, 60.0};
    Celsius target = 55.0;
    for (const Seconds dt : dts) {
        node.step(target, dt);
        reference += (target - reference) *
                     (1.0 - std::exp(-dt / tau));
        ASSERT_EQ(reference, node.temperature()) << "dt " << dt;
        target += 7.5; // Exercise distinct targets per step.
    }
}

TEST(CacheRegression, ServerPowerMatchesUncachedFormula)
{
    const ServerSpec spec;
    const ServerThermalParams thermal;
    const PowerModel model(spec, 1.77);
    Cluster cluster(1, spec, thermal, model);
    const Server &srv = std::as_const(cluster).server(0);

    const auto uncached = [&]() {
        // The historical per-call computation, written out in full.
        const Watts nominal = model.serverPower(srv.coreCounts());
        if (!srv.throttled())
            return nominal;
        const Watts idle = model.spec().idlePower;
        return idle +
               (nominal - idle) * thermal.throttleFactor;
    };

    EXPECT_EQ(uncached(), srv.power(model));
    cluster.addJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(uncached(), srv.power(model));
    cluster.addJob(0, WorkloadType::VideoEncoding);
    EXPECT_EQ(uncached(), srv.power(model));
    // Repeated reads serve the cache; the value must not drift.
    EXPECT_EQ(srv.power(model), srv.power(model));
    cluster.removeJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(uncached(), srv.power(model));
}

TEST(CacheRegression, ThrottledServerPowerMatchesUncachedFormula)
{
    // A junction limit below ambient guarantees the first thermal
    // step flips the server into the throttled state.
    const ServerSpec spec;
    ServerThermalParams thermal;
    thermal.cpuLimit = 1.0;
    const PowerModel model(spec, 1.77);
    Cluster cluster(1, spec, thermal, model);
    for (std::size_t core = 0; core < spec.cores(); ++core)
        cluster.addJob(0, WorkloadType::WebSearch);
    cluster.stepThermal(60.0);

    const Server &srv = std::as_const(cluster).server(0);
    ASSERT_TRUE(srv.throttled());
    const Watts nominal = model.serverPower(srv.coreCounts());
    const Watts idle = model.spec().idlePower;
    const Watts expected =
        idle + (nominal - idle) * thermal.throttleFactor;
    EXPECT_EQ(expected, srv.power(model));
}

TEST(CacheRegression, TotalPowerMatchesSerialRecompute)
{
    ThreadCountGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster = bigCluster();
    const PowerModel &model = cluster.powerModel();

    const auto serial_recompute = [&]() {
        Watts total = 0.0;
        for (std::size_t id = 0; id < cluster.numServers(); ++id)
            total +=
                std::as_const(cluster).server(id).power(model);
        return total;
    };

    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    // Cached read must equal the first.
    EXPECT_EQ(serial_recompute(), cluster.totalPower());

    cluster.addJob(0, WorkloadType::WebSearch);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    cluster.removeJob(3, WorkloadType::VideoEncoding);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
    cluster.stepThermal(60.0);
    EXPECT_EQ(serial_recompute(), cluster.totalPower());
}

TEST(ParallelDeterminism, SmallClusterStaysOnSerialPath)
{
    ThreadCountGuard guard;
    ThresholdGuard threshold_guard;
    setGlobalThreadCount(4);
    setThermalParallelThreshold(kThermalParallelThreshold);
    // One server below the default cutover the fused serial loop runs
    // even with a multi-thread pool (no pool task is submitted); at
    // the cutover the step fans out. This documents the contract.
    Cluster small(kThermalParallelThreshold - 1, ServerSpec{},
                  ServerThermalParams{}, PowerModel({}, 1.77));
    const std::uint64_t before = settledTaskCount(0);
    const ClusterSample s = small.stepThermal(60.0);
    EXPECT_GT(s.coolingLoad, 0.0);
    EXPECT_EQ(settledTaskCount(before), before);

    Cluster at_cutover(kThermalParallelThreshold, ServerSpec{},
                       ServerThermalParams{}, PowerModel({}, 1.77));
    at_cutover.stepThermal(60.0);
    EXPECT_GT(settledTaskCount(before + 1), before);
}

TEST(ParallelFor, NestedCallFromCallerChunkRunsInline)
{
    // The calling thread drains chunks of its own region; a nested
    // parallelFor from one of those chunks must run inline there, as
    // it does on a worker, and submit nothing. Outer chunks on the
    // helpers park until the caller's nested call returns, so the
    // caller is sure to run a chunk; the wait is bounded, so a
    // regression fails instead of deadlocking.
    ThreadPool pool(3);
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::condition_variable nested_cv;
    bool nested_done = false;
    std::atomic<bool> nested_started{false};
    std::vector<std::pair<std::size_t, std::size_t>> inner_calls;
    std::vector<std::thread::id> inner_threads;

    const std::uint64_t before = settledTaskCount(0);
    parallelFor(pool, 0, pool.size() + 1, 1,
                [&](std::size_t, std::size_t) {
                    if (std::this_thread::get_id() != caller) {
                        std::unique_lock<std::mutex> lock(mutex);
                        nested_cv.wait_for(lock,
                                           std::chrono::seconds(5),
                                           [&] { return nested_done; });
                        return;
                    }
                    if (nested_started.exchange(true))
                        return;
                    parallelFor(pool, 0, 1000, 10,
                                [&](std::size_t b, std::size_t e) {
                                    std::lock_guard<std::mutex> lock(
                                        mutex);
                                    inner_calls.emplace_back(b, e);
                                    inner_threads.push_back(
                                        std::this_thread::get_id());
                                });
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        nested_done = true;
                    }
                    nested_cv.notify_all();
                });

    ASSERT_TRUE(nested_started.load());
    ASSERT_EQ(inner_calls.size(), 1u);
    EXPECT_EQ(inner_calls[0].first, 0u);
    EXPECT_EQ(inner_calls[0].second, 1000u);
    EXPECT_EQ(inner_threads[0], caller);
    // Only the outer region's helpers (one per worker) ran as tasks.
    EXPECT_EQ(settledTaskCount(before + pool.size()),
              before + pool.size());
}

} // namespace
} // namespace vmt
