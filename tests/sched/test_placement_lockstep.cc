/**
 * @file
 * Randomized lockstep property suite for the production schedulers
 * (PlacementView + BlockMinGroup, DESIGN.md §14) against the scalar
 * reference schedulers in tests/reference/scalar_schedulers.h. Two
 * cluster+scheduler twins — one per implementation — receive an
 * identical seeded stream of mutations (job churn, health flips with
 * fault-style drains, per-server and global inlet shifts, thermal
 * steps of varying length) and must agree bitwise on every placement
 * decision, on per-server cluster state at periodic deep checks, and
 * on the serialized snapshots at the end. A second tier runs whole
 * simulations (fault plan + migration budget, threads 1 and 4,
 * checkpoint/resume) and requires byte-identical SimResults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.h"
#include "core/adaptive_vmt.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "reference/scalar_schedulers.h"
#include "sched/coolest_first.h"
#include "sched/round_robin.h"
#include "sched/switchover.h"
#include "sim/job_table.h"
#include "sim/simulation.h"
#include "state/serializer.h"
#include "state/sim_snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

/** Restores the thread count the suite pins. */
class KnobGuard
{
  public:
    ~KnobGuard() { setGlobalThreadCount(0); }
};

constexpr std::size_t kServers = 48;
constexpr std::size_t kSteps = 5000;
constexpr std::size_t kDeepCheckEvery = 250;

Cluster
makeCluster()
{
    return Cluster(kServers, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.0));
}

/** Drain every job off a server through the cluster bookkeeping (what
 *  the fault driver does before marking it Failed). */
void
drainServer(Cluster &c, std::size_t id)
{
    for (const WorkloadType type : kAllWorkloads) {
        const std::size_t idx = workloadIndex(type);
        while (c.server(id).coreCounts()[idx] > 0)
            c.removeJob(id, type);
    }
}

void
expectServersIdentical(const Cluster &a, const Cluster &b,
                       std::size_t step)
{
    ASSERT_EQ(a.totalPower(), b.totalPower()) << "step " << step;
    for (std::size_t i = 0; i < a.numServers(); ++i) {
        SCOPED_TRACE("step " + std::to_string(step) + " server " +
                     std::to_string(i));
        const Server &sa = a.server(i);
        const Server &sb = b.server(i);
        ASSERT_EQ(sa.airTemp(), sb.airTemp());
        ASSERT_EQ(sa.waxEnthalpy(), sb.waxEnthalpy());
        ASSERT_EQ(sa.estimatedWaxEnthalpy(),
                  sb.estimatedWaxEnthalpy());
        ASSERT_EQ(sa.health(), sb.health());
        ASSERT_EQ(sa.coreCounts(), sb.coreCounts());
        ASSERT_EQ(sa.power(a.powerModel()), sb.power(b.powerModel()));
    }
}

/**
 * One randomized mutation applied identically to both twins. All
 * decisions are drawn from the shared Rng plus const reads of the
 * scalar twin (whose state the deep checks pin to the production
 * twin's). Placements themselves go through the schedulers below —
 * this stream only provides churn, thermal drift and health chaos.
 */
void
mutate(Rng &rng, Cluster &scalar, Cluster &batched)
{
    const Cluster &ref = scalar;
    const std::uint64_t roll = rng.below(100);
    const std::size_t id = rng.below(kServers);
    if (roll < 35) {
        // Departure churn: free cores so heaps go stale mid-interval
        // and wax refreezes.
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t idx = workloadIndex(type);
            if (ref.server(id).coreCounts()[idx] > 0) {
                scalar.removeJob(id, type);
                batched.removeJob(id, type);
                break;
            }
        }
    } else if (roll < 55) {
        // Per-server inlet shift (recirculation modelling).
        const Celsius t = rng.uniform(16.0, 40.0);
        scalar.setBaseInlet(id, t);
        batched.setBaseInlet(id, t);
    } else if (roll < 70) {
        // Global inlet swing spanning freeze<->melt regimes.
        const Celsius t = rng.uniform(14.0, 42.0);
        scalar.setBaseInlet(t);
        batched.setBaseInlet(t);
    } else {
        // Health transition: Up -> Failed (drained first, like the
        // fault driver) or Up -> Quarantined, and back Up.
        const ServerHealth cur = ref.server(id).health();
        ServerHealth next = ServerHealth::Up;
        if (cur == ServerHealth::Up)
            next = rng.uniform() < 0.5 ? ServerHealth::Failed
                                       : ServerHealth::Quarantined;
        if (next == ServerHealth::Failed) {
            drainServer(scalar, id);
            drainServer(batched, id);
        }
        scalar.setHealth(id, next);
        batched.setHealth(id, next);
    }
}

/** Scheduler twins: the scalar reference and the production
 *  scheduler for the same policy. */
template <typename Scalar, typename Batched>
void
runLockstep(Scalar scalar_sched, Batched batched_sched,
            std::uint64_t seed, std::size_t steps = kSteps)
{
    KnobGuard guard;
    setGlobalThreadCount(1);
    Cluster scalar_cluster = makeCluster();
    Cluster batched_cluster = makeCluster();

    Rng rng(seed);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    std::vector<Job> batch;
    std::vector<std::size_t> scalar_out;
    std::vector<std::size_t> batched_out;
    Seconds now = 0.0;
    for (std::size_t step = 0; step < steps; ++step) {
        // Background churn between intervals (1-3 mutations).
        const std::size_t churn = 1 + rng.below(3);
        for (std::size_t k = 0; k < churn; ++k)
            mutate(rng, scalar_cluster, batched_cluster);

        scalar_sched.beginInterval(scalar_cluster, now);
        batched_sched.beginInterval(batched_cluster, now);

        // An arrival batch through the batch API (the driver's path);
        // every decision must match, in order.
        batch.clear();
        const std::size_t arrivals = rng.below(6);
        for (std::size_t k = 0; k < arrivals; ++k)
            batch.push_back(Job{
                step, kAllWorkloads[rng.below(kNumWorkloads)], 0.0});
        scalar_sched.placeJobs(scalar_cluster, batch, scalar_out);
        batched_sched.placeJobs(batched_cluster, batch, batched_out);
        ASSERT_EQ(scalar_out, batched_out) << "step " << step;

        // Plus a single-job placement (the legacy path stays wired).
        const Job single{step, kAllWorkloads[rng.below(kNumWorkloads)],
                         0.0};
        const std::size_t a =
            scalar_sched.placeJob(scalar_cluster, single);
        const std::size_t b =
            batched_sched.placeJob(batched_cluster, single);
        ASSERT_EQ(a, b) << "step " << step;
        if (a != kNoServer) {
            scalar_cluster.addJob(a, single.type);
            batched_cluster.addJob(b, single.type);
        }

        const Seconds dt = dts[rng.below(3)];
        scalar_cluster.stepThermal(dt, 38.0);
        batched_cluster.stepThermal(dt, 38.0);
        now += dt;

        if ((step + 1) % kDeepCheckEvery == 0) {
            expectServersIdentical(scalar_cluster, batched_cluster,
                                   step);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Snapshots written by either implementation are interchangeable.
    Serializer sa;
    Serializer sb;
    scalar_cluster.saveState(sa);
    batched_cluster.saveState(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());
    Serializer ssa;
    Serializer ssb;
    scalar_sched.saveState(ssa);
    batched_sched.saveState(ssb);
    EXPECT_EQ(ssa.bytes(), ssb.bytes());
}

TEST(PlacementLockstep, CoolestFirst)
{
    runLockstep(reference::ScalarCoolestFirst(),
                CoolestFirstScheduler(), 0xC001E57F1257ull);
}

TEST(PlacementLockstep, VmtTa)
{
    const VmtConfig vmt = bench::studyVmt(22.0);
    runLockstep(reference::ScalarVmtTa(vmt, hotMaskFromPaper()),
                VmtTaScheduler(vmt, hotMaskFromPaper()), 0x7A5EEDull);
}

TEST(PlacementLockstep, VmtWa)
{
    const VmtConfig vmt = bench::studyVmt(22.0);
    runLockstep(reference::ScalarVmtWa(vmt, hotMaskFromPaper()),
                VmtWaScheduler(vmt, hotMaskFromPaper()), 0x3A5EEDull);
}

TEST(PlacementLockstep, VmtPreserve)
{
    const VmtConfig vmt = bench::studyVmt(22.0);
    runLockstep(reference::ScalarVmtPreserve(vmt, hotMaskFromPaper()),
                VmtPreserveScheduler(vmt, hotMaskFromPaper()),
                0x9E5EEDull);
}

TEST(PlacementLockstep, AdaptiveVmt)
{
    // The adaptive controller re-tunes GV from interval telemetry;
    // shorter run, same contract.
    const VmtConfig vmt = bench::studyVmt(22.0);
    runLockstep(reference::ScalarAdaptiveVmt(vmt, hotMaskFromPaper()),
                AdaptiveVmtScheduler(vmt, hotMaskFromPaper()),
                0xADA7EEDull, 1500);
}

// ---------------------------------------------------------------------
// A saturated pod. Once the hot group is full, VMT-WA's hot jobs fall
// through to cascade steps (3) and (4), which the production scheduler
// probes through bitmasks built at an interval's first fallback. The
// twins release capacity between two placeJobs calls of one interval
// (departures, a live migration, a repaired server), so a mask that
// missed a release, trusted a stale bit or left the cursor behind
// decides differently from the per-server probe of the oracle.
// ---------------------------------------------------------------------

constexpr std::size_t kPodServers = 256;

/** What the saturated run placed through the fallback steps. */
struct FallbackHits
{
    /** Hot jobs outside the hot group below / at or above the wax
     *  threshold: cascade step (3) / step (4). */
    std::size_t belowThreshold = 0;
    std::size_t anyServer = 0;
    /** Fallback placements at a lower id than the one before. */
    std::size_t wraps = 0;
    /** Lowest busy fraction after the fill. */
    double minBusy = 1.0;
};

/** One pod (cluster + job table) per implementation. */
struct PodTwin
{
    Cluster cluster{kPodServers, ServerSpec{}, ServerThermalParams{},
                    PowerModel({}, 1.0)};
    JobTable jobs{kPodServers, 60.0};
};

template <typename Scalar, typename Production>
FallbackHits
runSaturatedLockstep(Scalar scalar_sched, Production prod_sched,
                     std::uint64_t seed)
{
    KnobGuard guard;
    setGlobalThreadCount(1);
    PodTwin scalar;
    PodTwin prod;
    PodTwin *const twins[2] = {&scalar, &prod};
    const HotMask hot = hotMaskFromPaper();
    const double threshold = bench::studyVmt(22.0).waxThreshold;
    // Hot aisles on every third server, so part of the pod melts.
    for (PodTwin *twin : twins)
        for (std::size_t id = 0; id < kPodServers; ++id)
            twin->cluster.setBaseInlet(id, id % 3 == 0 ? 38.0 : 24.0);

    Rng rng(seed);
    FallbackHits hits;
    std::size_t last_fallback = 0;
    std::size_t failed = kNoServer;
    std::vector<Job> batch;
    std::vector<std::size_t> scalar_out;
    std::vector<std::size_t> prod_out;
    Seconds now = 0.0;

    const auto place = [&](std::size_t arrivals, std::size_t step) {
        batch.clear();
        std::vector<Seconds> due;
        for (std::size_t k = 0; k < arrivals; ++k) {
            batch.push_back(Job{
                step, kAllWorkloads[rng.below(kNumWorkloads)], 0.0});
            due.push_back(now + rng.uniform(1800.0, 36000.0));
        }
        scalar_sched.placeJobs(scalar.cluster, batch, scalar_out);
        prod_sched.placeJobs(prod.cluster, batch, prod_out);
        ASSERT_EQ(scalar_out, prod_out) << "step " << step;
        const std::size_t hot_size = *scalar_sched.hotGroupSize();
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const std::size_t id = scalar_out[k];
            if (id == kNoServer)
                continue;
            scalar.jobs.bind(id, batch[k].type, due[k]);
            prod.jobs.bind(id, batch[k].type, due[k]);
            if (!hot[workloadIndex(batch[k].type)] || id < hot_size)
                continue;
            if (std::as_const(scalar.cluster)
                    .server(id)
                    .estimatedMeltFraction() < threshold)
                ++hits.belowThreshold;
            else
                ++hits.anyServer;
            hits.wraps += id < last_fallback;
            last_fallback = id;
        }
    };

    constexpr std::size_t kFillSteps = 6;
    constexpr std::size_t kSteps = 160;
    for (std::size_t step = 0; step < kSteps; ++step) {
        const bool filling = step < kFillSteps;
        for (PodTwin *twin : twins)
            twin->jobs.drainDue(now, twin->cluster);
        // Now and then a server fails (its jobs are lost) until a
        // repair mid-interval.
        if (!filling && failed == kNoServer && rng.below(4) == 0) {
            failed = rng.below(kPodServers);
            const std::size_t down[1] = {failed};
            for (PodTwin *twin : twins) {
                twin->jobs.evacuate(down, twin->cluster,
                                    [](std::uint32_t, WorkloadType,
                                       Seconds) {});
                twin->cluster.setHealth(failed, ServerHealth::Failed);
            }
        }

        scalar_sched.beginInterval(scalar.cluster, now);
        prod_sched.beginInterval(prod.cluster, now);
        place(filling ? 2000 : 150 + rng.below(100), step);
        if (::testing::Test::HasFatalFailure())
            return hits;
        if (!filling)
            hits.minBusy = std::min(
                hits.minBusy,
                static_cast<double>(scalar.cluster.busyCores()) /
                    static_cast<double>(scalar.cluster.totalCores()));

        // Give capacity back mid-interval, one way per interval, so
        // each has to be seen on its own.
        switch (rng.below(3)) {
        case 0: // Departures due in the first half of the interval.
            for (PodTwin *twin : twins)
                twin->jobs.drainDue(now + 30.0, twin->cluster);
            break;
        case 1: { // Live-migrate a hot-group job onto a free server.
            const Cluster &ref = scalar.cluster;
            const std::size_t from = rng.below(
                std::max<std::size_t>(1, *scalar_sched.hotGroupSize()));
            std::size_t to = kNoServer;
            for (std::size_t id = 0; id < kPodServers; ++id)
                if (id != from && ref.server(id).hasCapacity())
                    to = id;
            for (const WorkloadType type : kAllWorkloads) {
                if (to == kNoServer ||
                    ref.server(from).coreCounts()[workloadIndex(type)] ==
                        0)
                    continue;
                for (PodTwin *twin : twins)
                    twin->jobs.migrate(from, to, type, twin->cluster);
                break;
            }
            break;
        }
        default: // The failed server comes back, empty.
            if (failed != kNoServer) {
                for (PodTwin *twin : twins)
                    twin->cluster.setHealth(failed, ServerHealth::Up);
                failed = kNoServer;
            }
            break;
        }
        place(40 + rng.below(40), step);
        if (::testing::Test::HasFatalFailure())
            return hits;

        for (PodTwin *twin : twins)
            twin->cluster.stepThermal(300.0, 38.0);
        now += 300.0;
    }
    expectServersIdentical(scalar.cluster, prod.cluster, kSteps);
    Serializer sa;
    Serializer sb;
    scalar_sched.saveState(sa);
    prod_sched.saveState(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());
    return hits;
}

void
expectFallbacksDriven(const FallbackHits &hits)
{
    EXPECT_GE(hits.minBusy, 0.95);
    EXPECT_GT(hits.belowThreshold, 0u);
    EXPECT_GT(hits.anyServer, 0u);
    EXPECT_GT(hits.wraps, 0u);
}

TEST(PlacementLockstep, VmtWaSaturatedPodFallbacks)
{
    const VmtConfig vmt = bench::studyVmt(22.0);
    expectFallbacksDriven(runSaturatedLockstep(
        reference::ScalarVmtWa(vmt, hotMaskFromPaper()),
        VmtWaScheduler(vmt, hotMaskFromPaper()), 0x5A7u));
}

TEST(PlacementLockstep, AdaptiveVmtSaturatedPodFallbacks)
{
    const VmtConfig vmt = bench::studyVmt(22.0);
    expectFallbacksDriven(runSaturatedLockstep(
        reference::ScalarAdaptiveVmt(vmt, hotMaskFromPaper()),
        AdaptiveVmtScheduler(vmt, hotMaskFromPaper()), 0xADA5A7u));
}

// ---------------------------------------------------------------------
// Whole-simulation equivalence: production and reference schedulers
// must agree through the full driver — arrivals, departures,
// migrations, fault evacuation, checkpoint/resume — at any thread
// count.
// ---------------------------------------------------------------------

void
expectSeriesIdentical(const char *what, const TimeSeries &a,
                      const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << what << " interval " << i;
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
    expectSeriesIdentical("aliveServers", a.aliveServers,
                          b.aliveServers);
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
    EXPECT_EQ(a.evacuatedJobs, b.evacuatedJobs);
    EXPECT_EQ(a.lostJobs, b.lostJobs);
}

/** Faulted study config: half an aisle drops mid-run, one repair. */
SimConfig
faultedRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    std::string text;
    for (int id = 0; id < 8; ++id)
        text += "0.05 server-down " + std::to_string(id) + "\n";
    text += "0.15 server-up 3\n";
    config.faults.plan = FaultPlan::parse(text);
    config.migrationBudget = 8;
    return config;
}

/** One policy, run through the full driver by its production
 *  scheduler (`run`) and by its scalar reference (`reference`). */
struct NamedPolicy
{
    const char *name;
    std::function<SimResult(const SimConfig &)> run;
    std::function<SimResult(const SimConfig &)> reference;
};

/** Run a default-constructible or VMT-configured scheduler. */
template <typename Sched>
SimResult
runPolicy(const SimConfig &config)
{
    if constexpr (std::is_default_constructible_v<Sched>) {
        Sched s;
        return runSimulation(config, s);
    } else {
        Sched s(bench::studyVmt(22.0), hotMaskFromPaper());
        return runSimulation(config, s);
    }
}

/** Round robin until 0.1 h, then coolest first. */
template <typename CoolestFirst>
SimResult
runSwitchover(const SimConfig &config)
{
    RoundRobinScheduler before;
    CoolestFirst after;
    SwitchoverScheduler s(before, after, 0.1 * kHour);
    return runSimulation(config, s);
}

std::vector<NamedPolicy>
allPolicies()
{
    using namespace reference;
    return {
        {"rr", runPolicy<RoundRobinScheduler>,
         runPolicy<RoundRobinScheduler>},
        {"cf", runPolicy<CoolestFirstScheduler>,
         runPolicy<ScalarCoolestFirst>},
        {"switchover", runSwitchover<CoolestFirstScheduler>,
         runSwitchover<ScalarCoolestFirst>},
        {"ta", runPolicy<VmtTaScheduler>, runPolicy<ScalarVmtTa>},
        {"wa", runPolicy<VmtWaScheduler>, runPolicy<ScalarVmtWa>},
        {"preserve", runPolicy<VmtPreserveScheduler>,
         runPolicy<ScalarVmtPreserve>},
        {"adaptive", runPolicy<AdaptiveVmtScheduler>,
         runPolicy<ScalarAdaptiveVmt>},
    };
}

TEST(PlacementSimEquivalence, EveryPolicyFaultedBothThreadCounts)
{
    KnobGuard guard;
    const SimConfig config = faultedRun(20, 0.2);
    for (const NamedPolicy &policy : allPolicies()) {
        setGlobalThreadCount(1);
        const SimResult reference = policy.reference(config);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(policy.name) +
                         " threads=" + std::to_string(threads));
            setGlobalThreadCount(threads);
            expectResultsIdentical(reference, policy.run(config));
        }
    }
}

TEST(PlacementSimEquivalence, CheckpointEngineDoesNotLeakIntoResume)
{
    KnobGuard guard;
    setGlobalThreadCount(1);
    const std::string path =
        testing::TempDir() + "vmt_placement_resume.snap";
    std::remove(path.c_str());
    const SimConfig config = faultedRun(20, 0.2);
    const VmtConfig vmt = bench::studyVmt(22.0);

    reference::ScalarVmtWa plain(vmt, hotMaskFromPaper());
    const SimResult reference = runSimulation(config, plain);

    // Write the checkpoint from a scalar reference run...
    SimConfig saving = config;
    saving.checkpointHook = [&path](const SimState &state,
                                    std::size_t completed) {
        if (completed == 6)
            saveSnapshot(state, completed, path);
    };
    reference::ScalarVmtWa interrupted(vmt, hotMaskFromPaper());
    runSimulation(saving, interrupted);

    // ...and resume under the production scheduler: bitwise
    // identical.
    SimConfig resuming = config;
    CheckpointOptions options;
    options.resumeFrom = path;
    attachCheckpointing(resuming, options);
    VmtWaScheduler resumed(vmt, hotMaskFromPaper());
    expectResultsIdentical(reference,
                           runSimulation(resuming, resumed));
    std::remove(path.c_str());
}

} // namespace
} // namespace vmt
