/**
 * @file
 * Randomized lockstep property test for the SoA thermal kernel: a
 * cluster receives a seeded stream of mutations (job churn, health
 * transitions, per-server and global inlet shifts spanning freeze,
 * melt and throttle regimes, varying step lengths) while the
 * per-object oracle (tests/reference/scalar_thermal.h) shadows it;
 * the two must agree bitwise on every ClusterSample, on per-server
 * state at periodic deep checks, and on the serialized snapshot at
 * the end. This is the adversarial counterpart to the scripted
 * scenarios in test_kernel_equivalence.cc: the mutation stream is
 * designed to keep servers crossing PCM regime boundaries so the SoA
 * kernel's scalar-fixup path and its no-cross guard bands are
 * exercised continuously, not just at scenario edges.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "reference/scalar_thermal.h"
#include "server/cluster.h"
#include "state/serializer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

using reference::ScalarThermal;

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
expectSamplesIdentical(const ClusterSample &a, const ClusterSample &b,
                       std::size_t step)
{
    ASSERT_EQ(a.totalPower, b.totalPower) << "step " << step;
    ASSERT_EQ(a.coolingLoad, b.coolingLoad) << "step " << step;
    ASSERT_EQ(a.waxHeatFlow, b.waxHeatFlow) << "step " << step;
    ASSERT_EQ(a.meanAirTemp, b.meanAirTemp) << "step " << step;
    ASSERT_EQ(a.meanMeltFraction, b.meanMeltFraction)
        << "step " << step;
    ASSERT_EQ(a.maxAirTemp, b.maxAirTemp) << "step " << step;
    ASSERT_EQ(a.serversAboveThreshold, b.serversAboveThreshold)
        << "step " << step;
    ASSERT_EQ(a.throttledServers, b.throttledServers)
        << "step " << step;
}

void
expectServersIdentical(const Cluster &a, const ScalarThermal &b,
                       std::size_t step)
{
    ASSERT_EQ(a.totalPower(), b.totalPower()) << "step " << step;
    EXPECT_EQ(reference::describeDivergence(a, b), "")
        << "step " << step;
}

/**
 * One randomized mutation of the cluster; the oracle picks it up
 * through ScalarThermal::syncInputs before the next step. Decisions
 * are drawn from the Rng plus const reads of the cluster.
 */
void
mutate(Rng &rng, Cluster &cluster)
{
    const Cluster &ref = cluster;
    const std::uint64_t roll = rng.below(100);
    const std::size_t id = rng.below(kServers);
    if (roll < 40) {
        // Job churn toward hot: pile work onto a random server so its
        // air target climbs past the 35.7 C melting point.
        const WorkloadType type = kAllWorkloads[rng.below(kNumWorkloads)];
        const std::size_t burst = 1 + rng.below(8);
        for (std::size_t k = 0; k < burst; ++k) {
            if (!ref.server(id).hasCapacity())
                break;
            cluster.addJob(id, type);
        }
    } else if (roll < 62) {
        // Job churn toward cold: release cores so loaded wax refreezes.
        for (const WorkloadType type : kAllWorkloads) {
            const std::size_t idx = workloadIndex(type);
            if (ref.server(id).coreCounts()[idx] > 0) {
                cluster.removeJob(id, type);
                break;
            }
        }
    } else if (roll < 74) {
        // Per-server inlet shift (recirculation modelling).
        const Celsius t = rng.uniform(16.0, 40.0);
        cluster.setBaseInlet(id, t);
    } else if (roll < 86) {
        // Global inlet swing. Mostly spans freeze<->melt around the
        // 35.7 C melting point; occasionally spikes hot enough to
        // drive CPU junctions past the 85 C limit so the throttle
        // latch (and its SoA mirror) flips both ways.
        const Celsius t = rng.uniform() < 0.2
                              ? rng.uniform(50.0, 62.0)
                              : rng.uniform(14.0, 40.0);
        cluster.setBaseInlet(t);
    } else {
        // Health transition: Up -> Failed (drained first, like the
        // fault driver) or Up -> Quarantined, and back Up.
        const ServerHealth cur = ref.server(id).health();
        ServerHealth next = ServerHealth::Up;
        if (cur == ServerHealth::Up)
            next = rng.uniform() < 0.5 ? ServerHealth::Failed
                                       : ServerHealth::Quarantined;
        if (next == ServerHealth::Failed) {
            drainServer(cluster, id);
        }
        cluster.setHealth(id, next);
    }
}

TEST(KernelProperty, LockstepClosedIntegrator)
{
    KnobGuard guard;
    setGlobalThreadCount(1);
    Cluster cluster = makeCluster();
    ScalarThermal oracle(cluster);

    Rng rng(0xA5F00D5EEDull);
    const Seconds dts[3] = {30.0, 60.0, 300.0};
    for (std::size_t step = 0; step < kSteps; ++step) {
        mutate(rng, cluster);
        oracle.syncInputs(cluster);
        const Seconds dt = dts[rng.below(3)];
        const ClusterSample a = oracle.step(dt, 38.0);
        const ClusterSample b = cluster.stepThermal(dt, 38.0);
        expectSamplesIdentical(a, b, step);
        if (::testing::Test::HasFatalFailure())
            return;
        if ((step + 1) % kDeepCheckEvery == 0) {
            expectServersIdentical(cluster, oracle, step);
            if (::testing::Test::HasFailure())
                return;
        }
    }

    // The serialized snapshots must be byte-identical: a checkpoint
    // restores into either representation.
    Serializer sa;
    Serializer sb;
    oracle.saveState(sa);
    cluster.saveState(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());
}

} // namespace
} // namespace vmt
