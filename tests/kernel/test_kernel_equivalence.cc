/**
 * @file
 * SoA thermal-kernel equivalence at the simulation level: whole
 * runSimulation runs step the per-object oracle
 * (tests/reference/scalar_thermal.h) in lockstep with the driver's
 * cluster, and every interval's ClusterSample and per-server state
 * must match bitwise — serial and parallel stepping, scripted fault
 * plans, and a checkpoint restored into the oracle. Double
 * comparisons are deliberately exact (EXPECT_EQ, never EXPECT_NEAR):
 * the SoA kernel is a reorganization of the same arithmetic, not an
 * approximation of it.
 *
 * The binary carries the ctest label "kernel" (run alone with
 * `ctest -L kernel`; CI also runs the label under ASan/UBSan and
 * TSan).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/vmt_wa.h"
#include "fault/fault_plan.h"
#include "reference/scalar_thermal.h"
#include "state/sim_snapshot.h"
#include "thermal/thermal_kernel.h"
#include "util/thread_pool.h"

namespace vmt {
namespace {

using reference::ThermalLockstep;

/** Restores every process-wide knob the suite touches. */
class KnobGuard
{
  public:
    ~KnobGuard()
    {
        setThermalParallelThreshold(kThermalParallelThreshold);
        setGlobalThreadCount(0);
    }
};

void
expectSeriesIdentical(const TimeSeries &a, const TimeSeries &b,
                      const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i)) << what << " interval " << i;
}

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    expectSeriesIdentical(a.coolingLoad, b.coolingLoad,
                          "coolingLoad");
    expectSeriesIdentical(a.totalPower, b.totalPower, "totalPower");
    expectSeriesIdentical(a.waxHeatFlow, b.waxHeatFlow,
                          "waxHeatFlow");
    expectSeriesIdentical(a.meanAirTemp, b.meanAirTemp,
                          "meanAirTemp");
    expectSeriesIdentical(a.meanMeltFraction, b.meanMeltFraction,
                          "meanMeltFraction");
    expectSeriesIdentical(a.utilization, b.utilization,
                          "utilization");
    expectSeriesIdentical(a.inletTemp, b.inletTemp, "inletTemp");
    expectSeriesIdentical(a.aliveServers, b.aliveServers,
                          "aliveServers");
    EXPECT_EQ(a.peakCoolingLoad, b.peakCoolingLoad);
}

/** The oracle's samples must be the run's series, interval by
 *  interval, from `first` (the resume point) on. */
void
expectMatchesOracle(const SimResult &r, const ThermalLockstep &lockstep,
                    std::size_t first = 0)
{
    EXPECT_EQ(lockstep.divergence(), "");
    const std::vector<ClusterSample> &samples = lockstep.samples();
    ASSERT_EQ(first + samples.size(), r.coolingLoad.size());
    for (std::size_t k = 0; k < samples.size(); ++k) {
        const ClusterSample &s = samples[k];
        const std::size_t i = first + k;
        ASSERT_EQ(r.coolingLoad.at(i), s.coolingLoad) << "interval " << i;
        ASSERT_EQ(r.totalPower.at(i), s.totalPower) << "interval " << i;
        ASSERT_EQ(r.waxHeatFlow.at(i), s.waxHeatFlow) << "interval " << i;
        ASSERT_EQ(r.meanAirTemp.at(i), s.meanAirTemp) << "interval " << i;
        ASSERT_EQ(r.meanMeltFraction.at(i), s.meanMeltFraction)
            << "interval " << i;
    }
}

SimConfig
studyRun(std::size_t servers, double hours)
{
    SimConfig config = bench::studyConfig(servers);
    config.trace.duration = hours;
    return config;
}

/** VMT-WA at the study GV with the oracle stepping alongside. */
SimResult
runLockstep(SimConfig config, std::size_t threads,
            ThermalLockstep &lockstep,
            const std::string &snapshot = {})
{
    setGlobalThreadCount(threads);
    // Threshold 1: even the small test fleets take the chunked
    // parallel path when more than one thread is configured.
    setThermalParallelThreshold(1);
    lockstep.attach(config, snapshot);
    VmtWaScheduler sched(bench::studyVmt(22.0), hotMaskFromPaper());
    return runSimulation(config, sched, lockstep.observer());
}

TEST(KernelEquivalence, MatchesScalarAcrossThreads)
{
    KnobGuard guard;
    const SimConfig config = studyRun(80, 4.0);
    ThermalLockstep serial;
    const SimResult reference = runLockstep(config, 1, serial);
    expectMatchesOracle(reference, serial);
    ThermalLockstep parallel;
    const SimResult threaded = runLockstep(config, 4, parallel);
    expectMatchesOracle(threaded, parallel);
    expectResultsIdentical(reference, threaded);
}

TEST(KernelEquivalence, MatchesScalarUnderFaultPlan)
{
    KnobGuard guard;
    SimConfig config = studyRun(60, 4.0);
    config.faults.enable = true;
    // Outages mid-melt, a repair, and a cooling derate: health
    // transitions (0 W draws, refreezing wax) and inlet shifts must
    // flow through the SoA arrays exactly as through the objects.
    config.faults.plan = FaultPlan({
        {3600.0, FaultEventType::ServerDown, 3, 0.0},
        {3600.0, FaultEventType::ServerDown, 17, 0.0},
        {5400.0, FaultEventType::CoolingDerate, 0, 1.5},
        {7200.0, FaultEventType::ServerUp, 3, 0.0},
        {9000.0, FaultEventType::CoolingRestore, 0, 0.0},
    });
    ThermalLockstep lockstep;
    expectMatchesOracle(runLockstep(config, 1, lockstep), lockstep);
}

TEST(KernelEquivalence, CheckpointResumesAcrossKernels)
{
    KnobGuard guard;
    const std::string path =
        testing::TempDir() + "kernel_xresume.snap";
    const SimConfig config = studyRun(60, 4.0);

    ThermalLockstep uninterrupted;
    const SimResult base = runLockstep(config, 1, uninterrupted);
    expectMatchesOracle(base, uninterrupted);

    // Same run, checkpointing mid-melt (2 h of 4 h).
    SimConfig writing = config;
    CheckpointOptions save;
    save.every = 120;
    save.path = path;
    attachCheckpointing(writing, save);
    ThermalLockstep discarded;
    runLockstep(writing, 1, discarded);

    // Resume, restoring the snapshot's CLUS section straight into the
    // oracle: the layout is kernel-independent (saveState reads
    // through the accessors), so the per-object servers must step on
    // bitwise in lockstep with the SoA cluster, and the spliced run
    // must reproduce the uninterrupted series.
    SimConfig resuming = config;
    CheckpointOptions load;
    load.resumeFrom = path;
    attachCheckpointing(resuming, load);
    ThermalLockstep resumed_oracle;
    const SimResult resumed =
        runLockstep(resuming, 1, resumed_oracle, path);
    expectMatchesOracle(resumed, resumed_oracle, 120);
    expectResultsIdentical(base, resumed);

    std::remove(path.c_str());
}

} // namespace
} // namespace vmt
