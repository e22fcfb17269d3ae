/**
 * @file
 * The benchmark harness's own tests: the scheduler decorator and the
 * feed wrapper are bitwise transparent, shortened workloads pass
 * every check, injected mismatches fail their op, and the recorded
 * references are those of the unwrapped library entry points.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "checks.h"
#include "core/policy_factory.h"
#include "runner.h"
#include "workloads.h"

namespace vmtbench {
namespace {

const std::string kWorkDir = "vmtbench_test_work";

/** A few minutes of a workload on a small fleet. */
WorkloadSpec
small(const std::string &name)
{
    const WorkloadSpec &spec = *findWorkload(name);
    return spec.kind == Kind::Batch ? shortened(spec, 200, 240)
                                    : shortened(spec, 1024, 96);
}

std::uint64_t
unwrappedBatchDigest(const WorkloadSpec &spec, std::uint64_t seed)
{
    auto scheduler = vmt::makeScheduler(spec.policy, 22.0, 0.98);
    return digestBatch(
        vmt::runSimulation(batchConfig(spec, seed), *scheduler));
}

/** Statistics digest and telemetry digest of an unwrapped serving
 *  run (plain SyntheticFeed, no observability). */
std::pair<std::uint64_t, std::uint64_t>
unwrappedServeDigests(const WorkloadSpec &spec, std::uint64_t seed)
{
    const std::string dir = kWorkDir + "/unwrapped";
    std::filesystem::create_directories(dir);
    vmt::serve::ServeConfig config = serveConfig(spec, seed, dir);
    config.keepTelemetry = true;
    vmt::serve::ShardedDriver driver(config);
    vmt::serve::SyntheticFeed feed(feedParams(spec, seed));
    const vmt::serve::ServeResult result = driver.run(feed);
    std::filesystem::remove_all(dir);
    return {digestServe(result), digestText(result.telemetry)};
}

double
metric(const RunReport &report, const std::string &name)
{
    for (const MetricValue &m : report.metrics)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
}

TEST(Transparency, BatchDecoratorLeavesStatisticsBitwiseIdentical)
{
    for (const char *name : {"sim-wa-1k", "sim-rr-1k"}) {
        const WorkloadSpec spec = small(name);
        const std::uint64_t expected = unwrappedBatchDigest(spec, 3);
        EXPECT_EQ(runOp(spec, 3, nullptr, kWorkDir).digest, expected)
            << name;
        Tracer tracer;
        const OpResult traced = runOp(spec, 3, &tracer, kWorkDir);
        EXPECT_EQ(traced.digest, expected) << name;
        EXPECT_TRUE(traced.errors.empty()) << name;
        EXPECT_FALSE(tracer.spans().empty());
    }
}

TEST(Transparency, ServeFeedWrapperLeavesStatisticsBitwiseIdentical)
{
    for (const char *name : {"serve-10k-day", "serve-10k-outage"}) {
        const WorkloadSpec spec = small(name);
        const auto [expected, telemetry] = unwrappedServeDigests(spec, 3);
        EXPECT_EQ(runOp(spec, 3, nullptr, kWorkDir).digest, expected)
            << name;
        Tracer tracer;
        const OpResult traced = runOp(spec, 3, &tracer, kWorkDir);
        EXPECT_EQ(traced.digest, expected) << name;
        ASSERT_TRUE(traced.telemetryDigest.has_value());
        EXPECT_EQ(*traced.telemetryDigest, telemetry) << name;
        EXPECT_EQ(traced.intervalSeconds.size(), spec.intervals);
    }
}

class ShortenedRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ShortenedRun, PassesEveryCheckUntracedAndTraced)
{
    for (const bool trace : {false, true}) {
        RunOptions options;
        options.spec = small(GetParam());
        options.seed = 5;
        options.seconds = 0.0;
        options.trace = trace;
        options.workDir = kWorkDir;
        options.minOps = 2;
        options.maxOps = 2;
        const RunReport report = runWorkload(options);
        EXPECT_TRUE(report.correct) << ::testing::PrintToString(
            report.failures);
        EXPECT_EQ(report.attempted, 2u);
        EXPECT_EQ(report.failed, 0u);
        const auto &specs = trace ? perLayerMetrics() : endToEndMetrics();
        ASSERT_EQ(report.metrics.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(report.metrics[i].name, specs[i].name);
            EXPECT_EQ(report.metrics[i].unit, specs[i].unit);
        }
        if (!trace) {
            for (const MetricSpec &m : endToEndMetrics())
                EXPECT_GT(metric(report, m.name), 0.0) << m.name;
            EXPECT_EQ(metric(report, "served_frac"), 1.0);
            continue;
        }
        ASSERT_EQ(report.traces.size(), 1u);
        if (options.spec.kind == Kind::Batch) {
            EXPECT_GT(metric(report, "sched.jobs"), 0.0);
            EXPECT_GT(metric(report, "sched.place_s"), 0.0);
            EXPECT_GT(metric(report, "thermal.step_s"), 0.0);
        } else {
            EXPECT_GT(metric(report, "serve.admitted"), 0.0);
            EXPECT_GT(metric(report, "serve.place_s"), 0.0);
            EXPECT_GT(metric(report, "serve.serial_s"), 0.0);
        }
        if (options.spec.outage) {
            EXPECT_GT(metric(report, "fault.evacuated"), 0.0);
            EXPECT_GT(metric(report, "state.checkpoints"), 0.0);
            EXPECT_GT(metric(report, "state.snapshot_bytes"), 0.0);
        }
        EXPECT_LT(metric(report, "unattributed_frac"), 0.05);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ShortenedRun,
                         ::testing::Values("sim-wa-1k", "sim-rr-1k",
                                           "serve-10k-day",
                                           "serve-10k-outage"));

TEST(Checks, InjectedStatisticMismatchFailsTheOp)
{
    for (const char *name : {"sim-rr-1k", "serve-10k-day"}) {
        const WorkloadSpec spec = small(name);
        const std::uint64_t actual =
            runOp(spec, 5, nullptr, kWorkDir).digest;
        RunOptions options;
        options.spec = spec;
        options.seed = 5;
        options.seconds = 0.0;
        options.workDir = kWorkDir;
        options.minOps = 2;
        options.maxOps = 2;
        options.reference = Reference{actual ^ 1, std::nullopt};
        const RunReport report = runWorkload(options);
        EXPECT_FALSE(report.correct) << name;
        EXPECT_EQ(report.failed, report.attempted) << name;
        ASSERT_FALSE(report.failures.empty());
        EXPECT_NE(report.failures.front().find("reference"),
                  std::string::npos);
        // A failed op counts as wholly failed.
        EXPECT_EQ(metric(report, "served_frac"), 0.0) << name;
    }
}

TEST(Checks, ConservationViolationsAreReported)
{
    vmt::serve::ServeResult r;
    r.arrivals = 10;
    r.admitted = 8;
    r.shed = 1; // one arrival unaccounted for
    r.placed = 8;
    r.completedJobs = 8;
    r.evacuatedJobs = 2;
    r.migratedJobs = 1; // and one evacuee
    std::vector<std::string> errors;
    checkServeIdentities(r, 10, errors);
    EXPECT_EQ(errors.size(), 2u);

    OpResult op;
    op.errors = errors;
    EXPECT_EQ(checkOp(op, std::nullopt, nullptr).size(), 2u);

    OpResult first;
    first.digest = 1;
    OpResult later;
    later.digest = 2;
    EXPECT_EQ(checkOp(later, std::nullopt, &first).size(), 1u);
}

TEST(Reference, RecordedDigestsAreThoseOfTheUnwrappedLibrary)
{
    for (const WorkloadSpec &spec : workloads()) {
        const std::optional<Reference> ref =
            findReference(spec, kDefaultSeed);
        ASSERT_TRUE(ref.has_value()) << spec.name;
        if (spec.kind == Kind::Batch) {
            EXPECT_EQ(unwrappedBatchDigest(spec, kDefaultSeed),
                      ref->digest)
                << spec.name;
            continue;
        }
        const auto [digest, telemetry] =
            unwrappedServeDigests(spec, kDefaultSeed);
        EXPECT_EQ(digest, ref->digest) << spec.name;
        ASSERT_TRUE(ref->telemetry.has_value());
        EXPECT_EQ(telemetry, *ref->telemetry) << spec.name;
    }
    EXPECT_FALSE(findReference(workloads().front(), kDefaultSeed + 1));
    EXPECT_FALSE(findReference(small("sim-wa-1k"), kDefaultSeed));
}

TEST(Manifest, BenchmarkJsonDeclaresExactlyTheReportedMetrics)
{
    std::ifstream in(VMTBENCH_MANIFEST);
    ASSERT_TRUE(in) << VMTBENCH_MANIFEST;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    std::size_t declared = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"unit\":", pos)) != std::string::npos; ++pos)
        ++declared;
    EXPECT_EQ(declared,
              endToEndMetrics().size() + perLayerMetrics().size());
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricSpec &m : *list)
            EXPECT_NE(json.find("{\"name\": \"" + std::string(m.name) +
                                "\", \"unit\": \"" + m.unit + "\""),
                      std::string::npos)
                << m.name;
    // Every declared workload is one the harness runs.
    std::size_t workloads_declared = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\", \"why\":", pos)) != std::string::npos;
         ++pos) {
        const std::size_t open = json.rfind("\"name\": \"", pos) + 9;
        EXPECT_NE(findWorkload(json.substr(open, pos - open)), nullptr)
            << json.substr(open, pos - open);
        ++workloads_declared;
    }
    EXPECT_GE(workloads_declared, 2u);
}

} // namespace
} // namespace vmtbench
