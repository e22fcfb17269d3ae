/**
 * @file
 * One benchmark run: repeat a workload's op for a time budget, check
 * every op, and reduce the ops to the named metrics.
 *
 * An untraced run (trace = false) reports the end-to-end metrics. A
 * traced run alternates untraced and traced ops and reports the
 * per-layer metrics (medians over its traced ops) plus the tracing
 * overhead between the two kinds.
 */

#ifndef VMTBENCH_RUNNER_H
#define VMTBENCH_RUNNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "tracing.h"
#include "workloads.h"

namespace vmtbench {

/** A metric's name and unit, as declared in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics, reported by every traced run. */
const std::vector<MetricSpec> &perLayerMetrics();

struct RunOptions
{
    WorkloadSpec spec;
    std::uint64_t seed = kDefaultSeed;
    /** Measurement budget: no op starts that is expected to end past
     *  it (at least minOps run regardless). */
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for checkpoints. */
    std::string workDir = ".";
    /** Expected statistics; defaults to findReference(spec, seed). */
    std::optional<Reference> reference;
    /** Op-count floor and cap (0 = no cap). */
    std::size_t minOps = 1;
    std::size_t maxOps = 0;
};

struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<MetricValue> metrics;
    /** One line per failed check. */
    std::vector<std::string> failures;
    /** Seconds the serving ops spent generating arrivals inside the
     *  feed wrapper (excluded from every metric), and the serving
     *  run() wall they were excluded from. */
    double excludedFeedSeconds = 0.0;
    double serveRunSeconds = 0.0;
    /** Program wall seconds of every op, in op order. */
    std::vector<double> opWallSeconds;
    /** The first op's headline statistics. */
    std::string summary;
    /** Kept-telemetry digest of the traced serving ops. */
    std::optional<std::uint64_t> telemetryDigest;
    /** Spans of every traced op, in op order. */
    std::vector<std::unique_ptr<Tracer>> traces;
};

RunReport runWorkload(const RunOptions &options);

/** The result object: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const RunReport &report);

} // namespace vmtbench

#endif // VMTBENCH_RUNNER_H
