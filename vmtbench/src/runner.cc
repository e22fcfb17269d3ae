#include "runner.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>
#include <sys/resource.h>

namespace vmtbench {

namespace {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linearly interpolated percentile (q in [0, 1]). */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
number(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
    return out.str();
}

} // namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"intervals_per_s", "1/s"},  {"arrivals_per_s", "1/s"},
        {"interval_p50_ms", "ms"},   {"interval_p99_ms", "ms"},
        {"setup_s", "s"},            {"peak_rss_mb", "MB"},
        {"served_frac", "frac"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"sched.begin_s", "s"},
        {"sched.place_s", "s"},
        {"sched.jobs", "count"},
        {"sched.ns_per_job", "ns"},
        {"sched.unplaced", "count"},
        {"serve.place_s", "s"},
        {"thermal.step_s", "s"},
        {"thermal.ns_per_server_step", "ns"},
        {"serve.thermal_s", "s"},
        {"sim.drain_s", "s"},
        {"sim.pre_place_s", "s"},
        {"sim.post_place_s", "s"},
        {"workload.arrivals_s", "s"},
        {"serve.departures_s", "s"},
        {"serve.serial_s", "s"},
        {"serve.feed_s", "s"},
        {"serve.admitted", "count"},
        {"serve.requeued", "count"},
        {"serve.peak_queue_depth", "count"},
        {"pool.busy_s", "s"},
        {"pool.busy_frac", "frac"},
        {"fault.evacuated", "count"},
        {"fault.migrated", "count"},
        {"fault.lost", "count"},
        {"fault.migrated_frac", "frac"},
        {"serve.brownout_intervals", "count"},
        {"serve.expired", "count"},
        {"state.checkpoints", "count"},
        {"state.checkpoint_s", "s"},
        {"state.ms_per_checkpoint", "ms"},
        {"state.snapshot_bytes", "bytes"},
        {"state.checkpoint_failures", "count"},
        {"sched.wall_frac", "frac"},
        {"trace.wall_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"unattributed_frac", "frac"},
    };
    return specs;
}

RunReport
runWorkload(const RunOptions &options)
{
    const std::optional<Reference> reference =
        options.reference ? options.reference
                          : findReference(options.spec, options.seed);

    RunReport report;
    std::vector<OpResult> ops;
    std::vector<bool> passed;
    std::vector<double> op_seconds;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0;; ++i) {
        // Traced runs alternate untraced (even) and traced (odd) ops.
        const bool traced = options.trace && i % 2 == 1;
        std::unique_ptr<Tracer> tracer;
        if (traced)
            tracer = std::make_unique<Tracer>();
        const std::int64_t op_start = nowNs();
        OpResult op =
            runOp(options.spec, options.seed, tracer.get(),
                  options.workDir);
        op_seconds.push_back(secondsBetween(op_start, nowNs()));

        const std::vector<std::string> failures =
            checkOp(op, reference, ops.empty() ? nullptr : &ops.front());
        ++report.attempted;
        if (!failures.empty()) {
            ++report.failed;
            for (const std::string &f : failures)
                report.failures.push_back("op " + std::to_string(i) +
                                          ": " + f);
        }
        if (ops.empty())
            report.summary = op.summary;
        report.opWallSeconds.push_back(op.wallSeconds);
        if (op.telemetryDigest && !report.telemetryDigest)
            report.telemetryDigest = op.telemetryDigest;
        if (options.spec.kind == Kind::Serve) {
            report.excludedFeedSeconds += op.feedSeconds;
            report.serveRunSeconds += op.wallSeconds + op.feedSeconds;
        }
        if (tracer)
            report.traces.push_back(std::move(tracer));
        passed.push_back(failures.empty());
        ops.push_back(std::move(op));

        const std::size_t done = i + 1;
        if (options.maxOps > 0 && done >= options.maxOps)
            break;
        const double elapsed = secondsBetween(start, nowNs());
        if (done >= options.minOps &&
            elapsed + median(op_seconds) > options.seconds)
            break;
    }
    report.correct = report.failed == 0;

    std::map<std::string, double> values;
    if (options.trace) {
        // Per-layer figures: medians over the traced ops.
        std::map<std::string, std::vector<double>> samples;
        for (const OpResult &op : ops) {
            samples[op.layers.empty() ? "untraced_wall" : "traced_wall"]
                .push_back(op.wallSeconds);
            for (const auto &[name, value] : op.layers)
                samples[name].push_back(value);
        }
        for (const auto &[name, v] : samples)
            values[name] = median(v);
        values["trace.overhead_frac"] =
            values["traced_wall"] / values["untraced_wall"] - 1.0;
    } else {
        // Every op of a run simulates the same intervals, and host
        // interference only adds time, so each interval's sample is
        // its fastest time over the run's ops; throughput and the
        // latency percentiles are taken over those samples.
        std::vector<double> fastest = ops.front().intervalSeconds;
        std::vector<double> setups;
        double jobs = 0.0, unserved = 0.0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const OpResult &op = ops[i];
            for (std::size_t k = 0;
                 k < fastest.size() && k < op.intervalSeconds.size(); ++k)
                fastest[k] = std::min(fastest[k], op.intervalSeconds[k]);
            setups.insert(setups.end(), op.setupSeconds.begin(),
                          op.setupSeconds.end());
            jobs += static_cast<double>(op.jobs);
            // An op whose checks fail counts as wholly failed.
            unserved +=
                static_cast<double>(passed[i] ? op.failedJobs : op.jobs);
        }
        double fastest_total = 0.0;
        for (const double t : fastest)
            fastest_total += t;
        const OpResult &op = ops.front();
        values["intervals_per_s"] =
            static_cast<double>(fastest.size()) / fastest_total;
        values["arrivals_per_s"] = values["intervals_per_s"] *
                                   static_cast<double>(op.jobs) /
                                   static_cast<double>(op.intervals);
        values["interval_p50_ms"] = percentile(fastest, 0.50) * 1e3;
        values["interval_p99_ms"] = percentile(fastest, 0.99) * 1e3;
        values["setup_s"] = median(setups);
        values["peak_rss_mb"] = peakRssMb();
        values["served_frac"] = jobs > 0.0 ? 1.0 - unserved / jobs : 0.0;
    }
    // Metrics of layers the workload does not run read 0.
    for (const MetricSpec &m :
         options.trace ? perLayerMetrics() : endToEndMetrics())
        report.metrics.push_back({m.name, values[m.name], m.unit});
    return report;
}

std::string
resultJson(const RunReport &report)
{
    std::ostringstream out;
    out << "{\"correct\": " << (report.correct ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const MetricValue &m = report.metrics[i];
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace vmtbench
