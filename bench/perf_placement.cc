/**
 * @file
 * Isolated scheduler hot-path throughput: beginInterval + a batch of
 * placeJobs decisions on a steady-state cluster, the production
 * scheduler (`batched` rows: PlacementView + BlockMinGroup) versus
 * its scalar reference in tests/reference/ (`scalar` rows), across
 * policies x fleet sizes x arrival rates. This is the measurement
 * behind the `placement_micro` rows in BENCH_sim.json: end-to-end
 * runs bundle placement with thermal stepping and driver
 * bookkeeping; this bench times the scheduler alone.
 *
 * Every point drives both engines through the identical trajectory:
 * the cluster starts in a warmed steady state with diverse inlet
 * temperatures and melt fractions, each reset-to-steady-state rep
 * times one interval refresh plus one arrival batch, and the jobs
 * placed are removed again (untimed) before the next rep. The
 * engines' decision sequences are asserted identical — a perf number
 * from a diverged run would be meaningless.
 *
 * One extra row, `wa-saturated`, is a serving pod at peak: 256
 * servers at >= 95% busy and 200 arrivals per interval, so VMT-WA's
 * hot group fills within the batch and the remaining hot jobs go
 * through its fallback cascade steps (3)/(4) — or miss after probing
 * the whole pod. It is printed and spliced, never gated.
 *
 * Flags: --check             exit non-zero unless the batched engine
 *                            is >= 2.5x scalar (geomean over the
 *                            cluster1000 rate-32 rows — the interval-
 *                            refresh-dominated regime the batched
 *                            engine targets; at high arrival rates
 *                            both engines converge on the identical
 *                            per-job decision loop, which would dilute
 *                            the gate without measuring the rebuild)
 *        --threads and the shared bench flags (bench/common.h)
 * Environment: VMT_PERF_JSON  BENCH_sim.json path to splice
 *              `placement_micro` rows into (default ./BENCH_sim.json;
 *              inserted before the `kernel_micro`/`build` tail).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "reference/scalar_schedulers.h"
#include "sched/coolest_first.h"
#include "server/cluster.h"
#include "util/flags.h"
#include "util/json_splice.h"

using namespace vmt;

namespace {

constexpr Celsius kHotThreshold = 45.0;

using MakeScheduler = std::function<std::unique_ptr<Scheduler>()>;

struct Policy
{
    const char *name;
    /** Production scheduler (the `batched` rows). */
    MakeScheduler make;
    /** Scalar reference (the `scalar` rows). */
    MakeScheduler makeReference;
};

/** Factory for a default-constructible or VMT-configured scheduler. */
template <typename Sched>
std::unique_ptr<Scheduler>
makePolicy()
{
    if constexpr (std::is_default_constructible_v<Sched>)
        return std::make_unique<Sched>();
    else
        return std::make_unique<Sched>(bench::studyVmt(22.0),
                                       hotMaskFromPaper());
}

std::vector<Policy>
policies()
{
    using namespace reference;
    return {
        {"cf", makePolicy<CoolestFirstScheduler>,
         makePolicy<ScalarCoolestFirst>},
        {"ta", makePolicy<VmtTaScheduler>, makePolicy<ScalarVmtTa>},
        {"wa", makePolicy<VmtWaScheduler>, makePolicy<ScalarVmtWa>},
        {"preserve", makePolicy<VmtPreserveScheduler>,
         makePolicy<ScalarVmtPreserve>},
    };
}

struct Row
{
    std::string policy;
    std::size_t servers;
    std::size_t rate;
    std::string engine;
    double usPerInterval;
    double jobsPerSec;
    /** intervals/s relative to the scalar row of the same point. */
    double speedup;
};

/**
 * A steady-state cluster with placement-relevant diversity: a sawtooth
 * load profile (some servers full, some idle), an inlet gradient, and
 * enough warm-up that part of the fleet is melted and part frozen —
 * so WA/Preserve exercise every partition branch. Deterministic, and
 * independent of the scheduler (none is involved). `saturated`
 * replaces the sawtooth with every other server full and the rest one
 * core short (98% busy).
 */
std::unique_ptr<Cluster>
makeSteadyCluster(std::size_t servers, bool saturated = false)
{
    const SimConfig config = bench::studyConfig(servers);
    auto cluster = std::make_unique<Cluster>(
        servers, config.spec, config.thermal,
        PowerModel(config.spec, config.powerScale));

    const std::size_t cores = config.spec.cores();
    for (std::size_t id = 0; id < servers; ++id) {
        const std::size_t load =
            saturated ? cores - id % 2 : (id * 7 + 3) % (cores + 1);
        for (std::size_t c = 0; c < load; ++c)
            cluster->addJob(id, kAllWorkloads[c % kNumWorkloads]);
        cluster->setBaseInlet(
            id, 20.0 + 14.0 * static_cast<double>(id % 11) / 10.0);
    }
    // Warm until the load sawtooth translates into a melt sawtooth:
    // heavily loaded hot-inlet servers melt, idle ones stay frozen.
    for (int i = 0; i < 240; ++i)
        cluster->stepThermal(60.0, kHotThreshold);
    return cluster;
}

/** The deterministic arrival batch for one point (mixed hot/cold). */
std::vector<Job>
makeArrivals(std::size_t rate)
{
    std::vector<Job> jobs;
    jobs.reserve(rate);
    for (std::size_t k = 0; k < rate; ++k)
        jobs.push_back(
            Job{k, kAllWorkloads[(k * 5 + 1) % kNumWorkloads], 0.0});
    return jobs;
}

/**
 * Time `reps` intervals of (beginInterval + placeJobs) on a scheduler
 * from `make`, un-placing the batch between reps so every rep — and
 * both engines — sees the identical steady state. Appends each rep's
 * placement decisions to `decisions` for cross-engine comparison.
 */
double
timeIntervals(const MakeScheduler &make, Cluster &cluster,
              const std::vector<Job> &jobs, std::size_t reps,
              std::vector<std::size_t> &decisions)
{
    std::unique_ptr<Scheduler> sched = make();

    std::vector<std::size_t> out;
    std::chrono::steady_clock::duration elapsed{};
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        sched->beginInterval(cluster, 0.0);
        sched->placeJobs(cluster, jobs, out);
        elapsed += std::chrono::steady_clock::now() - start;
        // Untimed restore: the next rep starts from the same state.
        for (std::size_t k = 0; k < out.size(); ++k) {
            if (out[k] != kNoServer)
                cluster.removeJob(out[k], jobs[k].type);
        }
        decisions.insert(decisions.end(), out.begin(), out.end());
    }
    return std::chrono::duration<double>(elapsed).count();
}

/**
 * Time one point, scalar reference first, then the production
 * scheduler, appending a row for each; `label` names the rows. False
 * (after a message) when the engines' decisions diverge.
 */
bool
timePoint(const Policy &policy, const char *label, Cluster &cluster,
          std::size_t rate, std::vector<Row> &rows)
{
    const std::size_t servers = cluster.numServers();
    const std::vector<Job> jobs = makeArrivals(rate);
    // Fixed rep count per point so both engines time the same number
    // of identical intervals.
    const std::size_t reps =
        std::max<std::size_t>(20, 400000 / (servers + 4 * rate));
    double scalar_rate = 0.0;
    std::vector<std::size_t> scalar_decisions;
    for (const bool batched : {false, true}) {
        const char *engine = batched ? "batched" : "scalar";
        const MakeScheduler &make =
            batched ? policy.make : policy.makeReference;
        std::vector<std::size_t> decisions;
        // Best of three: the minimum is the least noise-contaminated
        // estimate of the true cost.
        double seconds =
            timeIntervals(make, cluster, jobs, reps, decisions);
        for (int rep = 0; rep < 2; ++rep) {
            decisions.clear();
            seconds = std::min(seconds, timeIntervals(make, cluster, jobs,
                                                      reps, decisions));
        }
        if (!batched) {
            scalar_decisions = std::move(decisions);
        } else if (decisions != scalar_decisions) {
            std::fprintf(stderr,
                         "[placement_micro] ENGINES DIVERGED: "
                         "%s servers=%zu rate=%zu\n",
                         label, servers, rate);
            return false;
        }
        const double interval_rate = static_cast<double>(reps) / seconds;
        if (!batched)
            scalar_rate = interval_rate;
        const double speedup =
            scalar_rate > 0.0 ? interval_rate / scalar_rate : 1.0;
        rows.push_back({label, servers, rate, engine,
                        1e6 * seconds / static_cast<double>(reps),
                        static_cast<double>(rate) * interval_rate,
                        speedup});
        std::printf("[placement_micro] %-12s servers=%-5zu rate=%-4zu "
                    "engine=%-7s %9.2f us/interval  speedup %.2fx\n",
                    label, servers, rate, engine,
                    rows.back().usPerInterval, speedup);
        std::fflush(stdout);
    }
    return true;
}

/**
 * Splice the `placement_micro` key into BENCH_sim.json, replacing
 * this bench's previous rows in place and leaving every other tool's
 * keys (perf_kernel's `kernel_micro`/`build`, perf_simulator's run
 * sections, perf_serve's `serve`) untouched. Missing file =>
 * standalone object.
 */
void
spliceJson(const std::string &path, const std::vector<Row> &rows)
{
    std::string doc;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        doc = buffer.str();
    }

    std::ostringstream micro;
    micro << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        micro << "    {\"policy\": \"" << r.policy
              << "\", \"servers\": " << r.servers
              << ", \"rate\": " << r.rate
              << ", \"engine\": \"" << r.engine
              << "\", \"us_per_interval\": " << r.usPerInterval
              << ", \"jobs_per_sec\": " << r.jobsPerSec
              << ", \"speedup\": " << r.speedup << "}"
              << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    micro << "  ]";
    doc = spliceTopLevelJson(doc, "placement_micro", micro.str());

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[placement_micro] cannot write %s\n",
                     path.c_str());
        return;
    }
    out << doc;
    std::printf("[placement_micro] spliced %zu rows into %s\n",
                rows.size(), path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    vmt::bench::configureThreadsFromArgs(argc, argv);
    const Flags flags(argc, argv);
    const bool check = flags.getBool("check", false);

    std::string json_path = "BENCH_sim.json";
    if (const char *env = std::getenv("VMT_PERF_JSON"))
        json_path = env;

    const std::vector<std::size_t> fleet_sizes =
        check ? std::vector<std::size_t>{1000}
              : std::vector<std::size_t>{250, 1000, 10000};
    const std::vector<std::size_t> rates =
        check ? std::vector<std::size_t>{32, 256}
              : std::vector<std::size_t>{32, 256, 2048};

    std::vector<Row> rows;
    for (const Policy &policy : policies()) {
        for (const std::size_t servers : fleet_sizes) {
            auto cluster = makeSteadyCluster(servers);
            for (const std::size_t rate : rates)
                if (!timePoint(policy, policy.name, *cluster, rate,
                               rows))
                    return 1;
        }
    }
    if (!check) {
        const Policy wa{"wa", makePolicy<VmtWaScheduler>,
                        makePolicy<reference::ScalarVmtWa>};
        auto cluster = makeSteadyCluster(256, true);
        if (!timePoint(wa, "wa-saturated", *cluster, 200, rows))
            return 1;
    }
    double gate_log_sum = 0.0;
    std::size_t gate_points = 0;
    for (const Row &row : rows) {
        if (row.servers == 1000 && row.rate == 32 &&
            row.engine == "batched") {
            gate_log_sum += std::log(row.speedup);
            ++gate_points;
        }
    }

    if (!check)
        spliceJson(json_path, rows);
    if (check) {
        const double geomean =
            gate_points > 0
                ? std::exp(gate_log_sum /
                           static_cast<double>(gate_points))
                : 0.0;
        const bool gate_ok = geomean >= 2.5;
        std::printf(
            "[placement_micro] perf gate: %s (geomean %.2fx over "
            "%zu cluster1000 rate-32 rows, need >= 2.50x)\n",
            gate_ok ? "PASS" : "FAIL", geomean, gate_points);
        return gate_ok ? 0 : 1;
    }
    return 0;
}
