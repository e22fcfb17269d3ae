/**
 * @file
 * Isolated thermal-kernel throughput: Cluster::stepThermal (the SoA
 * kernel) against the per-object oracle in tests/reference/ (the
 * `scalar` rows) on a cluster with no placement churn, across fleet
 * sizes x starting PCM regimes x dt. This is the measurement behind
 * the `kernel_micro` rows in BENCH_sim.json: end-to-end runs bundle
 * the thermal step with placement and trace bookkeeping; this bench
 * times the step itself.
 *
 * Scenarios pin the starting regime mix:
 *   solid    idle fleet, wax frozen (one long solid run)
 *   melting  loaded fleet warmed onto the latent plateau
 *   liquid   loaded fleet warmed until fully melted
 *   mixed    half loaded/melted, half idle/frozen (regime-run
 *            boundary mid-fleet, exercises the partitioner)
 * State evolves during timing (melting converges toward liquid); the
 * oracle shadows the warmed cluster, so both kernels time the
 * identical trajectory and the ratio is fair.
 *
 * A second table times the thermal fan-out crossover: the same
 * Cluster::stepThermal serial (threshold above the fleet) and fanned
 * out over the pool (threshold 0), alternating per repeat, over
 * 256...16,384 servers. It reports the median and spread of each and
 * the smallest fleet from which the fan-out wins — the measurement
 * behind kThermalParallelThreshold (thermal/thermal_kernel.h) — with
 * a host block (CPUs, pool threads, compiler, build flags).
 *
 * Flags: --check             exit non-zero if SoA is slower than
 *                            scalar on the cluster1000 rows (skips
 *                            the crossover table)
 *        --threads and the shared bench flags (bench/common.h); the
 *                            fan-out column uses the --threads pool
 * Environment: VMT_PERF_JSON  BENCH_sim.json path to splice
 *              `kernel_micro` + `build` keys into (default
 *              ./BENCH_sim.json; see spliceJson below).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "reference/scalar_thermal.h"
#include "server/cluster.h"
#include "thermal/thermal_kernel.h"
#include "util/flags.h"
#include "util/json_splice.h"
#include "util/stats.h"

using namespace vmt;

namespace {

constexpr Celsius kHotThreshold = 45.0;

/** Alternating serial/fan-out timings per crossover fleet size. */
constexpr int kCrossoverRepeats = 7;

struct Scenario
{
    const char *name;
    /** Fraction of servers loaded to full capacity (rest idle). */
    double loadedShare;
    /** Warm until the hottest server's melt fraction reaches this
     *  (0 = no warm-up beyond settling the air node). */
    double meltTarget;
};

constexpr Scenario kScenarios[] = {
    {"solid", 0.0, 0.0},
    {"melting", 1.0, 0.3},
    {"liquid", 1.0, 1.0},
    {"mixed", 0.5, 1.0},
};

struct Row
{
    std::string scenario;
    std::size_t servers;
    double dt;
    std::string kernel;
    double usPerStep;
    double stepsPerSec;
    /** steps/s relative to the scalar row of the same point. */
    double speedup;
};

/** Build a cluster and drive it into the scenario's starting regime.
 *  Deterministic, so every kernel row starts from the same state. */
std::unique_ptr<Cluster>
makeScenario(const Scenario &scenario, std::size_t servers,
             Seconds dt)
{
    const SimConfig config = vmt::bench::studyConfig(servers);
    auto cluster = std::make_unique<Cluster>(
        servers, config.spec, config.thermal,
        PowerModel(config.spec, config.powerScale));

    const auto loaded = static_cast<std::size_t>(
        scenario.loadedShare * static_cast<double>(servers));
    for (std::size_t id = 0; id < loaded; ++id)
        for (std::size_t c = 0; c < config.spec.cores(); ++c)
            cluster->addJob(id, WorkloadType::WebSearch);

    // Settle the air node, then (for warmed scenarios) melt the
    // loaded servers to the target fraction. Warm-up runs at the
    // measurement dt so per-dt caches are hot when timing starts.
    for (int i = 0; i < 30; ++i)
        cluster->stepThermal(dt, kHotThreshold);
    if (scenario.meltTarget > 0.0) {
        for (int i = 0; i < 20000; ++i) {
            if (std::as_const(*cluster).server(0).waxMeltFraction() >=
                scenario.meltTarget)
                break;
            cluster->stepThermal(dt, kHotThreshold);
        }
    }
    return cluster;
}

/** Wall seconds for `reps` calls of `step` (a thermal step of either
 *  kernel returning its ClusterSample). */
template <typename Step>
double
timeSteps(const Step &step, std::size_t reps)
{
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i)
        sink += step().totalPower;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // Keep the accumulated samples observable so the loop cannot be
    // elided.
    static volatile double guard = 0.0;
    guard = guard + sink;
    return elapsed.count();
}

/** Best of three timings: the minimum is the least
 *  noise-contaminated estimate of the true cost. */
template <typename Step>
double
bestOfThree(const Step &step, std::size_t reps)
{
    double seconds = timeSteps(step, reps);
    for (int rep = 0; rep < 2; ++rep)
        seconds = std::min(seconds, timeSteps(step, reps));
    return seconds;
}

/**
 * The fan-out crossover table: per fleet size, kCrossoverRepeats
 * alternating timings of the serial and the fanned-out
 * Cluster::stepThermal on the same warmed `mixed` cluster (both
 * paths compute bitwise the same state, so the alternation times one
 * trajectory). Prints the
 * host block, one row per size and the measured crossover: the
 * smallest size from which every larger size also fans out faster.
 */
void
crossoverTable()
{
    const std::size_t pool_threads = globalPool().size();
    std::printf("[thermal_crossover] host: cpus=%u pool_threads=%zu "
                "compiler=\"%s\" flags=\"%s\"\n",
                std::thread::hardware_concurrency(), pool_threads,
                __VERSION__,
#ifdef VMT_BUILD_FLAGS
                VMT_BUILD_FLAGS
#else
                "unknown"
#endif
    );
    std::printf("[thermal_crossover] %d alternating repeats per size; "
                "us/step median [min, max]; default threshold %zu\n",
                kCrossoverRepeats, kThermalParallelThreshold);
    if (pool_threads < 2) {
        std::printf("[thermal_crossover] skipped: the pool has one "
                    "thread (pass --threads N > 1)\n");
        return;
    }

    const std::size_t saved = thermalParallelThreshold();
    const Scenario &scenario = kScenarios[3]; // mixed
    const Seconds dt = 60.0;
    std::size_t crossover = 0;
    for (std::size_t servers = 256; servers <= 16384; servers *= 2) {
        auto cluster = makeScenario(scenario, servers, dt);
        // ~50 ms per timing at the serial kernel's ~30 ns/server.
        const std::size_t reps =
            std::max<std::size_t>(100, 1'600'000 / servers);
        const auto step = [&] {
            return cluster->stepThermal(dt, kHotThreshold);
        };
        std::vector<double> serial_us;
        std::vector<double> fanout_us;
        for (int r = 0; r < kCrossoverRepeats; ++r) {
            for (const bool fan_out : {false, true}) {
                setThermalParallelThreshold(
                    fan_out ? 0
                            : std::numeric_limits<std::size_t>::max());
                const double us = 1e6 * timeSteps(step, reps) /
                                  static_cast<double>(reps);
                (fan_out ? fanout_us : serial_us).push_back(us);
            }
        }
        const double serial = percentile(serial_us, 50.0);
        const double fanout = percentile(fanout_us, 50.0);
        const bool fan_out_wins = fanout < serial;
        if (!fan_out_wins)
            crossover = 0;
        else if (crossover == 0)
            crossover = servers;
        std::printf("[thermal_crossover] servers=%-6zu serial %9.2f "
                    "[%9.2f, %9.2f]  fan-out %9.2f [%9.2f, %9.2f]  "
                    "fan-out/serial %.2f\n",
                    servers, serial, minValue(serial_us),
                    maxValue(serial_us), fanout, minValue(fanout_us),
                    maxValue(fanout_us), fanout / serial);
        std::fflush(stdout);
    }
    setThermalParallelThreshold(saved);
    if (crossover == 0)
        std::printf("[thermal_crossover] crossover: none up to 16384 "
                    "servers (serial wins throughout)\n");
    else
        std::printf("[thermal_crossover] crossover: fan-out wins from "
                    "%zu servers\n",
                    crossover);
}

/**
 * Splice the `kernel_micro` + `build` keys into BENCH_sim.json,
 * replacing this bench's previous rows in place and leaving every
 * other tool's keys untouched (spliceTopLevelJson). Missing file =>
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
        micro << "    {\"scenario\": \"" << r.scenario
              << "\", \"servers\": " << r.servers
              << ", \"dt\": " << r.dt
              << ", \"kernel\": \"" << r.kernel
              << "\", \"us_per_step\": " << r.usPerStep
              << ", \"steps_per_sec\": " << r.stepsPerSec
              << ", \"speedup\": " << r.speedup << "}"
              << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    micro << "  ]";
    doc = spliceTopLevelJson(doc, "kernel_micro", micro.str());

    std::ostringstream build;
    build << "{\"compiler\": \"" << __VERSION__ << "\", \"flags\": \""
#ifdef VMT_BUILD_FLAGS
          << VMT_BUILD_FLAGS
#else
          << "unknown"
#endif
          << "\"}";
    doc = spliceTopLevelJson(doc, "build", build.str());

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[kernel_micro] cannot write %s\n",
                     path.c_str());
        return;
    }
    out << doc;
    std::printf("[kernel_micro] spliced %zu rows into %s\n",
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
              : std::vector<std::size_t>{250, 1000};
    const std::vector<double> dts =
        check ? std::vector<double>{60.0}
              : std::vector<double>{60.0, 300.0};

    std::vector<Row> rows;
    bool gate_ok = true;
    for (const Scenario &scenario : kScenarios) {
        for (const std::size_t servers : fleet_sizes) {
            for (const double dt : dts) {
                // Fixed rep count per point so both kernels time the
                // same number of identical steps.
                const std::size_t reps = std::max<std::size_t>(
                    200, 2000000 / servers);
                double scalar_rate = 0.0;
                for (const bool soa : {false, true}) {
                    const char *kernel = soa ? "soa" : "scalar";
                    auto cluster = makeScenario(scenario, servers, dt);
                    reference::ScalarThermal oracle(*cluster);
                    const double seconds =
                        soa ? bestOfThree(
                                  [&] {
                                      return cluster->stepThermal(
                                          dt, kHotThreshold);
                                  },
                                  reps)
                            : bestOfThree(
                                  [&] {
                                      return oracle.step(
                                          dt, kHotThreshold);
                                  },
                                  reps);
                    const double rate =
                        static_cast<double>(reps) / seconds;
                    if (!soa)
                        scalar_rate = rate;
                    const double speedup =
                        scalar_rate > 0.0 ? rate / scalar_rate : 1.0;
                    rows.push_back({scenario.name, servers, dt, kernel,
                                    1e6 * seconds /
                                        static_cast<double>(reps),
                                    rate, speedup});
                    std::printf(
                        "[kernel_micro] %-8s servers=%-5zu dt=%-4.0f "
                        "kernel=%-6s %8.2f us/step %10.0f steps/s  "
                        "speedup %.2fx\n",
                        scenario.name, servers, dt, kernel,
                        rows.back().usPerStep, rate, speedup);
                    std::fflush(stdout);
                    if (check && servers == 1000 && soa &&
                        rate < scalar_rate)
                        gate_ok = false;
                }
            }
        }
    }

    if (!check) {
        spliceJson(json_path, rows);
        crossoverTable();
    }
    if (check) {
        std::printf("[kernel_micro] perf gate: %s\n",
                    gate_ok ? "PASS (SoA >= scalar on cluster1000)"
                            : "FAIL (SoA slower than scalar)");
        return gate_ok ? 0 : 1;
    }
    return 0;
}
