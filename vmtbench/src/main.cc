/**
 * @file
 * vmtbench: the end-to-end benchmark command (see README.md).
 *
 *   vmtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--work-dir <dir>] [--git-sha <sha>]
 *
 * Prints the host block and every metric with its unit, then, as the
 * last line, the result object. Traced runs also write their spans to
 * <work-dir>/trace-<workload>-seed<n>.jsonl on exit.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "runner.h"
#include "util/thread_pool.h"

namespace {

using namespace vmtbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "vmtbench: " << why
              << "\nusage: vmtbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--git-sha <sha>]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception &) {
        usage(flag + " expects a whole number, got '" + text + "'");
    }
    if (used != text.size() || text.front() == '-')
        usage(flag + " expects a whole number, got '" + text + "'");
    return value;
}

std::string
hostJson(const RunOptions &options, const std::string &git_sha)
{
    std::string json = "{\"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"compiler\": \"" VMTBENCH_COMPILER "\"" +
                       ", \"build_type\": \"" VMTBENCH_BUILD_TYPE "\"" +
                       ", \"flags\": \"" VMTBENCH_CXX_FLAGS "\"" +
                       ", \"git_sha\": \"" + git_sha + "\"" +
                       ", \"threads\": " +
                       std::to_string(vmt::globalPool().size()) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"workload\": \"" + options.spec.name + "\"" +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       "}";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, work_dir = ".", git_sha = "unknown";
    std::optional<std::uint64_t> seed, seconds, trace;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = parseCount(flag, value);
        else if (flag == "--seconds")
            seconds = parseCount(flag, value);
        else if (flag == "--trace")
            trace = parseCount(flag, value);
        else if (flag == "--work-dir")
            work_dir = value;
        else if (flag == "--git-sha")
            git_sha = value;
        else
            usage("unknown flag " + flag);
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec)
        usage("unknown workload '" + workload + "'");
    if (!seed || !seconds || !trace || *trace > 1 || *seconds == 0)
        usage("--seed, --seconds (> 0) and --trace (0|1) are required");

    try {
        // One process, a pool of min(4, nproc) threads.
        const unsigned cpus =
            std::max(1u, std::thread::hardware_concurrency());
        vmt::setGlobalThreadCount(std::min(4u, cpus));

        RunOptions options;
        options.spec = *spec;
        options.seed = *seed;
        options.seconds = static_cast<double>(*seconds);
        options.trace = *trace == 1;
        options.workDir = work_dir;
        options.minOps = options.trace ? 2 : 1;
        std::filesystem::create_directories(work_dir);

        const RunReport report = runWorkload(options);

        std::cout << "vmtbench " << options.spec.name << " seed "
                  << options.seed << (options.trace ? " traced" : "")
                  << ": " << report.attempted << " ops, "
                  << report.failed << " failed\n";
        std::cout << "statistics " << report.summary << "\n";
        std::cout << "op wall s";
        for (const double s : report.opWallSeconds)
            std::printf(" %.4f", s);
        std::cout << "\n";
        std::cout << "host " << hostJson(options, git_sha) << "\n";
        if (options.spec.kind == Kind::Serve)
            std::printf("excluded arrival generation %.6f s of %.6f s "
                        "serving run wall (%.1f%%)\n",
                        report.excludedFeedSeconds,
                        report.serveRunSeconds,
                        100.0 * report.excludedFeedSeconds /
                            report.serveRunSeconds);
        if (report.telemetryDigest)
            std::printf("telemetry digest 0x%016llx\n",
                        static_cast<unsigned long long>(
                            *report.telemetryDigest));
        for (const MetricValue &m : report.metrics)
            std::printf("metric %-28s %.9g %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
        for (const std::string &f : report.failures)
            std::cerr << "check failed: " << f << "\n";

        if (!report.traces.empty()) {
            const std::string path = work_dir + "/trace-" +
                                     options.spec.name + "-seed" +
                                     std::to_string(options.seed) +
                                     ".jsonl";
            std::ofstream out(path);
            out << "{\"host\": " << hostJson(options, git_sha) << "}\n";
            for (std::size_t i = 0; i < report.traces.size(); ++i)
                report.traces[i]->writeJsonl(
                    out, "traced-" + std::to_string(i));
            if (!out)
                throw std::runtime_error("cannot write " + path);
            std::cout << "spans written to " << path << "\n";
        }
        std::cout << resultJson(report) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "vmtbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
