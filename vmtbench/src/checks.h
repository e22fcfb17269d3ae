/**
 * @file
 * Output checks applied to every op: statistic digests compared with
 * the references recorded for the default seed, conservation
 * identities that hold for any seed, and run-internal determinism
 * (every op of a run, traced or not, produces the same statistics).
 */

#ifndef VMTBENCH_CHECKS_H
#define VMTBENCH_CHECKS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/sharded_driver.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace vmtbench {

/** The seed the reference statistics were recorded at. */
inline constexpr std::uint64_t kDefaultSeed = 7;

/** FNV-1a over every series value and aggregate of a batch run. */
std::uint64_t digestBatch(const vmt::SimResult &result);

/** FNV-1a over every counter, peak and max melt of a serving run
 *  (not the wall-clock fields, telemetry or checkpoint path). */
std::uint64_t digestServe(const vmt::serve::ServeResult &result);

/** FNV-1a over a byte string (the kept telemetry JSONL). */
std::uint64_t digestText(const std::string &text);

/**
 * Batch identities: the decorator saw exactly the jobs the result
 * accounts for (placed + dropped = generated).
 */
void checkBatchIdentities(const vmt::SimResult &result,
                          const TimedScheduler &scheduler,
                          std::vector<std::string> &errors);

/**
 * Serving identities: arrivals = admitted + shed + expired + final
 * queue; placed = completed + in-flight + lost; evacuated = migrated
 * + lost; and the driver counted every arrival the feed delivered.
 */
void checkServeIdentities(const vmt::serve::ServeResult &result,
                          std::uint64_t delivered,
                          std::vector<std::string> &errors);

/** Statistics recorded for one workload at kDefaultSeed. */
struct Reference
{
    std::uint64_t digest = 0;
    /** Kept-telemetry digest of a traced serving op. */
    std::optional<std::uint64_t> telemetry;
};

/** The recorded reference, or nullopt (other seeds, shortened
 *  workloads). */
std::optional<Reference> findReference(const WorkloadSpec &spec,
                                       std::uint64_t seed);

/**
 * Every check an op must pass; returns the failures (empty = pass).
 * @param reference Expected statistics, when recorded.
 * @param first The run's first op, against which every later op's
 *        statistics must match bitwise; null for the first op.
 */
std::vector<std::string> checkOp(const OpResult &op,
                                 const std::optional<Reference> &reference,
                                 const OpResult *first);

} // namespace vmtbench

#endif // VMTBENCH_CHECKS_H
