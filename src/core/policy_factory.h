/**
 * @file
 * Name-to-scheduler factory shared by the CLI front-ends (vmtsim,
 * vmtserve) and the serving driver's per-shard policy construction.
 */

#ifndef VMT_CORE_POLICY_FACTORY_H
#define VMT_CORE_POLICY_FACTORY_H

#include <memory>
#include <string>

#include "sched/scheduler.h"

namespace vmt {

class Flags;

/**
 * Construct a fresh scheduler by policy name.
 * @param policy rr | cf | ta | wa | preserve | adaptive.
 * @param gv Grouping value for the VMT policies.
 * @param threshold Wax threshold for the VMT policies.
 * @throws FatalError on an unknown policy name.
 */
std::unique_ptr<Scheduler> makeScheduler(const std::string &policy,
                                         double gv, double threshold);

/**
 * The front-ends' --threshold flag (default 0.98): the wax melt
 * fraction VMT treats as full, in (0, 1]. Read before any work.
 * @throws FatalError naming the flag when it is outside that range.
 */
double waxThresholdFromFlags(const Flags &flags);

} // namespace vmt

#endif // VMT_CORE_POLICY_FACTORY_H
