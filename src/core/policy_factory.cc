#include "core/policy_factory.h"

#include "core/adaptive_vmt.h"
#include "core/vmt_preserve.h"
#include "core/vmt_ta.h"
#include "core/vmt_wa.h"
#include "sched/coolest_first.h"
#include "sched/round_robin.h"
#include "util/flags.h"
#include "util/logging.h"

namespace vmt {

std::unique_ptr<Scheduler>
makeScheduler(const std::string &policy, double gv, double threshold)
{
    VmtConfig vmt;
    vmt.groupingValue = gv;
    vmt.waxThreshold = threshold;
    if (policy == "rr")
        return std::make_unique<RoundRobinScheduler>();
    if (policy == "cf")
        return std::make_unique<CoolestFirstScheduler>();
    if (policy == "ta")
        return std::make_unique<VmtTaScheduler>(vmt,
                                                hotMaskFromPaper());
    if (policy == "wa")
        return std::make_unique<VmtWaScheduler>(vmt,
                                                hotMaskFromPaper());
    if (policy == "preserve")
        return std::make_unique<VmtPreserveScheduler>(
            vmt, hotMaskFromPaper());
    if (policy == "adaptive")
        return std::make_unique<AdaptiveVmtScheduler>(
            vmt, hotMaskFromPaper());
    fatal("unknown policy '" + policy +
          "' (rr|cf|ta|wa|preserve|adaptive)");
}

double
waxThresholdFromFlags(const Flags &flags)
{
    const double threshold = flags.getDouble("threshold", 0.98);
    if (!(threshold > 0.0 && threshold <= 1.0))
        fatal("--threshold must be in (0, 1], got " +
              flags.getString("threshold", ""));
    return threshold;
}

} // namespace vmt
