#include "obs/observability.h"

#include <cstdlib>

#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::obs {

ObsOptions
obsOptionsFromFlags(const Flags &flags)
{
    ObsOptions options;
    if (const char *path = std::getenv("VMT_METRICS_OUT"))
        options.metricsOut = path;
    if (const char *path = std::getenv("VMT_TRACE_EVENTS"))
        options.traceEvents = path;
    options.metricsOut = flags.getString("metrics-out", options.metricsOut);
    options.traceEvents =
        flags.getString("trace-events", options.traceEvents);
    return options;
}

Observability::Observability() : profiler_(registry_)
{
    poolTasks_ = registry_.gauge(
        "profile.pool.tasks",
        "thread-pool tasks executed during the last run");
    poolBusySeconds_ = registry_.gauge(
        "profile.pool.busy_seconds",
        "wall seconds pool workers spent executing tasks during the "
        "last run");
}

void
Observability::beginRun(const std::string &scheduler,
                        std::size_t servers, std::size_t intervals,
                        Seconds interval)
{
    const ThreadPool::TaskStats stats = ThreadPool::taskStats();
    poolTasksBase_ = stats.tasks;
    poolBusyBase_ = stats.busySeconds;
    telemetry_.beginRun(scheduler, servers, intervals, interval);
}

void
Observability::endRun()
{
    const ThreadPool::TaskStats stats = ThreadPool::taskStats();
    registry_.set(poolTasks_, static_cast<double>(
                                  stats.tasks - poolTasksBase_));
    registry_.set(poolBusySeconds_,
                  stats.busySeconds - poolBusyBase_);
    telemetry_.endRun(registry_.snapshotValues(false));
}

void
Observability::saveState(Serializer &out) const
{
    registry_.saveState(out);
    telemetry_.saveState(out);
}

void
Observability::loadState(Deserializer &in, std::size_t completed)
{
    registry_.loadState(in);
    telemetry_.loadState(in, completed);
}

void
Observability::acceptMissingState(std::size_t completed)
{
    warn("snapshot has no OBSV section; telemetry and metrics for "
         "the completed prefix are zero-filled");
    telemetry_.padMissing(completed);
}

void
Observability::writeMetrics(const std::string &path) const
{
    registry_.writePrometheus(path);
    registry_.writeCsv(path + ".csv");
}

void
Observability::writeTraceEvents(const std::string &path) const
{
    telemetry_.writeJsonl(path);
}

Observability &
globalObservability()
{
    static Observability *bundle = new Observability();
    return *bundle;
}

} // namespace vmt::obs
