#include "sched/scheduler.h"

namespace vmt {

void
Scheduler::beginInterval(Cluster &, Seconds)
{}

void
Scheduler::placeJobs(Cluster &cluster, std::span<const Job> jobs,
                     std::vector<std::size_t> &out)
{
    out.clear();
    out.reserve(jobs.size());
    for (const Job &job : jobs) {
        const std::size_t id = placeJob(cluster, job);
        if (id != kNoServer)
            cluster.addJob(id, job.type);
        out.push_back(id);
    }
}

std::optional<std::size_t>
Scheduler::hotGroupSize() const
{
    return std::nullopt;
}

std::vector<MigrationRequest>
Scheduler::proposeMigrations(Cluster &, Seconds)
{
    return {};
}

void
Scheduler::saveState(Serializer &) const
{}

void
Scheduler::loadState(Deserializer &)
{}

void
Scheduler::checkLoadedState(const Cluster &) const
{}

} // namespace vmt
