#include "sched/round_robin.h"

#include <string>
#include <utility>

#include "sched/circular_scan.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

std::size_t
RoundRobinScheduler::placeJob(Cluster &cluster, const Job &)
{
    const Cluster &view = cluster;
    return circularScan(cursor_, view.numServers(), [&](std::size_t id) {
        return view.server(id).hasCapacity();
    });
}

void
RoundRobinScheduler::saveState(Serializer &out) const
{
    out.putSize(cursor_);
}

void
RoundRobinScheduler::loadState(Deserializer &in)
{
    cursor_ = in.getSize();
}

void
RoundRobinScheduler::checkLoadedState(const Cluster &cluster) const
{
    if (cursor_ >= cluster.numServers())
        fatal("round-robin cursor " + std::to_string(cursor_) +
              " is past the last server of a " +
              std::to_string(cluster.numServers()) + "-server cluster");
}

} // namespace vmt
