#include "reference/job_table_save.h"

#include <cstdint>

#include "sim/interval_queue.h"

namespace vmt::reference {

void
saveJobTable(const JobTable &jobs, Serializer &out)
{
    out.putSize(jobs.slots().size());
    for (const SimActiveJob &job : jobs.slots()) {
        out.putSize(job.serverId);
        out.putU8(static_cast<std::uint8_t>(job.type));
        out.putU32(job.pos);
    }
    out.putSize(jobs.freeList().size());
    for (std::uint32_t slot : jobs.freeList())
        out.putU32(slot);
    for (std::size_t server = 0; server < jobs.numServers(); ++server) {
        for (const WorkloadType type : kAllWorkloads) {
            const auto &ids = jobs.residents(server, type);
            out.putSize(ids.size());
            for (std::uint32_t slot : ids)
                out.putU32(slot);
        }
    }
    // Pop order is the documented visit order; drain a copy.
    out.putSize(jobs.departures().size());
    IntervalQueue<std::uint32_t> pending = jobs.departures();
    while (!pending.empty()) {
        out.putDouble(pending.nextTime());
        out.putU32(pending.pop());
    }
}

} // namespace vmt::reference
