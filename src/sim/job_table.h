/**
 * @file
 * The running-job bookkeeping of one pod, shared by the batch driver
 * (runSimulation) and every serving shard: the slot table (one entry
 * per job, unique among scheduled departures), the free list, the
 * per-(server, workload) residency lists that make removal O(1) and
 * the departure calendar.
 *
 * A slot whose server is kNoServer is a tombstone: its job was lost
 * (or moved to another pod) in an evacuation, and the slot stays
 * reserved until its departure fires — the calendar has no removal.
 * So every slot is either free or pending, never both; load() refuses
 * a snapshot that breaks this or any other invariant the operations
 * rely on.
 *
 * The scheduler has already applied a placement to the Cluster when
 * bind() or rehome() records it; only the removals (departures,
 * evacuation, migration) touch the Cluster.
 */

#ifndef VMT_SIM_JOB_TABLE_H
#define VMT_SIM_JOB_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sched/scheduler.h"
#include "server/cluster.h"
#include "sim/interval_queue.h"
#include "util/logging.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

class Serializer;
class Deserializer;

/** Where one running job currently lives (jobs can migrate). */
struct SimActiveJob
{
    /** Hosting server, or kNoServer for a tombstone. */
    std::size_t serverId;
    WorkloadType type;
    /** Index of this slot within its residency list. */
    std::uint32_t pos;
};

/** One pod's running jobs (see the file comment). */
class JobTable
{
  public:
    /** @param num_servers Servers in the pod.
     *  @param interval The driver's step length (calendar bucket). */
    JobTable(std::size_t num_servers, Seconds interval)
        : residents_(num_servers), departures_(interval)
    {}

    /** Record a job placed on `server` (reusing the free list's back
     *  slot first) and schedule its departure at `due` — also how the
     *  serving driver re-homes a refugee at its preserved due time. */
    void
    bind(std::size_t server, WorkloadType type, Seconds due)
    {
        auto &ids = residents_[server][workloadIndex(type)];
        const auto pos = static_cast<std::uint32_t>(ids.size());
        std::uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            slots_[slot] = SimActiveJob{server, type, pos};
        } else {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.push_back(SimActiveJob{server, type, pos});
        }
        ids.push_back(slot);
        departures_.schedule(due, slot);
    }

    /** Complete every job due at or before `now` (releasing its core
     *  in `cluster`) and free its slot; returns the count, tombstones
     *  excluded. */
    std::size_t
    drainDue(Seconds now, Cluster &cluster)
    {
        std::size_t completed = 0;
        departures_.drainDue(now, [&](std::uint32_t slot) {
            const SimActiveJob &job = slots_[slot];
            if (job.serverId != kNoServer) {
                cluster.removeJob(job.serverId, job.type);
                unlink(slot);
                ++completed;
            }
            free_.push_back(slot);
        });
        return completed;
    }

    /**
     * Drain every job resident on the failed `servers`: release its
     * core in `cluster`, tombstone its slot and call
     * fn(slot, type, due) — server by server, in workload order, each
     * list from the back. The batch driver then rehome()s the slot;
     * the serving driver bind()s the job again, possibly in another
     * pod. Otherwise the job is lost.
     */
    template <typename Fn>
    void
    evacuate(std::span<const std::size_t> servers, Cluster &cluster,
             Fn &&fn)
    {
        if (servers.empty())
            return;
        // Due times come from the calendar: evacuations are rare, and
        // a stored due time per slot would cost every bind.
        std::vector<Seconds> due(slots_.size());
        departures_.visitPending(
            [&due](Seconds time, std::uint32_t slot) { due[slot] = time; });
        for (const std::size_t server : servers) {
            for (const WorkloadType type : kAllWorkloads) {
                auto &ids = residents_[server][workloadIndex(type)];
                while (!ids.empty()) {
                    const std::uint32_t slot = ids.back();
                    ids.pop_back();
                    cluster.removeJob(server, type);
                    slots_[slot].serverId = kNoServer;
                    fn(slot, type, due[slot]);
                }
            }
        }
    }

    /** Move an evacuated (tombstoned) slot onto `server`, where the
     *  scheduler placed its job; slot and departure stay. */
    void
    rehome(std::uint32_t slot, std::size_t server)
    {
        SimActiveJob &job = slots_[slot];
        auto &dest = residents_[server][workloadIndex(job.type)];
        job.serverId = server;
        job.pos = static_cast<std::uint32_t>(dest.size());
        dest.push_back(slot);
    }

    /** Live-migrate the last resident job of `type` from `from` to
     *  `to`, here and in `cluster`; false when `from` runs none. */
    bool
    migrate(std::size_t from, std::size_t to, WorkloadType type,
            Cluster &cluster)
    {
        auto &ids = residents_[from][workloadIndex(type)];
        if (ids.empty())
            return false;
        const std::uint32_t slot = ids.back();
        ids.pop_back();
        cluster.removeJob(from, type);
        cluster.addJob(to, type);
        rehome(slot, to);
        return true;
    }

    /**
     * Write the slots (stale freed entries included, so ids stay
     * stable), the free list, every residency list in (server,
     * workload) order and the pending departures as (time, slot) in
     * pop order. This is the batch QUEU section and each SHRD shard's
     * job block.
     */
    void save(Serializer &out) const;

    /** Read what save() wrote into a fresh table of the same server
     *  count, pinning the calendar to `resume_time`.
     *  @throws FatalError naming the first value out of range or
     *          breaking an invariant. */
    void load(Deserializer &in, Seconds resume_time);

    // ---- read-only views (tests, the serial SHRD reference) ----

    std::size_t numServers() const { return residents_.size(); }
    const std::vector<SimActiveJob> &slots() const { return slots_; }
    const std::vector<std::uint32_t> &freeList() const { return free_; }
    const std::vector<std::uint32_t> &
    residents(std::size_t server, WorkloadType type) const
    {
        return residents_[server][workloadIndex(type)];
    }
    const IntervalQueue<std::uint32_t> &
    departures() const
    {
        return departures_;
    }

  private:
    /** Drop a live slot from its residency list (swap with the back). */
    void
    unlink(std::uint32_t slot)
    {
        const SimActiveJob &job = slots_[slot];
        auto &ids = residents_[job.serverId][workloadIndex(job.type)];
        const std::uint32_t pos = job.pos;
        if (pos >= ids.size() || ids[pos] != slot)
            panic("job missing from server index");
        const std::uint32_t moved = ids.back();
        ids[pos] = moved;
        slots_[moved].pos = pos;
        ids.pop_back();
    }

    std::vector<SimActiveJob> slots_;
    std::vector<std::uint32_t> free_;
    std::vector<std::array<std::vector<std::uint32_t>, kNumWorkloads>>
        residents_;
    IntervalQueue<std::uint32_t> departures_;
};

} // namespace vmt

#endif // VMT_SIM_JOB_TABLE_H
