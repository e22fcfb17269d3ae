/**
 * @file
 * Temperature-ordered placement heaps shared by the schedulers.
 *
 * Section III-A: "Within each group, jobs are distributed evenly
 * among the servers." Even distribution must hold for the resulting
 * *temperatures*, not just arrival counts — departures are random and
 * inlet temperatures vary between slots (Section V-D), so a rotating
 * cursor lets per-server thermal state drift by several kelvin, which
 * smears the group's temperature band and makes servers melt out at
 * different times. BalancedGroup keeps a min-heap keyed by each
 * server's *projected steady-state air temperature* (inlet reading
 * plus rise-per-watt times estimated power, refreshed once per
 * scheduling interval and bumped by every placement), so each new job
 * lands on the member that will run coolest. The orders are shared
 * with BlockMinGroup (block_min_group.h), the per-interval group the
 * schedulers place from; this heap serves VMT-WA's migration-target
 * selection and the scalar reference schedulers in tests/reference/.
 *
 * The heap is hand-rolled rather than a std::priority_queue: members
 * are added in bulk (lazy O(n) heapify instead of n sift-ups), and
 * place() bumps the winner's key in place with a single root
 * sift-down instead of a pop + push pair. The (temp, id) comparator
 * is a strict total order (ids are unique), so the pop sequence — and
 * therefore every placement decision — depends only on the entry
 * multiset, never on the heap's internal layout. That is the bitwise
 * contract BlockMinGroup matches (DESIGN.md §14): given the same
 * entry multiset, every decision is identical.
 */

#ifndef VMT_SCHED_BALANCED_GROUP_H
#define VMT_SCHED_BALANCED_GROUP_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "server/cluster.h"
#include "util/units.h"

namespace vmt {

/** One heap member: a server keyed by projected air temperature. */
struct GroupEntry
{
    /** Projected steady-state air temperature (C). */
    Celsius temp;
    std::size_t id;
};

/** Coolest-first total order (min-heap at the root). */
struct CoolerFirst
{
    bool operator()(const GroupEntry &a, const GroupEntry &b) const
    {
        if (a.temp != b.temp)
            return a.temp < b.temp;
        return a.id < b.id;
    }
};

/** Hottest-first total order (max-heap at the root). */
struct HotterFirst
{
    bool operator()(const GroupEntry &a, const GroupEntry &b) const
    {
        if (a.temp != b.temp)
            return a.temp > b.temp;
        return a.id > b.id;
    }
};

/**
 * Heap of (projected temperature, server id) with capacity checks.
 * `Before(a, b)` is true when a must pop before b; it must be a
 * strict total order for the placement-decision contract above.
 */
template <typename Before>
class TempOrderedGroup
{
  public:
    /** Drop all members. */
    void clear()
    {
        heap_.clear();
        dirty_ = false;
    }

    /** True when no members remain placeable this interval. */
    bool empty() const { return heap_.empty(); }

    /** Number of members still in the heap. */
    std::size_t size() const { return heap_.size(); }

    /** Add one server keyed by its projected steady-state air
     *  temperature (inlet + rise-per-watt x current power). */
    void add(const Cluster &cluster, std::size_t id)
    {
        const Server &srv = cluster.server(id);
        const Celsius projected =
            srv.thermal().inletTemp() +
            cluster.thermalParams().airRisePerWatt *
                srv.power(cluster.powerModel());
        heap_.push_back(GroupEntry{projected, id});
        dirty_ = true;
    }

    /**
     * Place one job: pop the first-ordered member with a free core,
     * re-insert it with `added_watts` folded into its key, and
     * return its id. Members found full are dropped until the next
     * rebuild.
     * @return Server id, or kNoServer when every member is full.
     */
    std::size_t place(Cluster &cluster, Watts added_watts)
    {
        const KelvinPerWatt rise =
            cluster.thermalParams().airRisePerWatt;
        ensureHeap();
        while (!heap_.empty()) {
            if (!std::as_const(cluster)
                     .server(heap_[0].id)
                     .hasCapacity()) {
                popRoot(); // Full until the next interval rebuild.
                continue;
            }
            const std::size_t id = heap_[0].id;
            heap_[0].temp += rise * added_watts;
            siftDown(0);
            return id;
        }
        return kNoServer;
    }

    /**
     * Like place(), but only when the coolest member's projected
     * *power-equivalent* is still below `limit` watts (used for
     * VMT-WA's keep-warm fill: melted servers receive load only up to
     * the power that pins them at the melting point). Members at or
     * above the limit stay in the heap. Only meaningful for the
     * coolest-first order.
     */
    std::size_t placeIfBelow(Cluster &cluster, Watts added_watts,
                             Watts limit)
    {
        const ServerThermalParams &thermal = cluster.thermalParams();
        const KelvinPerWatt rise = thermal.airRisePerWatt;
        // The limit is expressed as a power against the nominal
        // inlet; convert to the equivalent projected temperature.
        const Celsius temp_limit = thermal.inletTemp + rise * limit;
        ensureHeap();
        while (!heap_.empty()) {
            if (heap_[0].temp >= temp_limit)
                return kNoServer; // Everyone is warm enough already.
            if (!std::as_const(cluster)
                     .server(heap_[0].id)
                     .hasCapacity()) {
                popRoot();
                continue;
            }
            const std::size_t id = heap_[0].id;
            heap_[0].temp += rise * added_watts;
            siftDown(0);
            return id;
        }
        return kNoServer;
    }

  private:
    /** Heapify heap_ if adds arrived since the last ordered access. */
    void ensureHeap()
    {
        if (dirty_) {
            // Floyd heapify: sift every internal node down, last
            // first.
            const std::size_t n = heap_.size();
            if (n > 1) {
                for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;)
                    siftDown(i);
            }
            dirty_ = false;
        }
    }

    /** Restore the heap property downward from node i. */
    void siftDown(std::size_t i)
    {
        // 4-ary layout: children of i are 4i+1..4i+4. Half the depth
        // of a binary heap, and the four children share a cache line
        // pair. Pop order only depends on the (temp, id) total order,
        // so the arity is free to choose.
        const std::size_t n = heap_.size();
        const GroupEntry moving = heap_[i];
        const Before before{};
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            const std::size_t last = std::min(first + 4, n);
            std::size_t child = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(heap_[c], heap_[child]))
                    child = c;
            }
            if (!before(heap_[child], moving))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = moving;
    }

    /** Remove the root (capacity-exhausted member). */
    void popRoot()
    {
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    std::vector<GroupEntry> heap_;
    bool dirty_ = false;
};

/** Coolest-first group (the balanced-placement workhorse). */
using BalancedGroup = TempOrderedGroup<CoolerFirst>;

} // namespace vmt

#endif // VMT_SCHED_BALANCED_GROUP_H
