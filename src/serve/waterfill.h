/**
 * @file
 * The serving driver's cross-shard router: a deterministic waterfill
 * that gives each job, in order, to the shard with the most free
 * capacity at that moment, ties to the lowest shard id.
 *
 * Popping a max-heap of (free, id) and pushing it back one lower per
 * job yields that sequence at O(log S) heap work per job. The walk
 * below yields the same sequence in closed form. Sort the shards once
 * by (free desc, id asc), then walk the capacity levels
 * v = max free ... 1: at level v every shard with free >= v takes one
 * job, in ascending id order, until the jobs run out. It is the same
 * sequence because after level v + 1 every shard that started with
 * free >= v + 1 sits at exactly v, tied with the shards that started
 * at v; the heap then pops all of them once, lowest id first, before
 * any of them reaches v - 1. Each level emits at least one job, so
 * the walk costs one sort plus O(1) per job.
 */

#ifndef VMT_SERVE_WATERFILL_H
#define VMT_SERVE_WATERFILL_H

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace vmt::serve {

/** Closed-form waterfill; reuse one instance so routing allocates
 *  nothing in steady state. */
class Waterfill
{
  public:
    /**
     * Route up to @p jobs jobs over the per-shard capacities
     * @p free: calls emit(shard) once per routed job, in routing
     * order, and returns the number routed, min(jobs, sum of free).
     * debit() then holds the jobs each shard took.
     */
    template <typename Emit>
    std::size_t
    route(std::span<const std::size_t> free, std::size_t jobs,
          Emit &&emit)
    {
        byFree_.clear();
        for (std::size_t s = 0; s < free.size(); ++s)
            if (free[s] > 0)
                byFree_.push_back(s);
        std::sort(byFree_.begin(), byFree_.end(),
                  [free](std::size_t a, std::size_t b) {
                      return free[a] != free[b] ? free[a] > free[b]
                                                : a < b;
                  });
        debit_.assign(free.size(), 0);
        active_.clear();

        std::size_t routed = 0;
        std::size_t joined = 0;
        std::size_t level = byFree_.empty() ? 0 : free[byFree_.front()];
        for (; level > 0 && routed < jobs; --level) {
            // Shards whose capacity reaches this level join the
            // round, kept in ascending id order.
            for (; joined < byFree_.size() &&
                   free[byFree_[joined]] == level;
                 ++joined) {
                const std::size_t s = byFree_[joined];
                active_.insert(std::upper_bound(active_.begin(),
                                                active_.end(), s),
                               s);
            }
            const std::size_t take =
                std::min(active_.size(), jobs - routed);
            for (std::size_t i = 0; i < take; ++i) {
                emit(active_[i]);
                ++debit_[active_[i]];
            }
            routed += take;
        }
        return routed;
    }

    /** Jobs each shard took in the last route() call. */
    std::span<const std::size_t> debit() const { return debit_; }

  private:
    /** Shards with free capacity, by (free desc, id asc). */
    std::vector<std::size_t> byFree_;
    /** Shards taking a job at the current level, by id. */
    std::vector<std::size_t> active_;
    std::vector<std::size_t> debit_;
};

} // namespace vmt::serve

#endif // VMT_SERVE_WATERFILL_H
