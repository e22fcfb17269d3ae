/**
 * @file
 * Round-robin probing, written once for every rotating placement:
 * round robin itself, VMT-WA's melted-server overflow for cold jobs
 * and its any-server fallback for hot jobs (cascade steps (3)/(4),
 * which probe through a ServerMask; DESIGN.md §14).
 */

#ifndef VMT_SCHED_CIRCULAR_SCAN_H
#define VMT_SCHED_CIRCULAR_SCAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/scheduler.h"

namespace vmt {

/**
 * Probe candidates in circular order — cursor, cursor + 1, ...,
 * n - 1, 0, ..., cursor - 1 — and return the first one `accept`
 * takes, leaving `cursor` one past it (wrapping at n). On a miss,
 * return kNoServer and leave `cursor` where it was: exactly where n
 * probes of `cursor = (cursor + 1) % n` leave it, without a division
 * per probe.
 *
 * `next(from, to)` yields the first candidate in [from, to), or `to`
 * when there is none; every index it skips is one `accept` would
 * have refused. Requires cursor < n.
 */
template <typename Next, typename Accept>
std::size_t
circularScan(std::size_t &cursor, std::size_t n, Next &&next,
             Accept &&accept)
{
    const auto scan = [&](std::size_t from, std::size_t to) {
        for (std::size_t id = next(from, to); id < to;
             id = next(id + 1, to)) {
            if (accept(id))
                return id;
        }
        return kNoServer;
    };
    std::size_t hit = scan(cursor, n);
    if (hit == kNoServer)
        hit = scan(0, cursor);
    if (hit != kNoServer)
        cursor = hit + 1 == n ? 0 : hit + 1;
    return hit;
}

/** circularScan over every index (no candidate filter). */
template <typename Accept>
std::size_t
circularScan(std::size_t &cursor, std::size_t n, Accept &&accept)
{
    return circularScan(
        cursor, n, [](std::size_t from, std::size_t) { return from; },
        accept);
}

/**
 * One bit per server, scanned a 64-bit word at a time: the candidate
 * filter of a masked circularScan. A set bit means "may qualify"; the
 * scan's `accept` checks the real server and clears the bit when it
 * does not, so a mask may over-approximate but never miss.
 */
class ServerMask
{
  public:
    /** Rebuild over ids [0, n): bit id = keep(id). */
    template <typename Keep>
    void
    assign(std::size_t n, Keep &&keep)
    {
        size_ = n;
        words_.assign((n + 63) / 64, 0);
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::size_t base = w << 6;
            const std::size_t bits = n - base < 64 ? n - base : 64;
            std::uint64_t word = 0;
            for (std::size_t b = 0; b < bits; ++b)
                word |= static_cast<std::uint64_t>(keep(base + b)) << b;
            words_[w] = word;
        }
    }

    void
    reset(std::size_t id)
    {
        words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
    }

    /** circularScan over the set bits only; `accept` may reset the
     *  bit of the id it refuses. */
    template <typename Accept>
    std::size_t
    circularScan(std::size_t &cursor, Accept &&accept)
    {
        return vmt::circularScan(
            cursor, size_,
            [this](std::size_t from, std::size_t to) {
                return next(from, to);
            },
            accept);
    }

    /** First set bit in [from, to), or `to`; requires to <= n. */
    std::size_t
    next(std::size_t from, std::size_t to) const
    {
        if (from >= to)
            return to;
        std::size_t w = from >> 6;
        std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (word == 0) {
            if (++w << 6 >= to)
                return to;
            word = words_[w];
        }
        const std::size_t id =
            (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
        return id < to ? id : to;
    }

  private:
    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace vmt

#endif // VMT_SCHED_CIRCULAR_SCAN_H
