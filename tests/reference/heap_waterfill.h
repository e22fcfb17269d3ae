/**
 * @file
 * The per-job heap waterfill — the serving router's original form,
 * kept as the oracle the closed-form level walk (serve/waterfill.h)
 * is checked against (tests/serve/test_waterfill.cc). Not linked
 * into the simulator.
 */

#ifndef VMT_TESTS_REFERENCE_HEAP_WATERFILL_H
#define VMT_TESTS_REFERENCE_HEAP_WATERFILL_H

#include <cstddef>
#include <span>
#include <vector>

namespace vmt::reference {

/** What the heap router did with one batch. */
struct HeapWaterfillResult
{
    /** Shard of each routed job, in routing order. */
    std::vector<std::size_t> sequence;
    /** Jobs each shard took. */
    std::vector<std::size_t> debit;
};

/**
 * Route up to @p jobs jobs over per-shard capacities @p free by
 * popping a max-heap of (free, shard) — ties to the lowest shard id —
 * once per job and pushing it back one lower, stopping when every
 * shard is at zero.
 */
HeapWaterfillResult heapWaterfill(std::span<const std::size_t> free,
                                  std::size_t jobs);

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_HEAP_WATERFILL_H
