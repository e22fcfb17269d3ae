#include "heap_waterfill.h"

#include <queue>
#include <utility>

namespace vmt::reference {

namespace {

/** Most free cores first, ties to the lowest shard id. */
struct MoreFree
{
    bool operator()(const std::pair<std::size_t, std::size_t> &a,
                    const std::pair<std::size_t, std::size_t> &b)
        const
    {
        if (a.first != b.first)
            return a.first < b.first;
        return a.second > b.second;
    }
};

using WaterfillHeap =
    std::priority_queue<std::pair<std::size_t, std::size_t>,
                        std::vector<
                            std::pair<std::size_t, std::size_t>>,
                        MoreFree>;

} // namespace

HeapWaterfillResult
heapWaterfill(std::span<const std::size_t> free, std::size_t jobs)
{
    HeapWaterfillResult result;
    result.debit.assign(free.size(), 0);
    WaterfillHeap heap;
    for (std::size_t s = 0; s < free.size(); ++s)
        heap.push({free[s], s});
    for (std::size_t k = 0; k < jobs && !heap.empty(); ++k) {
        const auto [left, s] = heap.top();
        if (left == 0)
            break;
        heap.pop();
        result.sequence.push_back(s);
        ++result.debit[s];
        heap.push({left - 1, s});
    }
    return result;
}

} // namespace vmt::reference
