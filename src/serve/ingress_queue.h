/**
 * @file
 * Bounded FIFO ring buffer between a JobFeed and the serving driver's
 * admission step. Fixed capacity: overload sheds arrivals instead of
 * growing the slot table without bound (the backpressure half of the
 * serving mode's admission control).
 *
 * Entries move in bulk: push() copies a whole span in at most two
 * contiguous runs, and consume() hands the queued entries out oldest
 * first as at most two contiguous runs of the ring, so neither side
 * pays a per-entry call or modulo.
 */

#ifndef VMT_SERVE_INGRESS_QUEUE_H
#define VMT_SERVE_INGRESS_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "serve/job_feed.h"

namespace vmt {

class Serializer;
class Deserializer;

namespace serve {

/** Fixed-capacity FIFO of pending arrivals. */
class IngressQueue
{
  public:
    /** @throws FatalError on zero capacity. */
    explicit IngressQueue(std::size_t capacity);

    /** Enqueue @p jobs in order until the ring is full. Returns how
     *  many were accepted — a prefix of @p jobs; the caller sheds the
     *  rest. */
    std::size_t push(std::span<const FeedJob> jobs);

    /**
     * Pop queued entries oldest first. @p take is called with the
     * queued entries as at most two contiguous runs, in FIFO order,
     * and returns how many leading entries of its run it consumed;
     * those are popped. A return short of the run's length stops the
     * walk. Returns the total popped.
     */
    template <typename Take>
    std::size_t
    consume(Take &&take)
    {
        std::size_t popped = 0;
        while (count_ > 0) {
            const std::size_t run =
                std::min(count_, ring_.size() - head_);
            const std::size_t took = take(
                std::span<const FeedJob>(ring_.data() + head_, run));
            head_ += took;
            if (head_ == ring_.size())
                head_ = 0;
            count_ -= took;
            popped += took;
            if (took < run)
                break;
        }
        return popped;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Drop everything queued (the shed admission policy). Returns
     *  the number of entries discarded. */
    std::size_t clear();

    /** Serialize the queued jobs in FIFO order. */
    void saveState(Serializer &out) const;

    /** Restore into an empty queue of the same capacity.
     *  @throws FatalError on a malformed entry (unknown workload
     *  type, or a time or duration that is not a finite non-negative
     *  number). */
    void loadState(Deserializer &in);

  private:
    std::vector<FeedJob> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace serve
} // namespace vmt

#endif // VMT_SERVE_INGRESS_QUEUE_H
