#include "serve/ingress_queue.h"

#include "state/config_echo.h"
#include "state/serializer.h"
#include "util/logging.h"

namespace vmt::serve {

IngressQueue::IngressQueue(std::size_t capacity) : ring_(capacity)
{
    if (capacity == 0)
        fatal("IngressQueue requires a positive capacity");
}

std::size_t
IngressQueue::push(std::span<const FeedJob> jobs)
{
    const std::size_t accepted =
        std::min(jobs.size(), ring_.size() - count_);
    std::size_t tail = head_ + count_;
    if (tail >= ring_.size())
        tail -= ring_.size();
    // The free space starts at the tail and wraps at most once.
    const std::size_t first = std::min(accepted, ring_.size() - tail);
    std::copy_n(jobs.begin(), first, ring_.begin() + tail);
    std::copy_n(jobs.begin() + first, accepted - first, ring_.begin());
    count_ += accepted;
    return accepted;
}

std::size_t
IngressQueue::clear()
{
    const std::size_t dropped = count_;
    head_ = 0;
    count_ = 0;
    return dropped;
}

void
IngressQueue::saveState(Serializer &out) const
{
    ConfigEcho(out).u64("ingress capacity", ring_.size());
    out.putSize(count_);
    for (std::size_t i = 0; i < count_; ++i)
        saveFeedJob(out, ring_[(head_ + i) % ring_.size()]);
}

void
IngressQueue::loadState(Deserializer &in)
{
    ConfigEcho(in, "serve snapshot").u64("ingress capacity", ring_.size());
    if (count_ != 0)
        fatal("IngressQueue::loadState on a non-empty queue");
    const std::size_t pending = in.getSize();
    if (pending > ring_.size())
        fatal("serve snapshot ingress depth exceeds its capacity");
    for (std::size_t i = 0; i < pending; ++i)
        ring_[i] = loadFeedJob(in, "ingress entry " + std::to_string(i));
    head_ = 0;
    count_ = pending;
}

} // namespace vmt::serve
