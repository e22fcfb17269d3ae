/**
 * @file
 * Interval-bucketed calendar queue: the departure calendar of both
 * simulation drivers.
 *
 * The drivers only ever drain events at fixed interval boundaries
 * (now = i * dt), so a binary heap's O(log N) per push/pop is wasted
 * generality. This queue files each event into the bucket of the
 * first interval boundary at or after its timestamp (O(1) push,
 * amortized O(1) pop plus one linear-time sort per bucket), and
 * reproduces a heap's (time, then insertion order) pop sequence
 * exactly — tests/reference/event_queue.h is that heap, kept as the
 * oracle:
 *
 *  - bucket b holds times t with double(b)*dt >= t and, for b > 0,
 *    double(b-1)*dt < t — computed with the same floating-point
 *    expression the driver uses for interval boundaries, so the
 *    buckets partition timestamps strictly and draining buckets in
 *    index order is globally time-sorted;
 *  - every bucket other than a mid-drain front holds its entries in
 *    insertion order (schedule() only appends), so a *stable* sort by
 *    time alone yields (time, insertion) order with no sequence
 *    number stored. A small bucket takes an insertion sort; a large
 *    one an LSD radix sort on the IEEE-754 bits of time + 0.0: the
 *    addition maps -0.0 to +0.0 (the two compare equal, so they must
 *    tie), and non-negative doubles order like their bit patterns.
 *    Only the bit range that varies within the bucket is sorted;
 *  - an event scheduled at or before the drain point (e.g. a
 *    zero-duration job) is placed into the undrained remainder of the
 *    sorted front bucket after every entry of equal time — exactly
 *    where the heap would surface it.
 *
 * Drained bucket storage is recycled through a spare pool, so the
 * steady state performs no allocation.
 */

#ifndef VMT_SIM_INTERVAL_QUEUE_H
#define VMT_SIM_INTERVAL_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/units.h"

namespace vmt {

/**
 * Time-ordered queue with FIFO tie-breaking, specialized for drains
 * at multiples of a fixed interval. Pop order is identical to a
 * (time, insertion)-ordered heap's for any schedule/pop sequence.
 *
 * @tparam Payload Copyable, default-constructible event payload.
 */
template <typename Payload>
class IntervalQueue
{
  public:
    /**
     * Buckets of at most this many entries are insertion-sorted;
     * larger ones take the radix sort, whose fixed cost is clearing
     * and prefix-summing a 256-bin histogram per digit. The measured
     * crossover is at 72-80 entries (DESIGN.md §8b, "Driver data
     * structures").
     */
    static constexpr std::size_t kInsertionSortMax = 64;

    /** @param interval The driver's step length dt (> 0). */
    explicit IntervalQueue(Seconds interval)
        : dt_(interval), invDt_(1.0 / interval)
    {
        if (interval <= 0.0)
            fatal("IntervalQueue requires a positive interval");
    }

    /** Schedule a payload at an absolute time (>= 0). */
    void
    schedule(Seconds time, Payload payload)
    {
        std::uint64_t b = bucketOf(time);
        if (!buckets_.empty() && b < base_)
            b = base_; // Bucket already retired; drains next.
        if (!buckets_.empty() && b == base_ && frontSorted_) {
            // The active bucket is mid-drain: keep its undrained
            // tail sorted. upper_bound lands after every equal time,
            // all of which were scheduled earlier — FIFO.
            auto &front = buckets_.front();
            const auto it = std::upper_bound(
                front.begin() +
                    static_cast<std::ptrdiff_t>(cursor_),
                front.end(), time,
                [](Seconds t, const Entry &e) { return t < e.time; });
            front.insert(it, Entry{time, std::move(payload)});
        } else {
            bucketAt(b).push_back(Entry{time, std::move(payload)});
        }
        ++size_;
    }

    /** True when no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Timestamp of the earliest pending event; queue must not be
     *  empty. */
    Seconds
    nextTime()
    {
        if (!prepareFront())
            panic("IntervalQueue::nextTime on empty queue");
        return buckets_.front()[cursor_].time;
    }

    /** True when an event is due at or before the given time. */
    bool
    hasEventDue(Seconds now)
    {
        return prepareFront() && buckets_.front()[cursor_].time <= now;
    }

    /** Pop the earliest event's payload; queue must not be empty. */
    Payload
    pop()
    {
        if (!prepareFront())
            panic("IntervalQueue::pop on empty queue");
        Payload payload =
            std::move(buckets_.front()[cursor_].payload);
        ++cursor_;
        --size_;
        return payload;
    }

    /**
     * Pop every event due at or before `now`, in pop order, calling
     * fn(payload) for each — the drivers' departure drain. Equivalent
     * to `while (hasEventDue(now)) fn(pop());` but walks each bucket
     * once instead of re-preparing the front per event. fn must not
     * touch the queue. Returns the number of events drained.
     */
    template <typename Fn>
    std::size_t
    drainDue(Seconds now, Fn &&fn)
    {
        std::size_t drained = 0;
        while (prepareFront()) {
            auto &front = buckets_.front();
            const std::size_t n = front.size();
            std::size_t i = cursor_;
            while (i < n && front[i].time <= now)
                fn(std::move(front[i++].payload));
            drained += i - cursor_;
            size_ -= i - cursor_;
            cursor_ = i;
            if (i < n)
                break; // The earliest pending event is not due.
        }
        return drained;
    }

    /**
     * Visit every pending event as fn(time, payload) in pop order
     * (checkpoint save). The queue itself is not modified; feeding
     * the visited sequence back through restoreFront() + schedule()
     * on a fresh queue reproduces this queue's pop order exactly —
     * the fresh buckets receive each tie group in visit order, and
     * the stable sort keeps it.
     *
     * Buckets partition time strictly (a late insert clamped into the
     * front bucket is earlier than every later bucket), so sorting
     * each bucket on its own and visiting buckets in index order is
     * the global (time, insertion) order. The front bucket's
     * undrained tail is visited in place when draining has already
     * sorted it.
     */
    template <typename Fn>
    void
    visitPending(Fn &&fn) const
    {
        std::vector<Entry> sorted;
        std::vector<Entry> scratch;
        for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
            const auto &bucket = buckets_[bi];
            const std::size_t first = bi == 0 ? cursor_ : 0;
            if (bi == 0 && frontSorted_) {
                for (std::size_t i = first; i < bucket.size(); ++i)
                    fn(bucket[i].time, bucket[i].payload);
                continue;
            }
            sorted.assign(
                bucket.begin() + static_cast<std::ptrdiff_t>(first),
                bucket.end());
            sortByTime(sorted, scratch);
            for (const Entry &entry : sorted)
                fn(entry.time, entry.payload);
        }
    }

    /**
     * Pin an empty queue's drain front to the bucket of `now` before
     * re-filling it from a checkpoint. Without this, the rebuilt
     * queue's front would sit at the earliest *pending* event, and an
     * event scheduled later for an earlier (now empty) bucket would
     * be misfiled into it. Must be called on a freshly constructed
     * queue.
     */
    void
    restoreFront(Seconds now)
    {
        if (!buckets_.empty() || size_ != 0)
            panic("IntervalQueue::restoreFront on non-empty queue");
        base_ = bucketOf(now);
        cursor_ = 0;
        frontSorted_ = false;
        buckets_.push_back(takeSpare());
    }

  private:
    struct Entry
    {
        Seconds time;
        Payload payload;
    };

    static constexpr unsigned kDigitBits = 8;
    static constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;

    /** Sort key: non-negative doubles order like their bit patterns;
     *  adding +0.0 maps -0.0 onto +0.0 so the two tie. */
    static std::uint64_t
    keyOf(Seconds time)
    {
        return std::bit_cast<std::uint64_t>(time + 0.0);
    }

    /**
     * Stable sort of `v` by time (ties keep their order): insertion
     * sort for small buckets, else an LSD radix sort over 8-bit
     * digits of keyOf(), restricted to the bits that vary across the
     * bucket (XOR against the first key) and skipping digits every
     * key shares; `scratch` is the radix sort's ping-pong buffer and
     * may swap storage with `v`.
     */
    static void
    sortByTime(std::vector<Entry> &v, std::vector<Entry> &scratch)
    {
        const std::size_t n = v.size();
        if (n < 2)
            return;
        if (n <= kInsertionSortMax) {
            insertionSortByTime(v);
            return;
        }

        const std::uint64_t first = keyOf(v[0].time);
        std::uint64_t varying = 0;
        for (const Entry &e : v)
            varying |= keyOf(e.time) ^ first;
        if (varying == 0)
            return; // All times equal: insertion order is the order.
        const auto bits =
            static_cast<unsigned>(std::bit_width(varying));
        const unsigned passes = (bits + kDigitBits - 1) / kDigitBits;

        // All digit histograms in one sweep (bucket sizes stay far
        // below 2^32).
        std::array<std::array<std::uint32_t, kRadix>, 8> counts;
        for (unsigned p = 0; p < passes; ++p)
            counts[p].fill(0);
        for (const Entry &e : v) {
            const std::uint64_t key = keyOf(e.time);
            for (unsigned p = 0; p < passes; ++p)
                ++counts[p][(key >> (p * kDigitBits)) & (kRadix - 1)];
        }

        scratch.resize(n);
        Entry *src = v.data();
        Entry *dst = scratch.data();
        for (unsigned p = 0; p < passes; ++p) {
            const unsigned shift = p * kDigitBits;
            auto &count = counts[p];
            if (count[(first >> shift) & (kRadix - 1)] == n)
                continue; // Every key shares this digit.
            std::uint32_t offset = 0;
            for (std::uint32_t &c : count) {
                const std::uint32_t here = c;
                c = offset;
                offset += here;
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t digit =
                    (keyOf(src[i].time) >> shift) & (kRadix - 1);
                dst[count[digit]++] = std::move(src[i]);
            }
            std::swap(src, dst);
        }
        if (src != v.data())
            v.swap(scratch);
    }

    /** Stable insertion sort by time: an entry moves left only past
     *  strictly later times, so ties (-0.0 and +0.0 included, which
     *  compare equal) keep their order. */
    static void
    insertionSortByTime(std::vector<Entry> &v)
    {
        for (std::size_t i = 1; i < v.size(); ++i) {
            if (!(v[i].time < v[i - 1].time))
                continue;
            Entry entry = std::move(v[i]);
            std::size_t j = i;
            do {
                v[j] = std::move(v[j - 1]);
                --j;
            } while (j > 0 && entry.time < v[j - 1].time);
            v[j] = std::move(entry);
        }
    }

    /** Smallest b with double(b) * dt >= time. The cast-then-multiply
     *  form matches the driver's boundary expression bit for bit; the
     *  initial multiply-by-1/dt guess is only a guess — the
     *  correction loops (one iteration in practice) make the result
     *  exact, so no division is needed on this path. */
    std::uint64_t
    bucketOf(Seconds time) const
    {
        if (time < 0.0)
            fatal("IntervalQueue requires non-negative times");
        auto b = static_cast<std::uint64_t>(time * invDt_);
        while (b > 0 && static_cast<double>(b - 1) * dt_ >= time)
            --b;
        while (static_cast<double>(b) * dt_ < time)
            ++b;
        return b;
    }

    /** The storage for bucket index b, growing the window as needed. */
    std::vector<Entry> &
    bucketAt(std::uint64_t b)
    {
        if (buckets_.empty()) {
            base_ = b;
            cursor_ = 0;
            frontSorted_ = false;
            buckets_.push_back(takeSpare());
            return buckets_.front();
        }
        while (base_ + buckets_.size() <= b)
            buckets_.push_back(takeSpare());
        return buckets_[static_cast<std::size_t>(b - base_)];
    }

    /** Advance to the first bucket with undrained events, sorting it
     *  on first touch. Returns false when the queue is empty. */
    bool
    prepareFront()
    {
        while (!buckets_.empty()) {
            auto &front = buckets_.front();
            if (cursor_ < front.size()) {
                if (!frontSorted_) {
                    sortByTime(front, scratch_);
                    frontSorted_ = true;
                }
                return true;
            }
            retireFront();
        }
        return false;
    }

    /** Drop the fully drained front bucket, recycling its storage. */
    void
    retireFront()
    {
        auto &front = buckets_.front();
        front.clear();
        if (spare_.size() < kMaxSpare)
            spare_.push_back(std::move(front));
        buckets_.pop_front();
        ++base_;
        cursor_ = 0;
        frontSorted_ = false;
    }

    std::vector<Entry>
    takeSpare()
    {
        if (spare_.empty())
            return {};
        std::vector<Entry> v = std::move(spare_.back());
        spare_.pop_back();
        return v;
    }

    /** Spare vectors kept beyond this are freed. */
    static constexpr std::size_t kMaxSpare = 64;

    Seconds dt_;
    double invDt_;
    std::deque<std::vector<Entry>> buckets_;
    /** Bucket index of buckets_.front(). */
    std::uint64_t base_ = 0;
    /** Drain position within the (sorted) front bucket. */
    std::size_t cursor_ = 0;
    bool frontSorted_ = false;
    std::vector<std::vector<Entry>> spare_;
    /** Ping-pong buffer of the front bucket's radix sort. */
    std::vector<Entry> scratch_;
    std::size_t size_ = 0;
};

} // namespace vmt

#endif // VMT_SIM_INTERVAL_QUEUE_H
