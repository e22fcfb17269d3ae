/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into the simulator's layers (the scheduler decorator, the
 * feed wrapper and the interval observer); nothing inside the
 * libraries is instrumented. Spans stay in memory and are written
 * once, when the benchmark exits.
 */

#ifndef VMTBENCH_TRACING_H
#define VMTBENCH_TRACING_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace vmtbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::int64_t start, std::int64_t end)
{
    return static_cast<double>(end - start) * 1e-9;
}

/** Sentinel for spans with no causing span / no interval. */
inline constexpr std::int32_t kNoParent = -1;
inline constexpr std::int64_t kNoInterval = -1;

/** One timed call or gap at a layer boundary. */
struct Span
{
    /** Layer span name (a string literal). */
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the causing span, or kNoParent. */
    std::int32_t parent = kNoParent;
    /** Simulated interval the span belongs to, or kNoInterval. */
    std::int64_t interval = kNoInterval;
};

/** Append-only span store for one traced op. */
class Tracer
{
  public:
    /** Record a span; returns its index (for use as a parent). */
    std::int32_t add(const char *name, std::int64_t start,
                     std::int64_t end, std::int32_t parent,
                     std::int64_t interval);

    /** Re-time a span recorded earlier (roots are opened before
     *  their children and closed after them). */
    void setEnd(std::int32_t span, std::int64_t end);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name in seconds: each span's duration minus
     * the time its direct children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Total duration per span name in seconds. */
    std::map<std::string, double> totalSeconds() const;

    /** One JSON object per span, tagged with @p op. */
    void writeJsonl(std::ostream &out, const std::string &op) const;

  private:
    std::vector<Span> spans_;
};

} // namespace vmtbench

#endif // VMTBENCH_TRACING_H
