#include "checks.h"

#include <cstring>
#include <sstream>

namespace vmtbench {

namespace {

class Fnv
{
  public:
    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    void add(std::uint64_t value) { bytes(&value, sizeof value); }
    void add(const std::string &text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        bytes(text.data(), text.size());
    }
    void add(const vmt::TimeSeries &series)
    {
        add(static_cast<std::uint64_t>(series.size()));
        for (const double v : series.values())
            add(v);
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << value;
    return out.str();
}

void
expectEqual(const char *identity, std::uint64_t lhs, std::uint64_t rhs,
            std::vector<std::string> &errors)
{
    if (lhs != rhs)
        errors.push_back(std::string(identity) + ": " +
                         std::to_string(lhs) +
                         " != " + std::to_string(rhs));
}

struct RecordedReference
{
    const char *workload;
    Reference reference;
};

// Recorded at kDefaultSeed with the unwrapped library entry points
// (RelWithDebInfo, GCC 12.2); simulated statistics are bitwise
// identical at any thread count.
const RecordedReference kReferences[] = {
    {"sim-wa-1k", {0x0a24465c1dd67f21ULL, std::nullopt}},
    {"sim-rr-1k", {0x55794ea2738e62c2ULL, std::nullopt}},
    {"serve-10k-day", {0xc96ec8e6d867e6bdULL, 0x1802463ffa2076f6ULL}},
    {"serve-10k-outage", {0x832768b3b2456815ULL, 0x5a5b5b5617fa1764ULL}},
};

} // namespace

std::uint64_t
digestBatch(const vmt::SimResult &r)
{
    Fnv h;
    h.add(r.schedulerName);
    for (const vmt::TimeSeries *series :
         {&r.coolingLoad, &r.totalPower, &r.waxHeatFlow, &r.meanAirTemp,
          &r.hotGroupTemp, &r.hotGroupSizeSeries, &r.meanMeltFraction,
          &r.utilization, &r.inletTemp, &r.aliveServers})
        h.add(*series);
    h.add(r.peakCoolingLoad);
    h.add(r.peakPower);
    h.add(r.maxMeltFraction);
    h.add(r.maxAirTemp);
    for (const std::uint64_t count :
         {r.overheatedServerIntervals, r.throttledServerIntervals,
          r.droppedJobs, r.migrations, r.placedJobs, r.evacuatedJobs,
          r.lostJobs, r.criticalServerIntervals})
        h.add(count);
    return h.value();
}

std::uint64_t
digestServe(const vmt::serve::ServeResult &r)
{
    Fnv h;
    h.add(r.schedulerName);
    for (const std::uint64_t count :
         {std::uint64_t{r.shards}, std::uint64_t{r.completedIntervals},
          std::uint64_t{r.resumedIntervals}, r.arrivals, r.admitted,
          r.shed, r.requeued, r.placed, r.droppedJobs, r.completedJobs,
          std::uint64_t{r.degraded}, r.evacuatedJobs, r.migratedJobs,
          r.lostJobs, r.expiredJobs, r.checkpointFailures,
          std::uint64_t{r.failedServers},
          std::uint64_t{r.quarantinedServers},
          std::uint64_t{r.maxBrownoutLevel}, r.brownoutIntervals,
          std::uint64_t{r.finalQueueDepth},
          std::uint64_t{r.peakQueueDepth},
          std::uint64_t{r.finalInFlight}, r.overheatedServerIntervals,
          std::uint64_t{r.stopped}, std::uint64_t{r.feedExhausted}})
        h.add(count);
    h.add(r.peakCoolingLoad);
    h.add(r.peakPower);
    h.add(r.maxAirTemp);
    h.add(r.maxMeltFraction);
    return h.value();
}

std::uint64_t
digestText(const std::string &text)
{
    Fnv h;
    h.bytes(text.data(), text.size());
    return h.value();
}

void
checkBatchIdentities(const vmt::SimResult &result,
                     const TimedScheduler &scheduler,
                     std::vector<std::string> &errors)
{
    expectEqual("placed + dropped = generated",
                result.placedJobs + result.droppedJobs,
                scheduler.jobs(), errors);
    expectEqual("placed = decorator placed", result.placedJobs,
                scheduler.placed(), errors);
}

void
checkServeIdentities(const vmt::serve::ServeResult &r,
                     std::uint64_t delivered,
                     std::vector<std::string> &errors)
{
    expectEqual("arrivals = admitted + shed + expired + queue",
                r.arrivals,
                r.admitted + r.shed + r.expiredJobs + r.finalQueueDepth,
                errors);
    expectEqual("placed = completed + in-flight + lost", r.placed,
                r.completedJobs + r.finalInFlight + r.lostJobs, errors);
    expectEqual("evacuated = migrated + lost", r.evacuatedJobs,
                r.migratedJobs + r.lostJobs, errors);
    expectEqual("arrivals = feed deliveries", r.arrivals, delivered,
                errors);
}

std::optional<Reference>
findReference(const WorkloadSpec &spec, std::uint64_t seed)
{
    if (!spec.fullSize || seed != kDefaultSeed)
        return std::nullopt;
    for (const RecordedReference &r : kReferences)
        if (spec.name == r.workload)
            return r.reference;
    return std::nullopt;
}

std::vector<std::string>
checkOp(const OpResult &op, const std::optional<Reference> &reference,
        const OpResult *first)
{
    std::vector<std::string> failures = op.errors;
    if (reference && op.digest != reference->digest)
        failures.push_back("statistics digest " + hex(op.digest) +
                           " != reference " + hex(reference->digest));
    if (reference && reference->telemetry && op.telemetryDigest &&
        *op.telemetryDigest != *reference->telemetry)
        failures.push_back("telemetry digest " +
                           hex(*op.telemetryDigest) + " != reference " +
                           hex(*reference->telemetry));
    if (first && op.digest != first->digest)
        failures.push_back("statistics digest " + hex(op.digest) +
                           " differs from the run's first op " +
                           hex(first->digest));
    return failures;
}

} // namespace vmtbench
