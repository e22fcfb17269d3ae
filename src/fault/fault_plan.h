/**
 * @file
 * Scripted fault events and the fault-layer configuration.
 *
 * A FaultPlan is a time-ordered list of infrastructure events —
 * server outages/recoveries and cooling-plant derates — parsed from a
 * small text grammar (one event per line):
 *
 *     # comment
 *     <hours> server-down <id>
 *     <hours> server-up <id>
 *     <hours> cooling-derate <kelvin>
 *     <hours> cooling-restore
 *
 * Times are hours from the start of the run and must be
 * non-decreasing. Scripted events compose with stochastic failures
 * drawn from the FailureModel rates (see FaultConfig::mtbf) inside
 * FaultEngine.
 */

#ifndef VMT_FAULT_FAULT_PLAN_H
#define VMT_FAULT_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace vmt {

/** One scripted infrastructure event. */
enum class FaultEventType : std::uint8_t {
    /** Hard server failure: jobs evacuated, server draws 0 W. */
    ServerDown = 0,
    /** Scripted repair: the server rejoins the eligible set. */
    ServerUp = 1,
    /** CRAC derate: supply air rises by the given delta (absolute,
     *  not cumulative — the latest derate wins). */
    CoolingDerate = 2,
    /** CRAC back at capacity: supply rise returns to zero. */
    CoolingRestore = 3,
};

/** Human-readable keyword for an event type (the grammar token). */
const char *faultEventTypeName(FaultEventType type);

/** One entry of a FaultPlan. */
struct FaultEvent
{
    /** When the event fires (seconds from run start; applied at the
     *  first interval boundary at or after this time). */
    Seconds time = 0.0;
    FaultEventType type = FaultEventType::ServerDown;
    /** Target server for ServerDown/ServerUp; unused otherwise. */
    std::size_t serverId = 0;
    /** Supply-air rise for CoolingDerate; unused otherwise. */
    Kelvin supplyRise = 0.0;
};

/** A time-ordered list of scripted fault events. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Wrap explicit events; must be sorted by time (fatal if not). */
    explicit FaultPlan(std::vector<FaultEvent> events);

    /**
     * Parse the event grammar from text.
     * @param text The plan body.
     * @param origin Name used in error messages (e.g. a file path).
     * @throws FatalError naming origin and line on any malformed row.
     */
    static FaultPlan parse(const std::string &text,
                           const std::string &origin = "<fault-plan>");

    /** Parse a plan file from disk (fatal when unreadable). */
    static FaultPlan loadFile(const std::string &path);

    /**
     * Project this plan onto one shard of a partitioned fleet:
     * server events targeting global ids in [first, first + count)
     * are kept with the id remapped to shard-local space, server
     * events outside the range are dropped, and cooling events
     * (plant-level, so they hit every shard) are kept verbatim.
     * Event order — and therefore the sorted invariant — is
     * preserved. Used by the serving driver to run one FaultEngine
     * per pod against a fleet-global plan.
     */
    FaultPlan shardSlice(std::size_t first, std::size_t count) const;

    const std::vector<FaultEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

  private:
    std::vector<FaultEvent> events_;
};

/**
 * Configuration of the fault layer for one run. The layer activates
 * when enabled() is true; a default-constructed FaultConfig leaves
 * the driver on the exact pre-fault code path.
 */
struct FaultConfig
{
    /**
     * Master switch: run the fault engine even with no plan, no
     * stochastic rates and no critical threshold (used to measure the
     * engine's bookkeeping overhead against a disabled run).
     */
    bool enable = false;

    /** Scripted events. */
    FaultPlan plan;

    /**
     * Seed of the fault layer's private Rng. Kept separate from
     * SimConfig::seed so injecting faults never perturbs job
     * durations or inlet offsets — a faulted run differs from the
     * clean run only through the faults themselves.
     */
    std::uint64_t seed = 1;

    /**
     * MTBF (hours) at mtbfRefTemp for stochastic failures; 0 turns
     * stochastic draws off. Each interval every non-failed server
     * draws once against p = failureRate(airTemp) * dt. Use small
     * values (simulation runs are hours, not months) to see events.
     */
    Hours mtbf = 0.0;
    /** Reference temperature of the stochastic MTBF. */
    Celsius mtbfRefTemp = 30.0;
    /** Temperature rise that doubles the stochastic failure rate. */
    Kelvin mtbfDoublingDelta = 10.0;
    /** Repair turnaround for stochastically failed servers (hours). */
    Hours repairTime = 4.0;

    /**
     * Thermal-emergency threshold: a server whose air temperature
     * reaches this is quarantined (sheds new load; resident jobs
     * drain) until it cools criticalRelease below the threshold.
     * 0 disables emergency handling.
     */
    Celsius criticalTemp = 0.0;
    /** Hysteresis band for releasing a quarantined server. */
    Kelvin criticalRelease = 2.0;

    /** True when any part of the fault layer is active. */
    bool enabled() const
    {
        return enable || !plan.empty() || mtbf > 0.0 ||
               criticalTemp > 0.0;
    }
};

class ConfigEcho;
class Flags;

/** The front-ends' --fault-* and --critical-temp flags, read before
 *  any work. @throws FatalError naming a bad flag. */
FaultConfig faultConfigFromFlags(const Flags &flags);

/** The fault echo of the batch FALT and serving DGRD sections
 *  (state/config_echo.h), in two parts: the plan (size, then each
 *  event) and the parameters (seed through criticalRelease). */
void echoFaultPlan(ConfigEcho &echo, const FaultPlan &plan);
void echoFaultParams(ConfigEcho &echo, const FaultConfig &config);

} // namespace vmt

#endif // VMT_FAULT_FAULT_PLAN_H
