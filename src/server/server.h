/**
 * @file
 * One PCM-enabled server: core slots, running-job mix, thermal state
 * and the on-board wax-state estimator the cluster scheduler reads
 * (Section III-B, "Tracking Wax State").
 */

#ifndef VMT_SERVER_SERVER_H
#define VMT_SERVER_SERVER_H

#include <cstddef>
#include <cstdint>

#include "server/power_model.h"
#include "server/server_spec.h"
#include "thermal/pcm_kernel.h"
#include "thermal/server_thermal.h"
#include "thermal/thermal_soa.h"
#include "thermal/wax_state_estimator.h"
#include "util/units.h"
#include "workload/workload.h"

namespace vmt {

class Serializer;
class Deserializer;

/**
 * Operational state of a server under the fault layer (src/fault/).
 *
 * Up          — powered and eligible for placement.
 * Failed      — powered off (0 W); jobs evacuated, nothing placeable.
 * Quarantined — thermal emergency: powered (idle + residual load
 *               drains) but excluded from new placement until the air
 *               temperature drops back below the release threshold.
 */
enum class ServerHealth : std::uint8_t {
    Up = 0,
    Failed = 1,
    Quarantined = 2,
};

/** A single simulated server. */
class Server
{
  public:
    /**
     * @param id Server index within the cluster.
     * @param spec Hardware configuration.
     * @param thermal_params Thermal constants.
     * @param inlet_offset Per-server inlet temperature deviation.
     * @param table_source When set, the wax-state estimator shares
     *        this (same-wax) estimator's table instead of building one.
     */
    Server(std::size_t id, const ServerSpec &spec,
           const ServerThermalParams &thermal_params,
           Kelvin inlet_offset = 0.0,
           const WaxStateEstimator *table_source = nullptr);

    /** Cluster-wide index. */
    std::size_t id() const { return id_; }

    /** Total core slots. */
    std::size_t cores() const { return spec_.cores(); }

    /** Unoccupied core slots. */
    std::size_t freeCores() const { return cores() - busyCores_; }

    /** Occupied core slots. */
    std::size_t busyCores() const { return busyCores_; }

    /**
     * True when at least one core is free AND the server accepts new
     * work. Every placement policy gates on this, so Failed and
     * Quarantined servers drop out of the eligible set without
     * policy-specific handling.
     */
    bool hasCapacity() const
    {
        return health_ == ServerHealth::Up && busyCores_ < cores();
    }

    /** Operational state under the fault layer. */
    ServerHealth health() const { return health_; }

    /** True unless the server is Failed (Quarantined is still on). */
    bool alive() const { return health_ != ServerHealth::Failed; }

    /**
     * Change operational state. A Failed server draws 0 W (the driver
     * evacuates its jobs first); coming back Up re-enables placement.
     * Invalidates the power cache.
     */
    void setHealth(ServerHealth health)
    {
        health_ = health;
        powerCacheModel_ = nullptr;
        if (soa_ != nullptr)
            soa_->setFailed(soaIndex_,
                            health_ == ServerHealth::Failed);
    }

    /** Running jobs per workload type. */
    const CoreCounts &coreCounts() const { return counts_; }

    /** Occupy one core with a job of the given type. */
    void addJob(WorkloadType type);

    /** Release one core of the given type. */
    void removeJob(WorkloadType type);

    /**
     * Instantaneous power under the given model, including any
     * active thermal throttling.
     *
     * The value is cached and invalidated only on addJob/removeJob
     * and throttle transitions, so the steady-state cost is one load
     * instead of a per-workload multiply-add reduction. The cache is
     * keyed on the model's address (the cluster passes its one shared
     * model on every call); passing a different model recomputes. The
     * cached value is produced by exactly the same expression as the
     * uncached computation, so results are bitwise identical.
     */
    Watts power(const PowerModel &model) const;

    /** True while the server is thermally throttled (DVFS
     *  downclocked because the CPU junction hit its limit). */
    bool throttled() const { return throttled_; }

    /** Estimated CPU junction temperature right now. */
    Celsius cpuTemp(const PowerModel &model) const;

    /**
     * Advance thermal state by dt at the server's current power.
     * Also feeds the wax-state estimator with the container sensor.
     * Panics while SoA-bound — the Cluster drives the batched kernel
     * instead; this per-object step serves standalone servers and
     * the thermal oracle in tests/reference/.
     */
    ThermalSample stepThermal(const PowerModel &model, Seconds dt);

    /**
     * Apply the thermal-limit hysteresis for a step that produced the
     * given CPU temperature: downclock when the junction hits the
     * limit, recover once it cools off. Called by stepThermal and by
     * the SoA reduction (the single source of the throttle logic).
     * @return True when the throttle latch flipped (power changed).
     */
    bool applyThrottle(Celsius cpu_temp);

    /** Air temperature at the wax (the heatmap quantity). */
    Celsius airTemp() const
    {
        return soa_ != nullptr ? soa_->airTemp(soaIndex_)
                               : thermal_.airTemp();
    }

    /** Ground-truth melt fraction (the simulator's knowledge). */
    double waxMeltFraction() const
    {
        return soa_ != nullptr
                   ? pcmMeltFraction(soa_->derived(),
                                     soa_->enthalpy(soaIndex_))
                   : thermal_.pcm().meltFraction();
    }

    /** The melt-fraction estimate the scheduler is allowed to see. */
    double estimatedMeltFraction() const
    {
        return soa_ != nullptr
                   ? soa_->estimatedEnthalpy(soaIndex_) /
                         soa_->derived().latentCap
                   : estimator_.estimate();
    }

    /** Ground-truth latent energy stored in the wax. */
    Joules waxEnergyStored() const
    {
        return soa_ != nullptr
                   ? waxMeltFraction() * soa_->derived().latentCap
                   : thermal_.pcm().latentEnergyStored();
    }

    /** Ground-truth wax enthalpy (checkpoint quantity). */
    Joules waxEnthalpy() const
    {
        return soa_ != nullptr ? soa_->enthalpy(soaIndex_)
                               : thermal_.pcm().enthalpy();
    }

    /** The estimator's integrated enthalpy (checkpoint quantity). */
    Joules estimatedWaxEnthalpy() const
    {
        return soa_ != nullptr ? soa_->estimatedEnthalpy(soaIndex_)
                               : estimator_.estimatedEnthalpy();
    }

    /**
     * Thermal model (read-only). While SoA-bound, the air node, wax
     * enthalpy and estimator inside lag the SoA arrays — read dynamic
     * state through the Server accessors above; static configuration
     * (params(), inletTemp(), inletOffset()) stays authoritative
     * here.
     */
    const ServerThermal &thermal() const { return thermal_; }

    /** Propagate a cold-aisle inlet change (cooling feedback). */
    void setBaseInlet(Celsius inlet)
    {
        thermal_.setBaseInlet(inlet);
        if (soa_ != nullptr)
            soa_->setBaseInlet(soaIndex_, inlet);
    }

    /**
     * Attach this server to slot `index` of a ThermalSoA, seeding the
     * slot from the per-object state. While bound, the SoA arrays are
     * authoritative for air temperature, wax enthalpy and the
     * estimator state; the accessors above redirect. Binding is for
     * the server's lifetime (the owning Cluster binds at
     * construction).
     */
    void bindSoa(ThermalSoA *soa, std::size_t index);

    /**
     * Checkpoint the server's dynamic state: job mix, throttle latch,
     * base inlet, air temperature, wax enthalpy and the estimator's
     * drift state. The power cache is not saved — loadState
     * invalidates it and the recompute is bitwise identical.
     */
    void saveState(Serializer &out) const;
    void loadState(Deserializer &in);

  private:
    /** Recompute the power cache against the given model. */
    void refreshPowerCache(const PowerModel &model) const;

    std::size_t id_;
    ServerSpec spec_;
    ServerThermal thermal_;
    WaxStateEstimator estimator_;
    /** Non-null while the cluster's SoA kernel owns the dynamic
     *  thermal state (see bindSoa). */
    ThermalSoA *soa_ = nullptr;
    std::size_t soaIndex_ = 0;
    CoreCounts counts_{};
    std::size_t busyCores_ = 0;
    bool throttled_ = false;
    // Not serialized in saveState (that layout is pinned by snapshot
    // v1 compatibility); the fault engine persists health in the FALT
    // section instead.
    ServerHealth health_ = ServerHealth::Up;

    // Power cache (see power()). nullptr means stale. Mutable so the
    // logically-const power() can fill it; safe under the chunked
    // parallel thermal path because each server is touched by exactly
    // one thread per fan-out (verified by the TSan'd ctest -L
    // parallel suite).
    mutable const PowerModel *powerCacheModel_ = nullptr;
    /** Power including any active throttling (what power() returns). */
    mutable Watts powerCache_ = 0.0;
};

} // namespace vmt

#endif // VMT_SERVER_SERVER_H
