#include "server/server.h"

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

Server::Server(std::size_t id, const ServerSpec &spec,
               const ServerThermalParams &thermal_params,
               Kelvin inlet_offset,
               const WaxStateEstimator *table_source)
    : id_(id),
      spec_(spec),
      thermal_(thermal_params, inlet_offset),
      estimator_(table_source ? *table_source
                              : WaxStateEstimator(thermal_params.pcm))
{
    estimator_.reset();
}

void
Server::addJob(WorkloadType type)
{
    if (!hasCapacity())
        panic("Server::addJob on a full server");
    ++counts_[workloadIndex(type)];
    ++busyCores_;
    powerCacheModel_ = nullptr;
}

void
Server::removeJob(WorkloadType type)
{
    auto &count = counts_[workloadIndex(type)];
    if (count == 0)
        panic("Server::removeJob with no such job running");
    --count;
    --busyCores_;
    powerCacheModel_ = nullptr;
}

Watts
Server::power(const PowerModel &model) const
{
    if (&model != powerCacheModel_)
        refreshPowerCache(model);
    return powerCache_;
}

void
Server::refreshPowerCache(const PowerModel &model) const
{
    if (health_ == ServerHealth::Failed) {
        // Powered off: no idle draw, no dynamic draw. The thermal
        // step then lets air decay toward inlet and wax refreeze.
        powerCache_ = 0.0;
        powerCacheModel_ = &model;
        return;
    }
    const Watts nominal = model.serverPower(counts_);
    if (!throttled_) {
        powerCache_ = nominal;
    } else {
        // DVFS trims the dynamic part only; idle power is unaffected.
        const Watts idle = model.spec().idlePower;
        powerCache_ =
            idle + (nominal - idle) * thermal_.params().throttleFactor;
    }
    powerCacheModel_ = &model;
}

Celsius
Server::cpuTemp(const PowerModel &model) const
{
    if (soa_ != nullptr) {
        // Same expression as ServerThermal::cpuTemp against the SoA
        // air temperature.
        return soa_->airTemp(soaIndex_) +
               thermal_.params().cpuRisePerWatt * power(model);
    }
    return thermal_.cpuTemp(power(model));
}

ThermalSample
Server::stepThermal(const PowerModel &model, Seconds dt)
{
    if (soa_ != nullptr)
        panic("Server::stepThermal on a SoA-bound server; the "
              "cluster drives the batched kernel");
    const ThermalSample sample = thermal_.step(power(model), dt);
    // The on-board model reads the container-exterior sensor once per
    // update (Section III-B, "Tracking Wax State").
    estimator_.update(sample.containerTemp, dt);
    applyThrottle(sample.cpuTemp);
    return sample;
}

bool
Server::applyThrottle(Celsius cpu_temp)
{
    const ServerThermalParams &tp = thermal_.params();
    if (!throttled_ && cpu_temp >= tp.cpuLimit &&
        tp.throttleFactor < 1.0) {
        throttled_ = true;
        powerCacheModel_ = nullptr;
        return true;
    }
    if (throttled_ &&
        cpu_temp < tp.cpuLimit - tp.throttleHysteresis) {
        throttled_ = false;
        powerCacheModel_ = nullptr;
        return true;
    }
    return false;
}

void
Server::bindSoa(ThermalSoA *soa, std::size_t index)
{
    soa_ = soa;
    soaIndex_ = index;
    soa->setAirTemp(index, thermal_.airTemp());
    soa->setEnthalpy(index, thermal_.pcm().enthalpy());
    soa->setEstimatedEnthalpy(index, estimator_.estimatedEnthalpy());
    soa->setBaseInlet(index, thermal_.params().inletTemp);
    soa->setInletOffset(index, thermal_.inletOffset());
    soa->setFailed(index, health_ == ServerHealth::Failed);
    soa->setThrottled(index, throttled_);
}

void
Server::saveState(Serializer &out) const
{
    for (std::size_t count : counts_)
        out.putSize(count);
    out.putSize(busyCores_);
    out.putBool(throttled_);
    out.putDouble(thermal_.params().inletTemp);
    // Accessors, not members: while SoA-bound they read the SoA
    // arrays, so bound and standalone servers snapshot alike.
    out.putDouble(airTemp());
    out.putDouble(waxEnthalpy());
    out.putDouble(estimatedWaxEnthalpy());
}

void
Server::loadState(Deserializer &in)
{
    for (std::size_t &count : counts_)
        count = in.getSize();
    busyCores_ = in.getSize();
    throttled_ = in.getBool();
    setBaseInlet(in.getDouble());
    const Celsius air_temp = in.getDouble();
    const Joules wax_enthalpy = in.getDouble();
    const Joules estimated = in.getDouble();
    // Restore both representations: the per-object models (always)
    // and, while bound, the authoritative SoA slot.
    thermal_.restoreState(air_temp, wax_enthalpy);
    estimator_.restoreEnthalpy(estimated);
    if (soa_ != nullptr) {
        soa_->setAirTemp(soaIndex_, air_temp);
        soa_->setEnthalpy(soaIndex_, wax_enthalpy);
        soa_->setEstimatedEnthalpy(soaIndex_, estimated);
        soa_->setThrottled(soaIndex_, throttled_);
    }
    powerCacheModel_ = nullptr;
}

} // namespace vmt
