#include "reference/scalar_thermal.h"

#include <sstream>

#include "state/serializer.h"
#include "state/snapshot.h"
#include "thermal/thermal_kernel.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt::reference {

namespace {

/** Cluster's fixed parallel chunk size (never derived from the thread
 *  count, so per-chunk work is reproducible across pool sizes). */
constexpr std::size_t kThermalGrain = 64;

} // namespace

ScalarThermal::ScalarThermal(const Cluster &cluster)
    : power_(cluster.powerModel()),
      baseInlet_(cluster.thermalParams().inletTemp)
{
    servers_.reserve(cluster.numServers());
    for (std::size_t i = 0; i < cluster.numServers(); ++i)
        servers_.emplace_back(i, power_.spec(), cluster.thermalParams(),
                              cluster.server(i).thermal().inletOffset());
    Serializer out;
    cluster.saveState(out);
    Deserializer in(out.bytes());
    loadState(in);
    in.expectEnd();
    for (std::size_t i = 0; i < servers_.size(); ++i)
        servers_[i].setHealth(cluster.server(i).health());
}

void
ScalarThermal::syncInputs(const Cluster &cluster)
{
    baseInlet_ = cluster.thermalParams().inletTemp;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        const Server &src = cluster.server(i);
        Server &dst = servers_[i];
        const CoreCounts &want = src.coreCounts();
        for (const WorkloadType type : kAllWorkloads) {
            while (dst.coreCounts()[workloadIndex(type)] >
                   want[workloadIndex(type)])
                dst.removeJob(type);
        }
        // addJob requires an Up server; the real health is restored
        // right after (it only gates placement and zeroes power).
        dst.setHealth(ServerHealth::Up);
        for (const WorkloadType type : kAllWorkloads) {
            while (dst.coreCounts()[workloadIndex(type)] <
                   want[workloadIndex(type)])
                dst.addJob(type);
        }
        dst.setHealth(src.health());
        dst.setBaseInlet(src.thermal().params().inletTemp);
    }
}

ClusterSample
ScalarThermal::step(Seconds dt, Celsius hot_threshold)
{
    ClusterSample agg;
    bool first = true;
    const auto accumulate = [&](const ThermalSample &s,
                                const Server &srv) {
        agg.totalPower += s.rejectedPower + s.waxHeatFlow;
        agg.coolingLoad += s.rejectedPower;
        agg.waxHeatFlow += s.waxHeatFlow;
        agg.meanAirTemp += s.airTemp;
        agg.meanMeltFraction += srv.waxMeltFraction();
        if (first || s.airTemp > agg.maxAirTemp)
            agg.maxAirTemp = s.airTemp;
        first = false;
        if (s.airTemp >= hot_threshold)
            ++agg.serversAboveThreshold;
        if (srv.throttled())
            ++agg.throttledServers;
    };

    if (servers_.size() >= thermalParallelThreshold() &&
        globalPool().size() > 1) {
        // Servers are thermally independent within a step, so the
        // RC/PCM integration fans out; the floating-point reduction
        // stays serial and in server-index order.
        stepScratch_.resize(servers_.size());
        parallelFor(globalPool(), 0, servers_.size(), kThermalGrain,
                    [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                            stepScratch_[i] =
                                servers_[i].stepThermal(power_, dt);
                    });
        for (std::size_t i = 0; i < servers_.size(); ++i)
            accumulate(stepScratch_[i], servers_[i]);
    } else {
        for (Server &srv : servers_)
            accumulate(srv.stepThermal(power_, dt), srv);
    }
    const auto n = static_cast<double>(servers_.size());
    agg.meanAirTemp /= n;
    agg.meanMeltFraction /= n;
    return agg;
}

Watts
ScalarThermal::totalPower() const
{
    Watts total = 0.0;
    for (const Server &srv : servers_)
        total += srv.power(power_);
    return total;
}

void
ScalarThermal::saveState(Serializer &out) const
{
    std::size_t busy = 0;
    CoreCounts active{};
    for (const Server &srv : servers_) {
        busy += srv.busyCores();
        for (std::size_t k = 0; k < kNumWorkloads; ++k)
            active[k] += srv.coreCounts()[k];
    }
    out.putSize(servers_.size());
    out.putSize(busy);
    for (std::size_t count : active)
        out.putSize(count);
    out.putDouble(baseInlet_);
    for (const Server &srv : servers_)
        srv.saveState(out);
}

void
ScalarThermal::loadState(Deserializer &in)
{
    const std::size_t num_servers = in.getSize();
    if (num_servers != servers_.size())
        fatal("ScalarThermal::loadState: snapshot has " +
              std::to_string(num_servers) + " servers, oracle has " +
              std::to_string(servers_.size()));
    in.getSize(); // Busy cores and job counts follow from the servers.
    for (std::size_t k = 0; k < kNumWorkloads; ++k)
        in.getSize();
    baseInlet_ = in.getDouble();
    for (Server &srv : servers_)
        srv.loadState(in);
}

std::string
describeDivergence(const Cluster &cluster, const ScalarThermal &oracle)
{
    std::ostringstream out;
    out.precision(17);
    const auto differ = [&out](std::size_t id, const char *what,
                               auto soa, auto scalar) {
        if (soa == scalar)
            return false;
        out << "server " << id << " " << what << ": cluster " << soa
            << ", oracle " << scalar;
        return true;
    };
    for (std::size_t i = 0; i < oracle.numServers(); ++i) {
        const Server &a = cluster.server(i);
        const Server &b = oracle.server(i);
        if (differ(i, "air temp", a.airTemp(), b.airTemp()) ||
            differ(i, "wax enthalpy", a.waxEnthalpy(),
                   b.waxEnthalpy()) ||
            differ(i, "melt fraction", a.waxMeltFraction(),
                   b.waxMeltFraction()) ||
            differ(i, "estimated enthalpy", a.estimatedWaxEnthalpy(),
                   b.estimatedWaxEnthalpy()) ||
            differ(i, "throttled", a.throttled(), b.throttled()) ||
            differ(i, "health", static_cast<int>(a.health()),
                   static_cast<int>(b.health())) ||
            differ(i, "power", a.power(cluster.powerModel()),
                   b.power(oracle.powerModel())))
            break;
    }
    return out.str();
}

void
ThermalLockstep::attach(SimConfig &config, const std::string &snapshot)
{
    dt_ = config.interval;
    hotThreshold_ = config.overheatTemp;
    config.restoreHook = [this, inner = config.restoreHook,
                          snapshot](SimState &state) {
        const std::size_t skip = inner ? inner(state) : 0;
        oracle_.emplace(state.cluster);
        if (!snapshot.empty()) {
            const SnapshotReader reader(snapshot);
            Deserializer clus = reader.section("CLUS");
            oracle_->loadState(clus);
            clus.expectEnd();
        }
        return skip;
    };
}

SimObserver
ThermalLockstep::observer()
{
    return [this](const Cluster &cluster, std::size_t) {
        // Between the driver's thermal step and this callback nothing
        // changes the cluster, so its job mix, health and inlets are
        // exactly the inputs its step used.
        oracle_->syncInputs(cluster);
        samples_.push_back(oracle_->step(dt_, hotThreshold_));
        if (divergence_.empty())
            divergence_ = describeDivergence(cluster, *oracle_);
    };
}

} // namespace vmt::reference
