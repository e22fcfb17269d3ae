#include "server/cluster.h"

#include <algorithm>

#include "state/serializer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vmt {

namespace {

/**
 * Chunking of the parallel thermal path: chunks of at least
 * kThermalMinGrain servers, coarse enough that a fleet splits into at
 * most kThermalMaxChunks of them — below that a chunk's dispatch
 * costs more than its work (bench/perf_kernel's crossover table).
 * The grain depends on the fleet size only, never on the thread
 * count, so chunk boundaries — and therefore every per-chunk
 * computation — are reproducible across pool sizes.
 */
constexpr std::size_t kThermalMinGrain = 64;
constexpr std::size_t kThermalMaxChunks = 16;

std::size_t
thermalGrain(std::size_t num_servers)
{
    return std::max(kThermalMinGrain,
                    (num_servers + kThermalMaxChunks - 1) /
                        kThermalMaxChunks);
}

/** Parallelize per-server work for this many servers? */
bool
useParallelPath(std::size_t num_servers)
{
    return num_servers >= thermalParallelThreshold() &&
           globalPool().size() > 1;
}

} // namespace

Cluster::Cluster(std::size_t num_servers, const ServerSpec &spec,
                 const ServerThermalParams &thermal,
                 const PowerModel &power,
                 const std::vector<Kelvin> &inlet_offsets)
    : spec_(spec),
      thermal_(thermal),
      power_(power)
{
    if (num_servers == 0)
        fatal("Cluster requires at least one server");
    if (!inlet_offsets.empty() && inlet_offsets.size() != num_servers)
        fatal("Cluster inlet_offsets must be empty or one per server");

    // First, so every server's estimator can share its table.
    soa_ = std::make_unique<ThermalSoA>(thermal, num_servers);
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i) {
        const Kelvin offset =
            inlet_offsets.empty() ? 0.0 : inlet_offsets[i];
        servers_.emplace_back(i, spec, thermal, offset,
                              &soa_->estimator());
    }
    totalCores_ = num_servers * spec.cores();
    aliveServers_ = num_servers;

    for (std::size_t i = 0; i < num_servers; ++i)
        servers_[i].bindSoa(soa_.get(), i);
    powerDirty_.assign((num_servers + 63) / 64, 0);
    markAllPowerDirty();
}

void
Cluster::markPowerDirty(std::size_t id)
{
    powerDirty_[id >> 6] |= std::uint64_t{1} << (id & 63);
}

void
Cluster::markAllPowerDirty()
{
    for (std::uint64_t &word : powerDirty_)
        word = ~std::uint64_t{0};
}

void
Cluster::refreshPowerArray()
{
    // Walk set bits only: between steps, only servers whose draw
    // could have changed (job churn, health, throttle, mutable
    // access) are re-read. Failed servers get 0 W written directly —
    // the same value Server::refreshPowerCache produces.
    for (std::size_t w = 0; w < powerDirty_.size(); ++w) {
        std::uint64_t word = powerDirty_[w];
        powerDirty_[w] = 0;
        while (word != 0) {
            const auto bit = static_cast<std::size_t>(
                __builtin_ctzll(word));
            word &= word - 1;
            const std::size_t id = (w << 6) + bit;
            if (id >= servers_.size())
                break;
            soa_->setPower(id, soa_->failed(id)
                                   ? 0.0
                                   : servers_[id].power(power_));
        }
    }
}

void
Cluster::setHealth(std::size_t server_id, ServerHealth health)
{
    if (server_id >= servers_.size())
        panic("Cluster::setHealth out of range");
    Server &srv = servers_[server_id];
    const bool was_alive = srv.alive();
    srv.setHealth(health);
    const bool is_alive = srv.alive();
    if (was_alive && !is_alive)
        --aliveServers_;
    else if (!was_alive && is_alive)
        ++aliveServers_;
    // A health flip changes the server's power draw (Failed = 0 W) —
    // and only that server's, so only its gather entry goes stale.
    totalPowerCache_.reset();
    markPowerDirty(server_id);
    ++capacityEpoch_;
}

Server &
Cluster::server(std::size_t id)
{
    if (id >= servers_.size())
        panic("Cluster::server out of range");
    // Mutable access can change a server's job mix behind the
    // cluster's back; conservatively drop the aggregate cache and the
    // gathered power for this one server. (Read-only scans should use
    // the const overload precisely to avoid this.)
    totalPowerCache_.reset();
    markPowerDirty(id);
    ++capacityEpoch_;
    return servers_[id];
}

const Server &
Cluster::server(std::size_t id) const
{
    if (id >= servers_.size())
        panic("Cluster::server out of range");
    return servers_[id];
}

void
Cluster::addJob(std::size_t server_id, WorkloadType type)
{
    if (server_id >= servers_.size())
        panic("Cluster::addJob out of range");
    totalPowerCache_.reset();
    markPowerDirty(server_id);
    servers_[server_id].addJob(type);
    ++active_[workloadIndex(type)];
    ++busyCores_;
}

void
Cluster::removeJob(std::size_t server_id, WorkloadType type)
{
    if (server_id >= servers_.size())
        panic("Cluster::removeJob out of range");
    totalPowerCache_.reset();
    markPowerDirty(server_id);
    ++capacityEpoch_;
    servers_[server_id].removeJob(type);
    auto &count = active_[workloadIndex(type)];
    if (count == 0)
        panic("Cluster::removeJob underflow");
    --count;
    --busyCores_;
}

Watts
Cluster::totalPower() const
{
    if (totalPowerCache_)
        return *totalPowerCache_;
    // Per-server powers are cached in the servers themselves, so this
    // is a pure serial index-order reduction over cached loads —
    // bitwise identical to the historical serial recompute path (the
    // old parallel fan-out reduced in the same order over the same
    // values, so dropping it changes nothing).
    Watts total = 0.0;
    for (const Server &srv : servers_)
        total += srv.power(power_);
    totalPowerCache_ = total;
    return total;
}

ClusterSample
Cluster::stepThermal(Seconds dt, Celsius hot_threshold)
{
    totalPowerCache_.reset();
    ++capacityEpoch_; // Estimated melt moves below.
    const std::size_t n = servers_.size();

    // Gather stale power entries, then batch-step. Per-server values
    // are independent of the chunk boundaries.
    refreshPowerArray();
    soa_->beginStep(dt);
    if (useParallelPath(n)) {
        parallelFor(globalPool(), 0, n, thermalGrain(n),
                    [&](std::size_t begin, std::size_t end) {
                        soa_->stepChunk(begin, end);
                    });
    } else {
        soa_->stepChunk(0, n);
    }

    // Serial index-order throttle sync + reduction: the identical
    // expression shapes (and order) as the per-object oracle's
    // accumulation (tests/reference/), so the sample is bitwise the
    // same. The hysteresis test reads the SoA throttle mirror so the
    // scan stays on contiguous memory; only actual flips (rare) touch
    // the scattered Server objects.
    ClusterSample agg;
    const ThermalSoA &soa = *soa_;
    // Pure reduction first, throttle scan second: the reduction body
    // is then call-free straight-line code, so the accumulators live
    // in registers for the whole sweep (applyThrottle in the same
    // loop would clobber memory every iteration as far as the
    // compiler knows). n >= 1 (ThermalSoA enforces it), so seeding
    // the running max with server 0 matches the per-object
    // accumulation's first-iteration behaviour exactly.
    agg.maxAirTemp = soa.airTemp(0);
    for (std::size_t i = 0; i < n; ++i) {
        const Watts wax_flow = soa.waxFlow(i);
        const Watts rejected = soa.power(i) - wax_flow;
        const Celsius air = soa.airTemp(i);
        agg.totalPower += rejected + wax_flow;
        agg.coolingLoad += rejected;
        agg.waxHeatFlow += wax_flow;
        agg.meanAirTemp += air;
        agg.meanMeltFraction += soa.meltFraction(i);
        if (air > agg.maxAirTemp)
            agg.maxAirTemp = air;
        if (air >= hot_threshold)
            ++agg.serversAboveThreshold;
    }

    // Hysteresis scan over the contiguous CPU-temperature and
    // throttle-mirror arrays; only actual flips (rare) touch the
    // scattered Server objects. Skipped outright when no flip is
    // possible: nobody is throttled (so no releases) and either
    // throttling is disabled or no CPU reached the limit (so no
    // onsets) — max is exact, so the gate is, too.
    const Celsius cpu_limit = thermal_.cpuLimit;
    const Celsius cpu_release =
        thermal_.cpuLimit - thermal_.throttleHysteresis;
    const bool can_throttle = thermal_.throttleFactor < 1.0;
    if (soa.anyThrottled() ||
        (can_throttle && soa.maxCpuTemp() >= cpu_limit)) {
        for (std::size_t i = 0; i < n; ++i) {
            const bool was_throttled = soa.throttled(i);
            const Celsius cpu = soa.cpuTemp(i);
            const bool may_flip =
                was_throttled ? cpu < cpu_release
                              : (cpu >= cpu_limit && can_throttle);
            bool now_throttled = was_throttled;
            if (may_flip && servers_[i].applyThrottle(cpu)) {
                now_throttled = !was_throttled;
                soa_->setThrottled(i, now_throttled);
                markPowerDirty(i);
            }
            if (now_throttled)
                ++agg.throttledServers;
        }
    }
    const auto count = static_cast<double>(n);
    agg.meanAirTemp /= count;
    agg.meanMeltFraction /= count;
    return agg;
}

void
Cluster::setBaseInlet(Celsius inlet)
{
    thermal_.inletTemp = inlet;
    for (Server &srv : servers_)
        srv.setBaseInlet(inlet);
}

void
Cluster::setBaseInlet(std::size_t server_id, Celsius inlet)
{
    if (server_id >= servers_.size())
        panic("Cluster::setBaseInlet out of range");
    // Direct access, not server(): an inlet change affects thermal
    // state only, so neither the total-power cache nor the gathered
    // power entry needs invalidating (previously this went through
    // the mutable accessor and dropped the power cache every call —
    // once per server per interval under recirculation modelling).
    servers_[server_id].setBaseInlet(inlet);
}

void
Cluster::saveState(Serializer &out) const
{
    out.putSize(servers_.size());
    out.putSize(busyCores_);
    for (std::size_t count : active_)
        out.putSize(count);
    out.putDouble(thermal_.inletTemp);
    for (const Server &srv : servers_)
        srv.saveState(out);
}

void
Cluster::loadState(Deserializer &in)
{
    const std::size_t num_servers = in.getSize();
    if (num_servers != servers_.size())
        fatal("Cluster::loadState: snapshot has " +
              std::to_string(num_servers) + " servers, cluster has " +
              std::to_string(servers_.size()));
    busyCores_ = in.getSize();
    for (std::size_t &count : active_)
        count = in.getSize();
    thermal_.inletTemp = in.getDouble();
    for (Server &srv : servers_)
        srv.loadState(in);
    totalPowerCache_.reset();
    markAllPowerDirty();
    ++capacityEpoch_;
}

Celsius
Cluster::meanAirTemp(std::size_t count) const
{
    if (count == 0 || count > servers_.size())
        fatal("Cluster::meanAirTemp requires 0 < count <= numServers");
    Celsius sum = 0.0;
    for (std::size_t i = 0; i < count; ++i)
        sum += servers_[i].airTemp();
    return sum / static_cast<double>(count);
}

} // namespace vmt
