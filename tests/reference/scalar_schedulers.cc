#include "reference/scalar_schedulers.h"

#include <algorithm>
#include <utility>

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt::reference {

// ---- Coolest first ----

void
ScalarCoolestFirst::beginInterval(Cluster &cluster, Seconds)
{
    pq_ = {};
    for (std::size_t id = 0; id < cluster.numServers(); ++id)
        pq_.push({std::as_const(cluster).server(id).airTemp(), id});
}

std::size_t
ScalarCoolestFirst::placeJob(Cluster &cluster, const Job &job)
{
    const Watts core_power = cluster.powerModel().corePower(job.type);
    while (!pq_.empty()) {
        HeapEntry entry = pq_.top();
        pq_.pop();
        const Server &srv = std::as_const(cluster).server(entry.id);
        if (!srv.hasCapacity())
            continue;
        entry.temp +=
            cluster.thermalParams().airRisePerWatt * core_power;
        pq_.push(entry);
        return srv.id();
    }
    return kNoServer;
}

// ---- VMT-TA ----

ScalarVmtTa::ScalarVmtTa(const VmtConfig &config,
                         const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

void
ScalarVmtTa::beginInterval(Cluster &cluster, Seconds)
{
    hotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());
    hotGroup_.clear();
    coldGroup_.clear();
    for (std::size_t id = 0; id < cluster.numServers(); ++id) {
        if (id < hotSize_)
            hotGroup_.add(cluster, id);
        else
            coldGroup_.add(cluster, id);
    }
    initialized_ = true;
}

std::size_t
ScalarVmtTa::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0);
    const Watts watts = cluster.powerModel().corePower(job.type);
    const bool hot = hotMask_[workloadIndex(job.type)];
    BalancedGroup &primary = hot ? hotGroup_ : coldGroup_;
    BalancedGroup &fallback = hot ? coldGroup_ : hotGroup_;
    const std::size_t id = primary.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return fallback.place(cluster, watts);
}

std::optional<std::size_t>
ScalarVmtTa::hotGroupSize() const
{
    return hotSize_;
}

// ---- VMT-WA ----

ScalarVmtWa::ScalarVmtWa(const VmtConfig &config,
                         const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

bool
ScalarVmtWa::placeable(const Server &srv) const
{
    return srv.estimatedMeltFraction() < config_.waxThreshold ||
           srv.airTemp() < config_.physicalMeltTemp;
}

void
ScalarVmtWa::beginInterval(Cluster &cluster, Seconds)
{
    const std::size_t n = cluster.numServers();
    baseHotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());

    meltedCount_ = 0;
    for (std::size_t id = 0; id < n; ++id) {
        if (std::as_const(cluster).server(id).estimatedMeltFraction() >=
            config_.waxThreshold)
            ++meltedCount_;
    }

    const ServerThermalParams &thermal = cluster.thermalParams();
    keepWarmPower_ =
        (config_.physicalMeltTemp + 0.3 - thermal.inletTemp) /
        thermal.airRisePerWatt;

    Watts hot_dynamic = 0.0;
    for (WorkloadType type : kAllWorkloads) {
        if (hotMask_[workloadIndex(type)]) {
            hot_dynamic +=
                static_cast<double>(
                    cluster.activeCounts()[workloadIndex(type)]) *
                cluster.powerModel().corePower(type);
        }
    }
    const Watts warm_cost = std::max(
        1.0, keepWarmPower_ - cluster.powerModel().spec().idlePower);
    const Watts remaining = std::max(
        0.0, hot_dynamic -
                 static_cast<double>(meltedCount_) * warm_cost);
    const auto placeable_cap = static_cast<std::size_t>(
        remaining / (warm_cost * config_.extensionLoadFactor));
    std::size_t extension = 0;
    if (placeable_cap + meltedCount_ > baseHotSize_)
        extension = placeable_cap + meltedCount_ - baseHotSize_;
    extension = std::min(extension, meltedCount_);
    hotSize_ = std::min(n, baseHotSize_ + extension);
    domainCap_ = hotSize_;

    const bool keep_warm_active =
        cluster.aliveUtilization() >= config_.keepWarmUtilization;

    keepWarm_.clear();
    hotPlaceable_.clear();
    coldGroup_.clear();
    hotMelted_.clear();
    for (std::size_t id = 0; id < hotSize_; ++id) {
        const Server &srv = std::as_const(cluster).server(id);
        const bool melted =
            srv.estimatedMeltFraction() >= config_.waxThreshold;
        if (melted && keep_warm_active)
            keepWarm_.add(cluster, id);
        if (placeable(srv))
            hotPlaceable_.add(cluster, id);
        else
            hotMelted_.push_back(id);
    }
    for (std::size_t id = hotSize_; id < n; ++id)
        coldGroup_.add(cluster, id);

    meltedCursor_ = 0;
    initialized_ = true;
}

std::size_t
ScalarVmtWa::placeHot(Cluster &cluster, Watts watts)
{
    const std::size_t n = cluster.numServers();
    std::size_t id = keepWarm_.placeIfBelow(cluster, watts,
                                            keepWarmPower_);
    if (id != kNoServer)
        return id;
    id = hotPlaceable_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    while (hotSize_ < domainCap_) {
        const std::size_t added = hotSize_++;
        const Server &srv = std::as_const(cluster).server(added);
        if (placeable(srv)) {
            hotPlaceable_.add(cluster, added);
            id = hotPlaceable_.place(cluster, watts);
            if (id != kNoServer)
                return id;
        } else {
            hotMelted_.push_back(added);
        }
    }
    for (std::size_t probes = 0; probes < n; ++probes) {
        const std::size_t cand = anyCursor_;
        anyCursor_ = (anyCursor_ + 1) % n;
        const Server &srv = std::as_const(cluster).server(cand);
        if (srv.hasCapacity() &&
            srv.estimatedMeltFraction() < config_.waxThreshold)
            return cand;
    }
    for (std::size_t probes = 0; probes < n; ++probes) {
        const std::size_t cand = anyCursor_;
        anyCursor_ = (anyCursor_ + 1) % n;
        if (std::as_const(cluster).server(cand).hasCapacity())
            return cand;
    }
    return kNoServer;
}

std::size_t
ScalarVmtWa::placeCold(Cluster &cluster, Watts watts)
{
    std::size_t id = coldGroup_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    const std::size_t melted = hotMelted_.size();
    for (std::size_t probes = 0; probes < melted; ++probes) {
        if (meltedCursor_ >= melted)
            meltedCursor_ = 0;
        const std::size_t cand = hotMelted_[meltedCursor_];
        meltedCursor_ = (meltedCursor_ + 1) % melted;
        if (std::as_const(cluster).server(cand).hasCapacity())
            return cand;
    }
    id = keepWarm_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return hotPlaceable_.place(cluster, watts);
}

std::size_t
ScalarVmtWa::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0);
    const Watts watts = cluster.powerModel().corePower(job.type);
    return hotMask_[workloadIndex(job.type)]
               ? placeHot(cluster, watts)
               : placeCold(cluster, watts);
}

std::optional<std::size_t>
ScalarVmtWa::hotGroupSize() const
{
    return hotSize_;
}

std::vector<MigrationRequest>
ScalarVmtWa::proposeMigrations(Cluster &cluster, Seconds)
{
    std::vector<MigrationRequest> requests;
    if (cluster.aliveUtilization() < config_.keepWarmUtilization)
        return requests;

    BalancedGroup targets;
    std::size_t target_slots = 0;
    for (std::size_t id = 0; id < hotSize_; ++id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.estimatedMeltFraction() < config_.waxThreshold &&
            srv.hasCapacity()) {
            targets.add(cluster, id);
            target_slots += srv.freeCores();
        }
    }
    if (targets.empty())
        return requests;

    for (std::size_t id = 0; id < hotSize_ && target_slots > 0;
         ++id) {
        const Server &srv = std::as_const(cluster).server(id);
        if (srv.estimatedMeltFraction() < config_.waxThreshold)
            continue;
        Watts power = srv.power(cluster.powerModel());
        if (power <= keepWarmPower_)
            continue;
        CoreCounts counts = srv.coreCounts();
        for (WorkloadType type : kAllWorkloads) {
            if (!hotMask_[workloadIndex(type)])
                continue;
            const Watts per_core =
                cluster.powerModel().corePower(type);
            while (counts[workloadIndex(type)] > 0 &&
                   power - per_core >= keepWarmPower_ &&
                   target_slots > 0) {
                const std::size_t to =
                    targets.place(cluster, per_core);
                if (to == kNoServer)
                    return requests;
                requests.push_back(MigrationRequest{id, type, to});
                --counts[workloadIndex(type)];
                power -= per_core;
                --target_slots;
            }
        }
    }
    return requests;
}

void
ScalarVmtWa::setGroupingValue(double gv)
{
    if (gv <= 0.0)
        fatal("setGroupingValue requires gv > 0");
    config_.groupingValue = gv;
}

void
ScalarVmtWa::saveState(Serializer &out) const
{
    out.putDouble(config_.groupingValue);
    out.putBool(initialized_);
    out.putSize(baseHotSize_);
    out.putSize(hotSize_);
    out.putSize(meltedCount_);
    out.putSize(domainCap_);
    out.putDouble(keepWarmPower_);
    out.putSize(meltedCursor_);
    out.putSize(anyCursor_);
}

void
ScalarVmtWa::loadState(Deserializer &in)
{
    config_.groupingValue = in.getDouble();
    initialized_ = in.getBool();
    baseHotSize_ = in.getSize();
    hotSize_ = in.getSize();
    meltedCount_ = in.getSize();
    domainCap_ = in.getSize();
    keepWarmPower_ = in.getDouble();
    meltedCursor_ = in.getSize();
    anyCursor_ = in.getSize();
}

// ---- VMT-Preserve ----

ScalarVmtPreserve::ScalarVmtPreserve(const VmtConfig &config,
                                     const HotMask &hot_mask)
    : config_(config), hotMask_(hot_mask)
{}

void
ScalarVmtPreserve::beginInterval(Cluster &cluster, Seconds)
{
    hotSize_ = hotGroupSizeFor(config_, cluster.aliveServers());
    meltedPq_ = {};
    packingPq_ = {};
    coldGroup_.clear();
    const KelvinPerWatt rise = cluster.thermalParams().airRisePerWatt;
    for (std::size_t id = 0; id < cluster.numServers(); ++id) {
        if (id >= hotSize_) {
            coldGroup_.add(cluster, id);
            continue;
        }
        const Server &srv = std::as_const(cluster).server(id);
        const Celsius projected =
            srv.thermal().inletTemp() +
            rise * srv.power(cluster.powerModel());
        if (srv.estimatedMeltFraction() >= config_.waxThreshold)
            meltedPq_.push(HeapEntry{projected, id});
        else
            packingPq_.push(HeapEntry{projected, id});
    }
    initialized_ = true;
}

std::size_t
ScalarVmtPreserve::placePacked(std::priority_queue<HeapEntry> &heap,
                               Cluster &cluster, Watts watts)
{
    const KelvinPerWatt rise = cluster.thermalParams().airRisePerWatt;
    while (!heap.empty()) {
        HeapEntry entry = heap.top();
        heap.pop();
        if (!std::as_const(cluster).server(entry.id).hasCapacity())
            continue;
        entry.temp += rise * watts;
        heap.push(entry);
        return entry.id;
    }
    return kNoServer;
}

std::size_t
ScalarVmtPreserve::placeHot(Cluster &cluster, Watts watts)
{
    std::size_t id = placePacked(meltedPq_, cluster, watts);
    if (id != kNoServer)
        return id;
    id = placePacked(packingPq_, cluster, watts);
    if (id != kNoServer)
        return id;
    return coldGroup_.place(cluster, watts);
}

std::size_t
ScalarVmtPreserve::placeJob(Cluster &cluster, const Job &job)
{
    if (!initialized_)
        beginInterval(cluster, 0.0);
    const Watts watts = cluster.powerModel().corePower(job.type);
    if (hotMask_[workloadIndex(job.type)])
        return placeHot(cluster, watts);
    const std::size_t id = coldGroup_.place(cluster, watts);
    if (id != kNoServer)
        return id;
    return placeHot(cluster, watts);
}

std::optional<std::size_t>
ScalarVmtPreserve::hotGroupSize() const
{
    return hotSize_;
}

// ---- Adaptive VMT ----

ScalarAdaptiveVmt::ScalarAdaptiveVmt(const VmtConfig &config,
                                     const HotMask &hot_mask,
                                     const AdaptiveVmtParams &params)
    : inner_(config, hot_mask), params_(params),
      meltTemp_(config.physicalMeltTemp),
      upBudget_(params.maxDailyChange),
      downBudget_(params.maxDailyChange)
{}

void
ScalarAdaptiveVmt::beginInterval(Cluster &cluster, Seconds now)
{
    const double utilization = cluster.aliveUtilization();
    double gv = inner_.groupingValue();
    const bool busy = utilization >= params_.minUtilization;
    if (!busy && wasBusy_) {
        upBudget_ = params_.maxDailyChange;
        downBudget_ = params_.maxDailyChange;
    }
    wasBusy_ = busy;

    if (busy) {
        const std::size_t hot = hotGroupSize().value_or(0);
        if (hot > 0) {
            const Celsius excess = cluster.meanAirTemp(hot) - meltTemp_;
            const std::size_t base = inner_.baseHotGroupSize();
            const bool over_extended =
                hot > base && (hot - base) * 10 > base;
            if ((excess > params_.bandHigh || over_extended) &&
                upBudget_ > 0.0) {
                const double step =
                    std::min(params_.stepUp, upBudget_);
                gv += step;
                upBudget_ -= step;
            } else if (excess < params_.bandLow &&
                       utilization >=
                           params_.concentrateUtilization &&
                       inner_.meltedCount() < hot &&
                       downBudget_ > 0.0) {
                const double step =
                    std::min(params_.stepDown, downBudget_);
                gv -= step;
                downBudget_ -= step;
            }
        }
    }
    inner_.setGroupingValue(
        std::clamp(gv, params_.gvMin, params_.gvMax));
    inner_.beginInterval(cluster, now);
}

std::size_t
ScalarAdaptiveVmt::placeJob(Cluster &cluster, const Job &job)
{
    return inner_.placeJob(cluster, job);
}

std::optional<std::size_t>
ScalarAdaptiveVmt::hotGroupSize() const
{
    return inner_.hotGroupSize();
}

std::vector<MigrationRequest>
ScalarAdaptiveVmt::proposeMigrations(Cluster &cluster, Seconds now)
{
    return inner_.proposeMigrations(cluster, now);
}

void
ScalarAdaptiveVmt::saveState(Serializer &out) const
{
    inner_.saveState(out);
    out.putBool(wasBusy_);
    out.putDouble(upBudget_);
    out.putDouble(downBudget_);
}

void
ScalarAdaptiveVmt::loadState(Deserializer &in)
{
    inner_.loadState(in);
    wasBusy_ = in.getBool();
    upBudget_ = in.getDouble();
    downBudget_ = in.getDouble();
}

} // namespace vmt::reference
