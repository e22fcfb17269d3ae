#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unistd.h>

#include "checks.h"
#include "core/policy_factory.h"
#include "obs/observability.h"
#include "util/thread_pool.h"

namespace vmtbench {

using vmt::serve::FeedJob;
using vmt::serve::ServeConfig;
using vmt::serve::ServeResult;
using vmt::serve::ShardedDriver;
using vmt::serve::SyntheticFeedParams;

namespace {

constexpr double kGroupingValue = 22.0;
constexpr double kWaxThreshold = 0.98;
/** ShardedDriver constructions per serving op (set-up samples). */
constexpr int kServeSetups = 3;

double
metricValue(vmt::obs::Observability &o, const std::string &name)
{
    for (const vmt::obs::MetricValue &m : o.metrics().snapshotValues())
        if (m.name == name && !m.values.empty())
            return m.values.front();
    return 0.0;
}

std::string
fixed(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

OpResult
runBatch(const WorkloadSpec &spec, std::uint64_t seed, Tracer *tracer)
{
    vmt::SimConfig config = batchConfig(spec, seed);
    std::unique_ptr<vmt::obs::Observability> obs;
    if (tracer) {
        obs = std::make_unique<vmt::obs::Observability>();
        config.obs = obs.get();
    }

    std::vector<std::int64_t> callbacks;
    callbacks.reserve(spec.intervals);
    const std::int64_t start = nowNs();
    std::int32_t root = kNoParent;
    if (tracer)
        root = tracer->add("sim.run", start, start, kNoParent,
                           kNoInterval);
    TimedScheduler scheduler(
        vmt::makeScheduler(spec.policy, kGroupingValue, kWaxThreshold),
        config.interval, tracer, root, start);
    const vmt::SimObserver observer = [&](const vmt::Cluster &,
                                          std::size_t interval) {
        const std::int64_t ns = nowNs();
        scheduler.observed(ns, static_cast<std::int64_t>(interval));
        callbacks.push_back(ns);
    };
    const vmt::SimResult result =
        vmt::runSimulation(config, scheduler, observer);
    const std::int64_t end = nowNs();
    scheduler.finished(end);
    if (tracer)
        tracer->setEnd(root, end);

    OpResult op;
    op.digest = digestBatch(result);
    op.summary = "peak_cooling_kw=" + fixed(result.peakCoolingLoad / 1e3) +
                 " max_melt=" + fixed(result.maxMeltFraction) +
                 " placed=" + std::to_string(result.placedJobs) +
                 " dropped=" + std::to_string(result.droppedJobs) +
                 " lost=" + std::to_string(result.lostJobs);
    checkBatchIdentities(result, scheduler, op.errors);
    op.jobs = scheduler.jobs();
    op.failedJobs = result.droppedJobs + result.lostJobs;
    op.intervals = callbacks.size();
    op.wallSeconds = secondsBetween(start, end);
    if (!callbacks.empty())
        op.setupSeconds.push_back(secondsBetween(start, callbacks[0]));
    for (std::size_t i = 1; i < callbacks.size(); ++i)
        op.intervalSeconds.push_back(
            secondsBetween(callbacks[i - 1], callbacks[i]));

    if (tracer) {
        const auto total = tracer->totalSeconds();
        const auto get = [&](const char *name) {
            const auto it = total.find(name);
            return it == total.end() ? 0.0 : it->second;
        };
        const double thermal =
            metricValue(*obs, "profile.phase.thermal.seconds");
        const double arrivals =
            metricValue(*obs, "profile.phase.arrivals.seconds");
        const double busy =
            metricValue(*obs, "profile.pool.busy_seconds");
        const double server_steps =
            static_cast<double>(spec.servers) *
            static_cast<double>(op.intervals);
        auto &l = op.layers;
        l["sched.begin_s"] = get("sched.begin");
        l["sched.place_s"] = get("sched.place");
        l["sched.jobs"] = static_cast<double>(scheduler.jobs());
        l["sched.ns_per_job"] =
            ratio(get("sched.place") * 1e9,
                  static_cast<double>(scheduler.jobs()));
        l["sched.unplaced"] = static_cast<double>(scheduler.unplaced());
        l["thermal.step_s"] = thermal;
        l["thermal.ns_per_server_step"] =
            ratio(thermal * 1e9, server_steps);
        l["sim.drain_s"] = get("sim.drain");
        l["sim.pre_place_s"] = get("sim.pre_place") - arrivals;
        l["sim.post_place_s"] = get("sim.post_place") - thermal;
        l["workload.arrivals_s"] = arrivals;
        l["pool.busy_s"] = busy;
        l["pool.busy_frac"] = ratio(
            busy, op.wallSeconds *
                      static_cast<double>(vmt::globalPool().size()));
        l["sched.wall_frac"] =
            ratio(get("sched.begin") + get("sched.place"), op.wallSeconds);
        l["trace.wall_s"] = op.wallSeconds;
        l["unattributed_frac"] =
            ratio(tracer->selfSeconds()["sim.run"], op.wallSeconds);
    }
    return op;
}

OpResult
runServe(const WorkloadSpec &spec, std::uint64_t seed, Tracer *tracer,
         const std::string &work_dir)
{
    namespace fs = std::filesystem;
    const std::string ckpt_dir =
        work_dir + "/ckpt-" + std::to_string(::getpid());
    ServeConfig config = serveConfig(spec, seed, ckpt_dir);
    if (config.checkpointEvery > 0)
        fs::create_directories(ckpt_dir);
    std::unique_ptr<vmt::obs::Observability> obs;
    if (tracer) {
        obs = std::make_unique<vmt::obs::Observability>();
        config.obs = obs.get();
        config.keepTelemetry = true;
    }

    OpResult op;
    const std::int64_t start = nowNs();
    std::int32_t root = kNoParent;
    if (tracer)
        root = tracer->add("serve.run", start, start, kNoParent,
                           kNoInterval);
    std::unique_ptr<ShardedDriver> driver;
    for (int i = 0; i < kServeSetups; ++i) {
        driver.reset();
        const std::int64_t s = nowNs();
        driver = std::make_unique<ShardedDriver>(config);
        const std::int64_t e = nowNs();
        op.setupSeconds.push_back(secondsBetween(s, e));
        if (tracer)
            tracer->add("serve.setup", s, e, root, kNoInterval);
    }

    TimedFeed feed(feedParams(spec, seed), tracer, root);
    const std::int64_t run_start = nowNs();
    feed.start(run_start);
    const ServeResult result = driver->run(feed);
    const std::int64_t run_end = nowNs();
    feed.finish(run_end);
    if (tracer)
        tracer->setEnd(root, run_end);

    op.digest = digestServe(result);
    op.summary =
        "peak_cooling_kw=" + fixed(result.peakCoolingLoad / 1e3) +
        " max_melt=" + fixed(result.maxMeltFraction) +
        " arrivals=" + std::to_string(result.arrivals) +
        " admitted=" + std::to_string(result.admitted) +
        " shed=" + std::to_string(result.shed) +
        " expired=" + std::to_string(result.expiredJobs) +
        " dropped=" + std::to_string(result.droppedJobs) +
        " evacuated=" + std::to_string(result.evacuatedJobs) +
        " migrated=" + std::to_string(result.migratedJobs) +
        " lost=" + std::to_string(result.lostJobs) +
        " brownout_intervals=" + std::to_string(result.brownoutIntervals);
    if (tracer)
        op.telemetryDigest = digestText(result.telemetry);
    checkServeIdentities(result, feed.delivered(), op.errors);
    op.jobs = result.arrivals;
    op.failedJobs = result.shed + result.expiredJobs + result.lostJobs +
                    result.droppedJobs;
    op.intervals = result.completedIntervals;
    op.feedSeconds = feed.feedSeconds();
    op.wallSeconds =
        secondsBetween(run_start, run_end) - feed.feedSeconds();
    op.intervalSeconds = feed.intervalSeconds();

    if (tracer) {
        const auto phase = [&](const std::string &name) {
            return metricValue(*obs,
                               "profile.phase.serve." + name + ".seconds");
        };
        const double departures = phase("departures");
        const double place = phase("place");
        const double thermal = phase("thermal");
        const double checkpoint = phase("checkpoint");
        const double checkpoints =
            metricValue(*obs, "profile.phase.serve.checkpoint.calls");
        const double busy =
            metricValue(*obs, "profile.pool.busy_seconds");
        const auto total = tracer->totalSeconds();
        const double run_wall = secondsBetween(run_start, run_end);
        std::error_code ec;
        const auto bytes = fs::file_size(config.checkpointPath, ec);
        auto &l = op.layers;
        l["serve.place_s"] = place;
        l["thermal.step_s"] = thermal;
        l["thermal.ns_per_server_step"] =
            ratio(thermal * 1e9, static_cast<double>(spec.servers) *
                                     static_cast<double>(op.intervals));
        l["serve.thermal_s"] = thermal;
        l["workload.arrivals_s"] = feed.generateSeconds();
        l["serve.departures_s"] = departures;
        l["serve.serial_s"] = total.at("serve.interval") +
                              total.at("serve.head") - departures -
                              place - thermal - checkpoint;
        l["serve.feed_s"] = feed.feedSeconds();
        l["serve.admitted"] = static_cast<double>(result.admitted);
        l["serve.requeued"] = static_cast<double>(result.requeued);
        l["serve.peak_queue_depth"] =
            static_cast<double>(result.peakQueueDepth);
        l["pool.busy_s"] = busy;
        l["pool.busy_frac"] = ratio(
            busy,
            run_wall * static_cast<double>(vmt::globalPool().size()));
        l["fault.evacuated"] = static_cast<double>(result.evacuatedJobs);
        l["fault.migrated"] = static_cast<double>(result.migratedJobs);
        l["fault.lost"] = static_cast<double>(result.lostJobs);
        l["fault.migrated_frac"] =
            ratio(static_cast<double>(result.migratedJobs),
                  static_cast<double>(result.evacuatedJobs));
        l["serve.brownout_intervals"] =
            static_cast<double>(result.brownoutIntervals);
        l["serve.expired"] = static_cast<double>(result.expiredJobs);
        l["state.checkpoints"] = checkpoints;
        l["state.checkpoint_s"] = checkpoint;
        l["state.ms_per_checkpoint"] =
            ratio(checkpoint * 1e3, checkpoints);
        l["state.snapshot_bytes"] = ec ? 0.0 : static_cast<double>(bytes);
        l["state.checkpoint_failures"] =
            static_cast<double>(result.checkpointFailures);
        l["trace.wall_s"] = op.wallSeconds;
        l["unattributed_frac"] =
            ratio(tracer->selfSeconds()["serve.run"],
                  secondsBetween(start, run_end));
    }
    driver.reset();
    if (config.checkpointEvery > 0) {
        std::error_code ec;
        fs::remove_all(ckpt_dir, ec);
    }
    return op;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"sim-wa-1k", Kind::Batch, "wa", 1000, 2880, false, true},
        {"sim-rr-1k", Kind::Batch, "rr", 1000, 2880, false, true},
        {"serve-10k-day", Kind::Serve, "wa", 10000, 1440, false, true},
        {"serve-10k-outage", Kind::Serve, "wa", 10000, 1440, true, true},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

WorkloadSpec
shortened(const WorkloadSpec &spec, std::size_t servers,
          std::size_t intervals)
{
    WorkloadSpec s = spec;
    s.servers = servers;
    s.intervals = intervals;
    s.fullSize = false;
    return s;
}

vmt::SimConfig
batchConfig(const WorkloadSpec &spec, std::uint64_t seed)
{
    // The calibrated study configuration (library defaults, restated
    // as bench/common.cc's studyConfig does) over the fixed 48-h
    // study trace; the seed draws job types, durations and inlets.
    vmt::SimConfig config;
    config.numServers = spec.servers;
    config.seed = seed;
    config.thermal.inletTemp = 22.0;
    config.thermal.airRisePerWatt = 0.040;
    config.thermal.exhaustRisePerWatt = 0.058;
    config.thermal.timeConstant = 900.0;
    config.thermal.pcm.conductance = 100.0;
    config.powerScale = 1.77;
    config.trace.duration = static_cast<double>(spec.intervals) *
                            config.interval / vmt::kHour;
    return config;
}

ServeConfig
serveConfig(const WorkloadSpec &spec, std::uint64_t seed,
            const std::string &work_dir)
{
    ServeConfig config;
    config.numServers = spec.servers;
    config.seed = seed;
    config.policy = spec.policy;
    config.gv = kGroupingValue;
    config.waxThreshold = kWaxThreshold;
    config.maxIntervals = spec.intervals;
    if (!spec.outage)
        return config;

    // Degraded day: every 4th server down from hour 10 to hour 14 of
    // the day (the diurnal peak), a 6 K supply derate from hour 11 to
    // 13, brownout watermarks, a 300 s queue deadline and a
    // checkpoint every hour. Event times scale with the run length.
    const double day = static_cast<double>(spec.intervals) *
                       config.interval;
    const auto at_hour = [&](double hour) { return day * hour / 24.0; };
    std::vector<vmt::FaultEvent> events;
    for (std::size_t id = 0; id < spec.servers; id += 4)
        events.push_back({at_hour(10), vmt::FaultEventType::ServerDown,
                          id, 0.0});
    events.push_back(
        {at_hour(11), vmt::FaultEventType::CoolingDerate, 0, 6.0});
    events.push_back(
        {at_hour(13), vmt::FaultEventType::CoolingRestore, 0, 0.0});
    for (std::size_t id = 0; id < spec.servers; id += 4)
        events.push_back(
            {at_hour(14), vmt::FaultEventType::ServerUp, id, 0.0});
    config.faults.plan = vmt::FaultPlan(std::move(events));
    config.brownout.maxAirTemp = 34.0;
    config.brownout.maxMelt = 0.9;
    config.maxQueueAge = 300.0;
    config.checkpointEvery = std::max<std::size_t>(1, spec.intervals / 24);
    config.checkpointPath = work_dir + "/serve.ckpt";
    return config;
}

SyntheticFeedParams
feedParams(const WorkloadSpec &spec, std::uint64_t seed)
{
    SyntheticFeedParams params;
    params.users *= static_cast<double>(spec.servers) / 10000.0;
    params.seed = seed;
    return params;
}

TimedScheduler::TimedScheduler(std::unique_ptr<vmt::Scheduler> inner,
                               vmt::Seconds interval_length,
                               Tracer *tracer, std::int32_t root,
                               std::int64_t start)
    : inner_(std::move(inner)), intervalLength_(interval_length),
      tracer_(tracer), root_(root), last_(start)
{
}

std::string
TimedScheduler::name() const
{
    return inner_->name();
}

void
TimedScheduler::close(const char *name)
{
    const std::int64_t ns = nowNs();
    tracer_->add(name, last_, ns, root_, interval_);
    last_ = ns;
}

void
TimedScheduler::beginInterval(vmt::Cluster &cluster, vmt::Seconds now)
{
    interval_ = std::llround(now / intervalLength_);
    if (!tracer_) {
        inner_->beginInterval(cluster, now);
        return;
    }
    close(begun_ ? "sim.drain" : "sim.setup");
    begun_ = true;
    inner_->beginInterval(cluster, now);
    close("sched.begin");
}

std::size_t
TimedScheduler::placeJob(vmt::Cluster &cluster, const vmt::Job &job)
{
    const std::size_t server = inner_->placeJob(cluster, job);
    ++jobs_;
    if (server != vmt::kNoServer)
        ++placed_;
    return server;
}

void
TimedScheduler::placeJobs(vmt::Cluster &cluster,
                          std::span<const vmt::Job> jobs,
                          std::vector<std::size_t> &out)
{
    if (tracer_)
        close("sim.pre_place");
    inner_->placeJobs(cluster, jobs, out);
    if (tracer_)
        close("sched.place");
    jobs_ += jobs.size();
    for (const std::size_t server : out)
        if (server != vmt::kNoServer)
            ++placed_;
}

void
TimedScheduler::observed(std::int64_t ns, std::int64_t interval)
{
    if (!tracer_)
        return;
    tracer_->add("sim.post_place", last_, ns, root_, interval);
    last_ = ns;
}

void
TimedScheduler::finished(std::int64_t ns)
{
    if (tracer_)
        tracer_->add("sim.finish", last_, ns, root_, kNoInterval);
}

std::optional<std::size_t>
TimedScheduler::hotGroupSize() const
{
    return inner_->hotGroupSize();
}

std::vector<vmt::MigrationRequest>
TimedScheduler::proposeMigrations(vmt::Cluster &cluster,
                                  vmt::Seconds now)
{
    return inner_->proposeMigrations(cluster, now);
}

void
TimedScheduler::saveState(vmt::Serializer &out) const
{
    inner_->saveState(out);
}

void
TimedScheduler::loadState(vmt::Deserializer &in)
{
    inner_->loadState(in);
}

TimedFeed::TimedFeed(const SyntheticFeedParams &params, Tracer *tracer,
                     std::int32_t parent)
    : inner_(params), tracer_(tracer), parent_(parent)
{
}

std::string
TimedFeed::name() const
{
    return inner_.name();
}

void
TimedFeed::arrivalsUntil(vmt::Seconds end, std::vector<FeedJob> &out)
{
    const std::int64_t enter = nowNs();
    const auto interval = static_cast<std::int64_t>(intervals_.size());
    if (lastExit_ >= 0) {
        intervals_.push_back(secondsBetween(lastExit_, enter));
        if (tracer_)
            tracer_->add("serve.interval", lastExit_, enter, parent_,
                         interval - 1);
    } else if (tracer_) {
        tracer_->add("serve.head", runStart_, enter, parent_, 0);
    }
    const std::size_t before = out.size();
    const std::int64_t gen_start = nowNs();
    inner_.arrivalsUntil(end, out);
    const std::int64_t gen_end = nowNs();
    delivered_ += out.size() - before;
    generateSeconds_ += secondsBetween(gen_start, gen_end);
    const std::int64_t exit = nowNs();
    feedSeconds_ += secondsBetween(enter, exit);
    if (tracer_) {
        const std::int32_t span =
            tracer_->add("serve.feed", enter, exit, parent_, interval);
        tracer_->add("workload.arrivals", gen_start, gen_end, span,
                     interval);
    }
    lastExit_ = exit;
}

bool
TimedFeed::exhausted() const
{
    return inner_.exhausted();
}

void
TimedFeed::saveState(vmt::Serializer &out) const
{
    inner_.saveState(out);
}

void
TimedFeed::loadState(vmt::Deserializer &in)
{
    inner_.loadState(in);
}

void
TimedFeed::start(std::int64_t ns)
{
    runStart_ = ns;
}

void
TimedFeed::finish(std::int64_t ns)
{
    if (lastExit_ < 0)
        return;
    const auto interval = static_cast<std::int64_t>(intervals_.size());
    intervals_.push_back(secondsBetween(lastExit_, ns));
    if (tracer_)
        tracer_->add("serve.interval", lastExit_, ns, parent_, interval);
}

OpResult
runOp(const WorkloadSpec &spec, std::uint64_t seed, Tracer *tracer,
      const std::string &work_dir)
{
    return spec.kind == Kind::Batch
               ? runBatch(spec, seed, tracer)
               : runServe(spec, seed, tracer, work_dir);
}

} // namespace vmtbench
