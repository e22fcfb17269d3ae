#include "state/sim_snapshot.h"

#include <cstdlib>
#include <string>

#include "fault/fault_engine.h"
#include "obs/observability.h"
#include "state/config_echo.h"
#include "state/snapshot.h"
#include "util/logging.h"

namespace vmt {

namespace {

/** Names the batch driver's snapshots in mismatch errors. */
constexpr const char *kContext = "snapshot";

void
saveSeries(Serializer &out, const TimeSeries &series)
{
    out.putSize(series.size());
    for (double value : series.values())
        out.putDouble(value);
}

void
loadSeries(Deserializer &in, TimeSeries &series, std::size_t expected,
           const char *what)
{
    const std::size_t count = in.getSize();
    if (count != expected)
        fatal("snapshot series '" + std::string(what) + "' has " +
              std::to_string(count) + " samples, expected " +
              std::to_string(expected));
    for (std::size_t i = 0; i < count; ++i)
        series.add(in.getDouble());
}

void
saveHeatmap(Serializer &out, const std::optional<Heatmap> &map)
{
    out.putBool(map.has_value());
    if (!map)
        return;
    out.putSize(map->rows());
    out.putSize(map->cols());
    for (std::size_t row = 0; row < map->rows(); ++row)
        for (std::size_t col = 0; col < map->cols(); ++col)
            out.putDouble(map->at(row, col));
}

void
loadHeatmap(Deserializer &in, std::optional<Heatmap> &map,
            const char *what)
{
    const bool present = in.getBool();
    if (present != map.has_value())
        configMismatch(kContext, std::string(what) +
                                     " heatmap recording on/off differs");
    if (!present)
        return;
    const std::size_t rows = in.getSize();
    const std::size_t cols = in.getSize();
    if (rows != map->rows() || cols != map->cols())
        configMismatch(kContext,
                       std::string(what) + " heatmap dimensions differ");
    for (std::size_t row = 0; row < rows; ++row)
        for (std::size_t col = 0; col < cols; ++col)
            map->at(row, col) = in.getDouble();
}

/** FALT's configuration echo: enable flag, parameters, plan. */
void
echoFaultLayer(ConfigEcho &echo, const FaultConfig &faults)
{
    echo.flag("fault enable", faults.enable);
    echoFaultParams(echo, faults);
    echoFaultPlan(echo, faults.plan);
}

} // namespace

void
echoSimConfig(ConfigEcho &echo, const SimConfig &config,
              std::size_t num_intervals, const std::string &scheduler)
{
    echo.u64("run length", num_intervals);
    echo.u64("server count", config.numServers);
    echo.u64("seed", config.seed);
    echo.f64("interval", config.interval);
    echo.f64("power scale", config.powerScale);
    echo.f64("inlet stddev", config.inletStddev);
    echo.f64("cooling capacity", config.coolingCapacity);
    echo.f64("cooling overload rise", config.coolingOverloadRise);
    echo.f64("overheat temp", config.overheatTemp);
    echo.u64("migration budget", config.migrationBudget);
    echo.u64("peak window", config.peakWindow);
    echo.flag("recirculation modelling", config.modelRecirculation);
    echo.flag("heatmap recording", config.recordHeatmaps);
    echo.pcmIntegrator();
    echo.text("scheduler", scheduler);
}

void
saveSnapshot(const SimState &state, std::size_t completed,
             const std::string &path)
{
    const SimConfig &config = state.config;
    SnapshotWriter writer;

    // CONF: everything needed to refuse a resume under a different
    // configuration. The values are reconstruction *parameters*
    // (verified on load), not restored state.
    Serializer &conf = writer.section("CONF");
    conf.putSize(completed);
    ConfigEcho conf_echo(conf);
    echoSimConfig(conf_echo, config, state.numIntervals,
                  state.scheduler.name());

    state.generator.saveState(writer.section("GENR"));
    const Cluster &cluster = state.cluster;
    cluster.saveState(writer.section("CLUS"));

    // QUEU: the running-job table (sim/job_table.h) — slots, free
    // list, residency lists and pending departures in pop order.
    state.jobs.save(writer.section("QUEU"));

    state.scheduler.saveState(writer.section("SCHD"));

    // RSLT: the series and aggregates accumulated so far, plus the
    // cooling-plant feedback input for the next interval.
    Serializer &res = writer.section("RSLT");
    const SimResult &result = state.result;
    saveSeries(res, result.coolingLoad);
    saveSeries(res, result.totalPower);
    saveSeries(res, result.waxHeatFlow);
    saveSeries(res, result.meanAirTemp);
    saveSeries(res, result.hotGroupTemp);
    saveSeries(res, result.hotGroupSizeSeries);
    saveSeries(res, result.meanMeltFraction);
    saveSeries(res, result.utilization);
    saveSeries(res, result.inletTemp);
    res.putDouble(result.maxAirTemp);
    res.putU64(result.overheatedServerIntervals);
    res.putU64(result.throttledServerIntervals);
    res.putU64(result.droppedJobs);
    res.putU64(result.migrations);
    res.putU64(result.placedJobs);
    res.putDouble(state.prevCoolingLoad);
    saveHeatmap(res, result.airTempMap);
    saveHeatmap(res, result.meltMap);

    // FALT (new in format v2): the fault-layer configuration echo
    // (rejecting resume under different faults, like CONF does for
    // the core parameters), the engine's dynamic state and the fault
    // telemetry. Always written — a disabled layer round-trips as
    // "inactive" — so every v2 snapshot has the same section set.
    Serializer &falt = writer.section("FALT");
    ConfigEcho falt_echo(falt);
    echoFaultLayer(falt_echo, config.faults);
    falt.putBool(state.faults != nullptr);
    if (state.faults)
        state.faults->saveState(falt, cluster);
    saveSeries(falt, result.aliveServers);
    falt.putU64(result.evacuatedJobs);
    falt.putU64(result.lostJobs);
    falt.putU64(result.criticalServerIntervals);

    // OBSV (optional): metric values + run telemetry, written only
    // when the run carries an observability layer. Still format v2 —
    // readers treat a missing section as "run without observability".
    if (state.obs)
        state.obs->saveState(writer.section("OBSV"));

    writer.write(path);
}

std::size_t
loadSnapshot(SimState &state, const std::string &path)
{
    const SimConfig &config = state.config;
    const SnapshotReader reader(path);

    Deserializer conf = reader.section("CONF");
    const std::size_t completed = conf.getSize();
    ConfigEcho conf_echo(conf, kContext);
    echoSimConfig(conf_echo, config, state.numIntervals,
                  state.scheduler.name());
    if (completed > state.numIntervals)
        configMismatch(kContext, "snapshot claims " +
                                     std::to_string(completed) +
                                     " completed intervals of " +
                                     std::to_string(state.numIntervals));
    conf.expectEnd();

    Deserializer genr = reader.section("GENR");
    state.generator.loadState(genr);
    genr.expectEnd();

    Deserializer clus = reader.section("CLUS");
    state.cluster.loadState(clus);
    clus.expectEnd();

    Deserializer queue = reader.section("QUEU");
    state.jobs.load(queue,
                    static_cast<double>(completed) * config.interval);
    queue.expectEnd();

    Deserializer sched = reader.section("SCHD");
    state.scheduler.loadState(sched);
    sched.expectEnd();
    state.scheduler.checkLoadedState(state.cluster);

    Deserializer res = reader.section("RSLT");
    SimResult &result = state.result;
    loadSeries(res, result.coolingLoad, completed, "coolingLoad");
    loadSeries(res, result.totalPower, completed, "totalPower");
    loadSeries(res, result.waxHeatFlow, completed, "waxHeatFlow");
    loadSeries(res, result.meanAirTemp, completed, "meanAirTemp");
    loadSeries(res, result.hotGroupTemp, completed, "hotGroupTemp");
    loadSeries(res, result.hotGroupSizeSeries, completed,
               "hotGroupSize");
    loadSeries(res, result.meanMeltFraction, completed,
               "meanMeltFraction");
    loadSeries(res, result.utilization, completed, "utilization");
    loadSeries(res, result.inletTemp, completed, "inletTemp");
    result.maxAirTemp = res.getDouble();
    result.overheatedServerIntervals = res.getU64();
    result.throttledServerIntervals = res.getU64();
    result.droppedJobs = res.getU64();
    result.migrations = res.getU64();
    result.placedJobs = res.getU64();
    state.prevCoolingLoad = res.getDouble();
    loadHeatmap(res, result.airTempMap, "air-temperature");
    loadHeatmap(res, result.meltMap, "melt-fraction");
    res.expectEnd();

    if (reader.has("FALT")) {
        Deserializer falt = reader.section("FALT");
        ConfigEcho falt_echo(falt, kContext);
        echoFaultLayer(falt_echo, config.faults);
        const bool engine_active = falt.getBool();
        if (engine_active != (state.faults != nullptr))
            configMismatch(kContext, "fault engine active in one run "
                                     "but not the other");
        if (state.faults)
            state.faults->loadState(falt, state.cluster);
        loadSeries(falt, result.aliveServers, completed,
                   "aliveServers");
        result.evacuatedJobs = falt.getU64();
        result.lostJobs = falt.getU64();
        result.criticalServerIntervals = falt.getU64();
        falt.expectEnd();
    } else {
        // A v1 snapshot predates the fault layer: it can only resume
        // a run with faults disabled, and the fault telemetry for
        // the completed prefix is trivially known.
        if (config.faults.enabled())
            configMismatch(kContext, "format v1 predates the fault "
                                     "layer; it cannot resume a run "
                                     "with faults configured");
        for (std::size_t i = 0; i < completed; ++i)
            result.aliveServers.add(
                static_cast<double>(config.numServers));
        result.evacuatedJobs = 0;
        result.lostJobs = 0;
        result.criticalServerIntervals = 0;
    }

    if (state.obs) {
        if (reader.has("OBSV")) {
            Deserializer obsv = reader.section("OBSV");
            state.obs->loadState(obsv, completed);
            obsv.expectEnd();
        } else {
            // Snapshot written without observability attached (or
            // predating the layer): resume anyway with a zero-filled
            // telemetry prefix rather than refusing the restore.
            state.obs->acceptMissingState(completed);
        }
    }

    return completed;
}

CheckpointOptions
checkpointOptionsFromEnv()
{
    CheckpointOptions options;
    if (const char *every = std::getenv("VMT_CHECKPOINT_EVERY")) {
        char *end = nullptr;
        const unsigned long long value = std::strtoull(every, &end, 10);
        if (end == every || *end != '\0')
            fatal(std::string("VMT_CHECKPOINT_EVERY is not a number: ") +
                  every);
        options.every = static_cast<std::size_t>(value);
    }
    if (const char *path = std::getenv("VMT_CHECKPOINT_PATH"))
        options.path = path;
    if (const char *resume = std::getenv("VMT_CHECKPOINT_RESUME"))
        options.resumeFrom = resume;
    return options;
}

void
attachCheckpointing(SimConfig &config, const CheckpointOptions &options)
{
    if (!options.resumeFrom.empty()) {
        const std::string from = options.resumeFrom;
        config.restoreHook = [from](SimState &state) {
            return loadSnapshot(state, from);
        };
    }
    if (options.every > 0) {
        const std::size_t every = options.every;
        const std::string path =
            options.path.empty() ? kDefaultCheckpointPath : options.path;
        config.checkpointHook = [every, path](const SimState &state,
                                              std::size_t completed) {
            // Skip the last interval: the run is finished, a snapshot
            // would only be dead weight on disk.
            if (completed % every == 0 && completed < state.numIntervals)
                saveSnapshot(state, completed, path);
        };
    }
}

} // namespace vmt
