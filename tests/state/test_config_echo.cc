/**
 * @file
 * Every snapshot configuration echo, field by field. Each echo is
 * written under a base configuration, then checked against a copy
 * with exactly one field changed: the check must throw a FatalError
 * naming that field. Checked against the unchanged copy it must
 * consume the echo exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "state/config_echo.h"
#include "state/serializer.h"
#include "state/sim_snapshot.h"
#include "util/logging.h"

namespace vmt {
namespace {

template <typename Config>
struct FieldCase
{
    const char *field;
    std::function<void(Config &)> change;
};

template <typename Config>
using EchoFn = std::function<void(ConfigEcho &, const Config &)>;

/** The FatalError message of checking @p run against @p saved. */
template <typename Config>
std::string
checkMessage(const Serializer &saved, const EchoFn<Config> &echo,
             const Config &run)
{
    Deserializer in(saved.bytes());
    ConfigEcho checker(in, "test snapshot");
    try {
        echo(checker, run);
    } catch (const FatalError &err) {
        return err.what();
    }
    in.expectEnd();
    return {};
}

template <typename Config>
void
expectEveryFieldChecked(const Config &base, const EchoFn<Config> &echo,
                        const std::vector<FieldCase<Config>> &cases)
{
    Serializer saved;
    ConfigEcho writer(saved);
    echo(writer, base);
    EXPECT_EQ(checkMessage(saved, echo, base), "");

    for (const FieldCase<Config> &c : cases) {
        SCOPED_TRACE(c.field);
        Config changed = base;
        c.change(changed);
        const std::string message = checkMessage(saved, echo, changed);
        EXPECT_NE(message.find("test snapshot does not match the "
                               "configured run (" +
                               std::string(c.field) + ": snapshot "),
                  std::string::npos)
            << message;
    }
}

/** CONF's inputs: the config, the run length and the scheduler. */
struct BatchRun
{
    SimConfig config;
    std::size_t intervals = 120;
    std::string scheduler = "VMT-WA";
};

TEST(ConfigEcho, BatchConfEveryField)
{
    const EchoFn<BatchRun> echo = [](ConfigEcho &e, const BatchRun &r) {
        echoSimConfig(e, r.config, r.intervals, r.scheduler);
    };
    expectEveryFieldChecked<BatchRun>(
        BatchRun{}, echo,
        {{"run length", [](BatchRun &r) { ++r.intervals; }},
         {"server count", [](BatchRun &r) { ++r.config.numServers; }},
         {"seed", [](BatchRun &r) { ++r.config.seed; }},
         {"interval", [](BatchRun &r) { r.config.interval = 30.0; }},
         {"power scale", [](BatchRun &r) { r.config.powerScale = 1.5; }},
         {"inlet stddev", [](BatchRun &r) { r.config.inletStddev = 1.0; }},
         {"cooling capacity",
          [](BatchRun &r) { r.config.coolingCapacity = 5e4; }},
         {"cooling overload rise",
          [](BatchRun &r) { r.config.coolingOverloadRise += 1.0; }},
         {"overheat temp",
          [](BatchRun &r) { r.config.overheatTemp += 1.0; }},
         {"migration budget",
          [](BatchRun &r) { ++r.config.migrationBudget; }},
         {"peak window", [](BatchRun &r) { ++r.config.peakWindow; }},
         {"recirculation modelling",
          [](BatchRun &r) {
              r.config.modelRecirculation = !r.config.modelRecirculation;
          }},
         {"heatmap recording",
          [](BatchRun &r) {
              r.config.recordHeatmaps = !r.config.recordHeatmaps;
          }},
         {"scheduler", [](BatchRun &r) { r.scheduler = "RoundRobin"; }}});
}

/** SCON's inputs: the config and the scheduler and feed names. */
struct ServeRun
{
    serve::ServeConfig config;
    std::string scheduler = "VMT-WA";
    std::string feed = "synthetic";
};

TEST(ConfigEcho, ServeSconEveryField)
{
    const EchoFn<ServeRun> echo = [](ConfigEcho &e, const ServeRun &r) {
        serve::echoServeConfig(e, r.config, r.scheduler, r.feed);
    };
    expectEveryFieldChecked<ServeRun>(
        ServeRun{}, echo,
        {{"server count", [](ServeRun &r) { ++r.config.numServers; }},
         {"pod size", [](ServeRun &r) { ++r.config.podSize; }},
         {"interval", [](ServeRun &r) { r.config.interval = 30.0; }},
         {"seed", [](ServeRun &r) { ++r.config.seed; }},
         {"power scale", [](ServeRun &r) { r.config.powerScale = 1.5; }},
         {"overheat temp", [](ServeRun &r) { ++r.config.overheatTemp; }},
         {"queue capacity", [](ServeRun &r) { ++r.config.queueCapacity; }},
         {"admission budget",
          [](ServeRun &r) { ++r.config.admissionBudget; }},
         {"admission policy",
          [](ServeRun &r) { r.config.admit = serve::AdmitPolicy::Shed; }},
         {"scheduler", [](ServeRun &r) { r.scheduler = "RoundRobin"; }},
         {"grouping value", [](ServeRun &r) { r.config.gv = 20.0; }},
         {"wax threshold",
          [](ServeRun &r) { r.config.waxThreshold = 0.9; }},
         {"feed", [](ServeRun &r) { r.feed = "line"; }}});
}

/** A two-event plan: a server outage, then a cooling derate. */
FaultConfig
plannedFaults()
{
    FaultConfig faults;
    faults.plan = FaultPlan::parse("0.5 server-down 3\n"
                                   "1.0 cooling-derate 4\n");
    return faults;
}

/** Replace the plan's event @p i with @p edit applied to it. */
void
editEvent(FaultConfig &faults, std::size_t i,
          const std::function<void(FaultEvent &)> &edit)
{
    std::vector<FaultEvent> events = faults.plan.events();
    edit(events[i]);
    faults.plan = FaultPlan(std::move(events));
}

TEST(ConfigEcho, FaultEchoEveryField)
{
    // The order DGRD writes the two parts in; FALT swaps them.
    const EchoFn<FaultConfig> echo = [](ConfigEcho &e,
                                        const FaultConfig &faults) {
        echoFaultPlan(e, faults.plan);
        echoFaultParams(e, faults);
    };
    using F = FaultConfig;
    expectEveryFieldChecked<F>(
        plannedFaults(), echo,
        {{"fault plan size",
          [](F &f) {
              f.plan = FaultPlan::parse("0.5 server-down 3\n");
          }},
         {"fault event time",
          [](F &f) {
              editEvent(f, 1, [](FaultEvent &e) { e.time += 1.0; });
          }},
         {"fault event type",
          [](F &f) {
              editEvent(f, 0, [](FaultEvent &e) {
                  e.type = FaultEventType::ServerUp;
              });
          }},
         {"fault event server",
          [](F &f) {
              editEvent(f, 0, [](FaultEvent &e) { ++e.serverId; });
          }},
         {"fault event supply rise",
          [](F &f) {
              editEvent(f, 1, [](FaultEvent &e) { e.supplyRise = 5.0; });
          }},
         {"fault seed", [](F &f) { ++f.seed; }},
         {"fault mtbf", [](F &f) { f.mtbf = 100.0; }},
         {"fault mtbf reference temp", [](F &f) { ++f.mtbfRefTemp; }},
         {"fault mtbf doubling delta",
          [](F &f) { ++f.mtbfDoublingDelta; }},
         {"fault repair time", [](F &f) { ++f.repairTime; }},
         {"fault critical temp", [](F &f) { f.criticalTemp = 40.0; }},
         {"fault critical release", [](F &f) { ++f.criticalRelease; }}});
}

TEST(ConfigEcho, DegradedEchoEveryOtherField)
{
    serve::ServeConfig base;
    base.faults = plannedFaults();
    base.brownout.maxAirTemp = 35.0;
    base.maxQueueAge = 300.0;
    using S = serve::ServeConfig;
    expectEveryFieldChecked<S>(
        base, serve::echoDegradedConfig,
        {{"fault enable", [](S &s) { s.faults.enable = true; }},
         {"fault plan size", [](S &s) { s.faults.plan = {}; }},
         {"fault seed", [](S &s) { ++s.faults.seed; }},
         {"brownout air watermark",
          [](S &s) { ++s.brownout.maxAirTemp; }},
         {"brownout release", [](S &s) { ++s.brownout.release; }},
         {"brownout melt watermark",
          [](S &s) { s.brownout.maxMelt = 0.9; }},
         {"brownout melt release",
          [](S &s) { s.brownout.meltRelease = 0.05; }},
         {"brownout step", [](S &s) { s.brownout.step = 0.5; }},
         {"brownout floor", [](S &s) { s.brownout.floor = 0.2; }},
         {"brownout hold", [](S &s) { ++s.brownout.holdIntervals; }},
         {"max queue age", [](S &s) { s.maxQueueAge = 60.0; }},
         {"evac retries", [](S &s) { ++s.evacRetries; }}});
}

TEST(ConfigEcho, SyntheticFeedEveryField)
{
    using P = serve::SyntheticFeedParams;
    expectEveryFieldChecked<P>(
        P{}, serve::echoSyntheticFeedParams,
        {{"feed users", [](P &p) { p.users = 2e6; }},
         {"feed requests per user hour",
          [](P &p) { p.requestsPerUserHour = 1.0; }},
         {"feed diurnal trough", [](P &p) { p.diurnalTrough = 0.5; }},
         {"feed ramp hours", [](P &p) { p.rampHours = 1.0; }},
         {"feed burst period hours",
          [](P &p) { p.burstPeriodHours = 2.0; }},
         {"feed burst factor", [](P &p) { p.burstFactor = 2.0; }},
         {"feed burst minutes", [](P &p) { p.burstMinutes = 10.0; }},
         {"feed seed", [](P &p) { ++p.seed; }}});
}

/** Values print at round-trip precision: two doubles one ulp apart
 *  must not read alike in the message. */
TEST(ConfigEcho, MismatchPrintsBothValuesExactly)
{
    Serializer saved;
    ConfigEcho(saved).f64("interval", 60.0);
    Deserializer in(saved.bytes());
    try {
        ConfigEcho(in, "test snapshot")
            .f64("interval", std::nextafter(60.0, 61.0));
        FAIL() << "no FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "(interval: snapshot 60, run 60.000000000000007)"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace vmt
