#include "fault/fault_plan.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "state/config_echo.h"
#include "util/flags.h"
#include "util/logging.h"

namespace vmt {

const char *
faultEventTypeName(FaultEventType type)
{
    switch (type) {
      case FaultEventType::ServerDown:
        return "server-down";
      case FaultEventType::ServerUp:
        return "server-up";
      case FaultEventType::CoolingDerate:
        return "cooling-derate";
      case FaultEventType::CoolingRestore:
        return "cooling-restore";
    }
    panic("faultEventTypeName: unknown event type");
}

namespace {

void
requireSorted(const std::vector<FaultEvent> &events)
{
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i].time < events[i - 1].time)
            fatal("FaultPlan events must be sorted by time (event " +
                  std::to_string(i) + " at " +
                  std::to_string(events[i].time) +
                  " s precedes its predecessor)");
    }
}

[[noreturn]] void
badLine(const std::string &origin, std::size_t line,
        const std::string &why)
{
    fatal("fault plan " + origin + ":" + std::to_string(line) + ": " +
          why);
}

} // namespace

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events))
{
    requireSorted(events_);
}

FaultPlan
FaultPlan::parse(const std::string &text, const std::string &origin)
{
    std::vector<FaultEvent> events;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // Blank or comment-only line.
        std::istringstream row(line);
        double hours = 0.0;
        std::string keyword;
        if (!(row >> hours))
            badLine(origin, lineno,
                    "expected '<hours> <event> ...', got '" + line +
                        "'");
        if (!std::isfinite(hours) || hours < 0.0)
            badLine(origin, lineno,
                    "event time must be a finite non-negative "
                    "hour count");
        if (!(row >> keyword))
            badLine(origin, lineno, "missing event keyword");

        FaultEvent event;
        event.time = hoursToSeconds(hours);
        if (keyword == "server-down" || keyword == "server-up") {
            event.type = keyword == "server-down"
                             ? FaultEventType::ServerDown
                             : FaultEventType::ServerUp;
            long long id = -1;
            if (!(row >> id) || id < 0)
                badLine(origin, lineno,
                        keyword + " needs a non-negative server id");
            event.serverId = static_cast<std::size_t>(id);
        } else if (keyword == "cooling-derate") {
            event.type = FaultEventType::CoolingDerate;
            if (!(row >> event.supplyRise) ||
                !std::isfinite(event.supplyRise) ||
                event.supplyRise < 0.0)
                badLine(origin, lineno,
                        "cooling-derate needs a finite non-negative "
                        "supply rise in kelvin");
        } else if (keyword == "cooling-restore") {
            event.type = FaultEventType::CoolingRestore;
        } else {
            badLine(origin, lineno,
                    "unknown event '" + keyword +
                        "' (expected server-down, server-up, "
                        "cooling-derate or cooling-restore)");
        }
        std::string trailing;
        if (row >> trailing)
            badLine(origin, lineno,
                    "trailing token '" + trailing + "'");
        if (!events.empty() && event.time < events.back().time)
            badLine(origin, lineno,
                    "event times must be non-decreasing");
        events.push_back(event);
    }
    requireSorted(events);
    return FaultPlan(std::move(events));
}

FaultPlan
FaultPlan::shardSlice(std::size_t first, std::size_t count) const
{
    std::vector<FaultEvent> sliced;
    for (const FaultEvent &event : events_) {
        if (event.type == FaultEventType::ServerDown ||
            event.type == FaultEventType::ServerUp) {
            if (event.serverId < first ||
                event.serverId >= first + count)
                continue;
            FaultEvent local = event;
            local.serverId = event.serverId - first;
            sliced.push_back(local);
        } else {
            sliced.push_back(event);
        }
    }
    return FaultPlan(std::move(sliced));
}

FaultPlan
FaultPlan::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault plan '" + path + "'");
    std::ostringstream body;
    body << in.rdbuf();
    return parse(body.str(), path);
}

FaultConfig
faultConfigFromFlags(const Flags &flags)
{
    FaultConfig config;
    if (flags.has("fault-plan"))
        config.plan = FaultPlan::loadFile(flags.getString("fault-plan"));
    config.seed =
        static_cast<std::uint64_t>(flags.getInt("fault-seed", 1));
    config.mtbf = flags.getNonNegative("fault-mtbf", 0.0);
    config.repairTime = flags.getNonNegative("fault-repair", 4.0);
    config.criticalTemp = flags.getNonNegative("critical-temp", 0.0);
    return config;
}

void
echoFaultPlan(ConfigEcho &echo, const FaultPlan &plan)
{
    echo.u64("fault plan size", plan.size());
    for (const FaultEvent &event : plan.events()) {
        echo.f64("fault event time", event.time);
        echo.u8("fault event type", static_cast<std::uint8_t>(event.type));
        echo.u64("fault event server", event.serverId);
        echo.f64("fault event supply rise", event.supplyRise);
    }
}

void
echoFaultParams(ConfigEcho &echo, const FaultConfig &config)
{
    echo.u64("fault seed", config.seed);
    echo.f64("fault mtbf", config.mtbf);
    echo.f64("fault mtbf reference temp", config.mtbfRefTemp);
    echo.f64("fault mtbf doubling delta", config.mtbfDoublingDelta);
    echo.f64("fault repair time", config.repairTime);
    echo.f64("fault critical temp", config.criticalTemp);
    echo.f64("fault critical release", config.criticalRelease);
}

} // namespace vmt
