#include "thermal/thermal_kernel.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "util/logging.h"

namespace vmt {

namespace {

/** --thermal-parallel-threshold override. */
std::optional<std::size_t> g_threshold_override;

/** VMT_THERMAL_PARALLEL_THRESHOLD, parsed lazily once. */
std::size_t
envThreshold()
{
    static const std::size_t parsed = [] {
        if (const char *env =
                std::getenv("VMT_THERMAL_PARALLEL_THRESHOLD")) {
            char *end = nullptr;
            const unsigned long long value =
                std::strtoull(env, &end, 10);
            if (end == env || *end != '\0')
                fatal("VMT_THERMAL_PARALLEL_THRESHOLD must be a "
                      "non-negative integer, got '" +
                      std::string(env) + "'");
            return static_cast<std::size_t>(value);
        }
        return kThermalParallelThreshold;
    }();
    return parsed;
}

} // namespace

std::size_t
thermalParallelThreshold()
{
    return g_threshold_override ? *g_threshold_override
                                : envThreshold();
}

void
setThermalParallelThreshold(std::size_t threshold)
{
    g_threshold_override = threshold;
}

} // namespace vmt
