#include "core/vmt_config.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace vmt {

std::size_t
hotGroupSizeFor(const VmtConfig &config, std::size_t num_servers)
{
    if (!(std::isfinite(config.groupingValue) &&
          config.groupingValue > 0.0))
        fatal("VmtConfig::groupingValue must be finite and positive, "
              "got " + std::to_string(config.groupingValue));
    if (config.physicalMeltTemp <= 0.0)
        fatal("VmtConfig::physicalMeltTemp must be positive");

    const double fraction =
        config.groupingValue / config.physicalMeltTemp;
    const auto size = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(num_servers)));
    return std::min(size, num_servers);
}

std::size_t
coldGroupSizeFor(const VmtConfig &config, std::size_t num_servers)
{
    return num_servers - hotGroupSizeFor(config, num_servers);
}

} // namespace vmt
