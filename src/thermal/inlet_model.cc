#include "thermal/inlet_model.h"

#include <cmath>
#include <string>

#include "util/logging.h"

namespace vmt {

std::vector<Kelvin>
drawInletOffsets(std::size_t num_servers, Kelvin stddev, Rng &rng)
{
    if (!(std::isfinite(stddev) && stddev >= 0.0))
        fatal("inlet stddev must be a finite number of kelvin >= 0, "
              "got " + std::to_string(stddev));
    std::vector<Kelvin> offsets(num_servers, 0.0);
    if (stddev == 0.0)
        return offsets;
    for (auto &offset : offsets)
        offset = rng.normal(0.0, stddev);
    return offsets;
}

} // namespace vmt
