#include "thermal/thermal_kernel.h"

namespace vmt {

namespace {

std::size_t g_threshold = kThermalParallelThreshold;

} // namespace

std::size_t
thermalParallelThreshold()
{
    return g_threshold;
}

void
setThermalParallelThreshold(std::size_t threshold)
{
    g_threshold = threshold;
}

} // namespace vmt
