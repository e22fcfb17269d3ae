/**
 * @file
 * Process-wide thermal-execution knob: the cluster size at or above
 * which Cluster::stepThermal fans the batched SoA kernel out on the
 * global thread pool (historically the compile-time
 * kThermalParallelThreshold).
 */

#ifndef VMT_THERMAL_THERMAL_KERNEL_H
#define VMT_THERMAL_THERMAL_KERNEL_H

#include <cstddef>

namespace vmt {

/**
 * Default parallel threshold: servers at or above this count make
 * stepThermal()/totalPower() use the chunked parallel path (when the
 * global pool has more than one thread). The 100-server sweep
 * configurations stay on the fused serial loop, which is faster at
 * that scale; the 1,000-server headline runs fan out.
 */
inline constexpr std::size_t kThermalParallelThreshold = 256;

/**
 * Cluster size at or above which stepThermal()/the SoA chunk loop use
 * the thread pool (when it has more than one thread). Resolved, in
 * priority order, from setThermalParallelThreshold() (the
 * --thermal-parallel-threshold flag), VMT_THERMAL_PARALLEL_THRESHOLD,
 * then kThermalParallelThreshold (cluster.h). The threshold affects
 * scheduling only, never values: chunk boundaries and reductions are
 * independent of where the crossover sits.
 */
std::size_t thermalParallelThreshold();

/** Override the process-wide threshold (0 = parallelize always). */
void setThermalParallelThreshold(std::size_t threshold);

} // namespace vmt

#endif // VMT_THERMAL_THERMAL_KERNEL_H
