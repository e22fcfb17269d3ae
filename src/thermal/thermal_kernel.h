/**
 * @file
 * The cluster size at or above which Cluster::stepThermal fans the
 * batched SoA kernel out on the global thread pool.
 */

#ifndef VMT_THERMAL_THERMAL_KERNEL_H
#define VMT_THERMAL_THERMAL_KERNEL_H

#include <cstddef>

namespace vmt {

/**
 * Default parallel threshold: servers at or above this count make
 * stepThermal() use the chunked parallel path (when the global pool
 * has more than one thread). It is the measured crossover of
 * bench/perf_kernel's serial-vs-fan-out table (DESIGN.md §8): the
 * serial SoA step costs ~25-30 ns per server, so below ~8k servers
 * waking the pool costs more than the work it spreads. The 100-server
 * sweeps, the 1,000-server headline runs and vmtserve's pods all stay
 * on the fused serial loop.
 */
inline constexpr std::size_t kThermalParallelThreshold = 8192;

/**
 * Cluster size at or above which stepThermal()/the SoA chunk loop use
 * the thread pool (when it has more than one thread):
 * kThermalParallelThreshold unless setThermalParallelThreshold()
 * moved it. The threshold affects scheduling only, never values:
 * chunk boundaries and reductions are independent of where the
 * crossover sits.
 */
std::size_t thermalParallelThreshold();

/** Move the threshold (0 = parallelize always); tests and
 *  bench/perf_kernel's crossover table reach either path with it. */
void setThermalParallelThreshold(std::size_t threshold);

} // namespace vmt

#endif // VMT_THERMAL_THERMAL_KERNEL_H
