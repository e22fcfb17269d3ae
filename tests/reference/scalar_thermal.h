/**
 * @file
 * Per-object thermal oracle: the historical scalar Cluster::stepThermal
 * — one Server::stepThermal per server over unbound Server objects —
 * kept to pin the batched SoA kernel (DESIGN.md §13) bitwise. Not
 * linked into the simulator; the `kernel` ctest suites and
 * perf_kernel use it.
 *
 * The oracle shadows a live Cluster: it copies every server's state
 * once, then before each step re-reads only the inputs a driver sets
 * between steps (job mix, health, inlet) and advances its own thermal
 * state. Equal samples and equal per-server state after every step
 * mean the two kernels agree bitwise along the whole trajectory.
 */

#ifndef VMT_TESTS_REFERENCE_SCALAR_THERMAL_H
#define VMT_TESTS_REFERENCE_SCALAR_THERMAL_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "server/cluster.h"
#include "sim/simulation.h"

namespace vmt {
class Deserializer;
class Serializer;
} // namespace vmt

namespace vmt::reference {

/** Unbound shadow copies of a cluster's servers, stepped one by one. */
class ScalarThermal
{
  public:
    /** Shadow every server of `cluster` in its current state. */
    explicit ScalarThermal(const Cluster &cluster);

    std::size_t numServers() const { return servers_.size(); }
    const Server &server(std::size_t id) const { return servers_[id]; }
    const PowerModel &powerModel() const { return power_; }

    /**
     * Copy the inputs a driver changes between steps — each server's
     * job mix, health and base inlet, and the cluster's base inlet —
     * leaving the shadow's thermal state and throttle latches alone.
     */
    void syncInputs(const Cluster &cluster);

    /**
     * The scalar kernel: Server::stepThermal per server (fanned out
     * on the global pool with the Cluster's fixed grain at or above
     * thermalParallelThreshold()), reduced serially in index order.
     */
    ClusterSample step(Seconds dt, Celsius hot_threshold = 1e9);

    /** Serial index-order power sum (Cluster::totalPower's order). */
    Watts totalPower() const;

    /** Same layout as Cluster::saveState / loadState, so a snapshot's
     *  CLUS section restores straight into the oracle. Health is not
     *  part of that layout (it lives in the FALT section); loadState
     *  leaves it unchanged. */
    void saveState(Serializer &out) const;
    void loadState(Deserializer &in);

  private:
    PowerModel power_;
    Celsius baseInlet_;
    std::vector<Server> servers_;
    std::vector<ThermalSample> stepScratch_;
};

/**
 * First per-server difference between a cluster and its oracle
 * (thermal state, throttle latch, health, power), or empty when they
 * agree bitwise.
 */
std::string describeDivergence(const Cluster &cluster,
                               const ScalarThermal &oracle);

/**
 * Lockstep a whole runSimulation against the oracle: the restore hook
 * shadows the cluster just before the first interval, and the
 * observer steps the shadow after every driver interval and compares
 * per-server state.
 */
class ThermalLockstep
{
  public:
    /**
     * Wrap `config`'s restore hook (installed first by
     * attachCheckpointing when resuming). With `snapshot` set, the
     * oracle loads its servers from that file's CLUS section instead
     * of copying the restored cluster.
     */
    void attach(SimConfig &config, const std::string &snapshot = {});

    /** The per-interval observer to pass to runSimulation. */
    SimObserver observer();

    /** Oracle samples, one per interval stepped in this run. */
    const std::vector<ClusterSample> &samples() const
    {
        return samples_;
    }

    /** First divergence seen (describeDivergence), empty if none. */
    const std::string &divergence() const { return divergence_; }

  private:
    std::optional<ScalarThermal> oracle_;
    Seconds dt_ = 0.0;
    Celsius hotThreshold_ = 0.0;
    std::vector<ClusterSample> samples_;
    std::string divergence_;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SCALAR_THERMAL_H
