/**
 * @file
 * Scalar reference schedulers: the historical implementations of the
 * group-based policies, which rebuild their groups each interval by
 * walking the per-object Server accessors into heaps (BalancedGroup,
 * std::priority_queue). They pin the production schedulers' dense
 * PlacementView + BlockMinGroup path (DESIGN.md §14) decision for
 * decision: same names, same saveState layout, same choices. Not
 * linked into the simulator; the `sched` ctest suite and
 * perf_placement use them.
 */

#ifndef VMT_TESTS_REFERENCE_SCALAR_SCHEDULERS_H
#define VMT_TESTS_REFERENCE_SCALAR_SCHEDULERS_H

#include <cstddef>
#include <queue>
#include <vector>

#include "core/adaptive_vmt.h"
#include "core/vmt_config.h"
#include "core/vmt_ta.h"
#include "sched/balanced_group.h"
#include "sched/scheduler.h"

namespace vmt::reference {

/** (temperature, server id) heap entry, ordered by (temp, id). */
struct HeapEntry
{
    Celsius temp;
    std::size_t id;
    bool operator<(const HeapEntry &o) const
    {
        if (temp != o.temp)
            return temp < o.temp;
        return id < o.id;
    }
    bool operator>(const HeapEntry &o) const { return o < *this; }
};

/** Coolest-first over a per-interval priority_queue of n sift-ups. */
class ScalarCoolestFirst : public Scheduler
{
  public:
    std::string name() const override { return "CoolestFirst"; }
    void beginInterval(Cluster &cluster, Seconds now) override;
    std::size_t placeJob(Cluster &cluster, const Job &job) override;

  private:
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>>
        pq_;
};

/** VMT-TA over two BalancedGroup heaps filled through add(). */
class ScalarVmtTa : public Scheduler
{
  public:
    ScalarVmtTa(const VmtConfig &config, const HotMask &hot_mask);
    std::string name() const override { return "VMT-TA"; }
    void beginInterval(Cluster &cluster, Seconds now) override;
    std::size_t placeJob(Cluster &cluster, const Job &job) override;
    std::optional<std::size_t> hotGroupSize() const override;

  private:
    VmtConfig config_;
    HotMask hotMask_;
    bool initialized_ = false;
    std::size_t hotSize_ = 0;
    BalancedGroup hotGroup_;
    BalancedGroup coldGroup_;
};

/** VMT-WA with an accessor walk per interval and BalancedGroup heaps;
 *  the public surface AdaptiveVmt drives matches VmtWaScheduler. */
class ScalarVmtWa : public Scheduler
{
  public:
    ScalarVmtWa(const VmtConfig &config, const HotMask &hot_mask);
    std::string name() const override { return "VMT-WA"; }
    void beginInterval(Cluster &cluster, Seconds now) override;
    std::size_t placeJob(Cluster &cluster, const Job &job) override;
    std::optional<std::size_t> hotGroupSize() const override;
    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override;
    std::size_t meltedCount() const { return meltedCount_; }
    double groupingValue() const { return config_.groupingValue; }
    std::size_t baseHotGroupSize() const { return baseHotSize_; }
    void setGroupingValue(double gv);
    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    std::size_t placeHot(Cluster &cluster, Watts watts);
    std::size_t placeCold(Cluster &cluster, Watts watts);
    bool placeable(const Server &srv) const;

    VmtConfig config_;
    HotMask hotMask_;
    bool initialized_ = false;
    std::size_t baseHotSize_ = 0;
    std::size_t hotSize_ = 0;
    std::size_t meltedCount_ = 0;
    std::size_t domainCap_ = 0;
    Watts keepWarmPower_ = 0.0;
    BalancedGroup keepWarm_;
    BalancedGroup hotPlaceable_;
    BalancedGroup coldGroup_;
    std::vector<std::size_t> hotMelted_;
    std::size_t meltedCursor_ = 0;
    std::size_t anyCursor_ = 0;
};

/** VMT-Preserve over a std::priority_queue pair plus a BalancedGroup
 *  cold group. */
class ScalarVmtPreserve : public Scheduler
{
  public:
    ScalarVmtPreserve(const VmtConfig &config, const HotMask &hot_mask);
    std::string name() const override { return "VMT-Preserve"; }
    void beginInterval(Cluster &cluster, Seconds now) override;
    std::size_t placeJob(Cluster &cluster, const Job &job) override;
    std::optional<std::size_t> hotGroupSize() const override;

  private:
    std::size_t placeHot(Cluster &cluster, Watts watts);
    std::size_t placePacked(std::priority_queue<HeapEntry> &heap,
                            Cluster &cluster, Watts watts);

    VmtConfig config_;
    HotMask hotMask_;
    bool initialized_ = false;
    std::size_t hotSize_ = 0;
    std::priority_queue<HeapEntry> meltedPq_;
    std::priority_queue<HeapEntry> packingPq_;
    BalancedGroup coldGroup_;
};

/** AdaptiveVmtScheduler's GV thermostat wrapped around ScalarVmtWa. */
class ScalarAdaptiveVmt : public Scheduler
{
  public:
    ScalarAdaptiveVmt(const VmtConfig &config, const HotMask &hot_mask,
                      const AdaptiveVmtParams &params = {});
    std::string name() const override { return "VMT-Adaptive"; }
    void beginInterval(Cluster &cluster, Seconds now) override;
    std::size_t placeJob(Cluster &cluster, const Job &job) override;
    std::optional<std::size_t> hotGroupSize() const override;
    std::vector<MigrationRequest>
    proposeMigrations(Cluster &cluster, Seconds now) override;
    void saveState(Serializer &out) const override;
    void loadState(Deserializer &in) override;

  private:
    ScalarVmtWa inner_;
    AdaptiveVmtParams params_;
    Celsius meltTemp_;
    bool wasBusy_ = false;
    double upBudget_ = 0.0;
    double downBudget_ = 0.0;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SCALAR_SCHEDULERS_H
