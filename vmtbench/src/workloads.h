/**
 * @file
 * The benchmark's workloads and the op that runs one of them once.
 *
 * Batch workloads drive runSimulation(SimConfig, Scheduler&,
 * SimObserver) through a scheduler decorator; serving workloads drive
 * serve::ShardedDriver::run(JobFeed&) through a feed wrapper that
 * generates the seeded arrival stream lazily and times itself, so
 * generation time is subtracted from the program's cost.
 */

#ifndef VMTBENCH_WORKLOADS_H
#define VMTBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "serve/job_feed.h"
#include "serve/sharded_driver.h"
#include "sim/simulation.h"
#include "tracing.h"

namespace vmtbench {

enum class Kind { Batch, Serve };

/** One named workload (see README.md for why each exists). */
struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Batch;
    /** core/policy_factory.h policy name (GV 22, threshold 0.98). */
    std::string policy = "wa";
    std::size_t servers = 1000;
    /** Simulated one-minute intervals per op. */
    std::size_t intervals = 2880;
    /** Degraded serving: outage wave, derate, brownout, deadline,
     *  periodic checkpoints. */
    bool outage = false;
    /** False for shortened variants (no reference statistics). */
    bool fullSize = true;
};

/** The four benchmark workloads. */
const std::vector<WorkloadSpec> &workloads();

/** Look a workload up by name; null when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** A smaller copy of @p spec (tests and quick checks). */
WorkloadSpec shortened(const WorkloadSpec &spec, std::size_t servers,
                       std::size_t intervals);

/** Batch run configuration for a workload and seed. */
vmt::SimConfig batchConfig(const WorkloadSpec &spec,
                           std::uint64_t seed);

/** Serving configuration; checkpoints (outage only) go under
 *  @p work_dir. */
vmt::serve::ServeConfig serveConfig(const WorkloadSpec &spec,
                                    std::uint64_t seed,
                                    const std::string &work_dir);

/** Arrival stream parameters for a serving workload and seed: the
 *  default SyntheticFeed, with the user population scaled to the
 *  fleet (1e6 users at 10,000 servers). */
vmt::serve::SyntheticFeedParams feedParams(const WorkloadSpec &spec,
                                           std::uint64_t seed);

/**
 * Scheduler decorator: forwards every virtual method to the policy it
 * wraps and counts the jobs handed to placement. With a tracer it also
 * records the batch op's spans: each hook — beginInterval and
 * placeJobs entry and exit, the interval observer, the return of
 * runSimulation — closes the span that began at the previous one, so
 * the spans tile the call without gaps.
 */
class TimedScheduler final : public vmt::Scheduler
{
  public:
    /** @param tracer Span sink (traced ops), or null.
     *  @param root The op's root span, opened at @p start. */
    TimedScheduler(std::unique_ptr<vmt::Scheduler> inner,
                   vmt::Seconds interval_length, Tracer *tracer,
                   std::int32_t root, std::int64_t start);

    std::string name() const override;
    void beginInterval(vmt::Cluster &cluster,
                       vmt::Seconds now) override;
    std::size_t placeJob(vmt::Cluster &cluster,
                         const vmt::Job &job) override;
    void placeJobs(vmt::Cluster &cluster,
                   std::span<const vmt::Job> jobs,
                   std::vector<std::size_t> &out) override;
    std::optional<std::size_t> hotGroupSize() const override;
    std::vector<vmt::MigrationRequest>
    proposeMigrations(vmt::Cluster &cluster, vmt::Seconds now) override;
    void saveState(vmt::Serializer &out) const override;
    void loadState(vmt::Deserializer &in) override;

    /** The interval observer ran at @p ns (closes sim.post_place). */
    void observed(std::int64_t ns, std::int64_t interval);
    /** runSimulation returned at @p ns (closes sim.finish). */
    void finished(std::int64_t ns);

    /** Jobs handed to placeJob/placeJobs. */
    std::uint64_t jobs() const { return jobs_; }
    /** Of those, jobs the policy placed / could not place. */
    std::uint64_t placed() const { return placed_; }
    std::uint64_t unplaced() const { return jobs_ - placed_; }

  private:
    /** Record the span from the previous hook to now. */
    void close(const char *name);

    std::unique_ptr<vmt::Scheduler> inner_;
    vmt::Seconds intervalLength_;
    Tracer *tracer_;
    std::int32_t root_;
    std::int64_t last_;
    bool begun_ = false;
    std::int64_t interval_ = 0;
    std::uint64_t jobs_ = 0;
    std::uint64_t placed_ = 0;
};

/**
 * JobFeed wrapper: generates the seeded SyntheticFeed stream lazily
 * on each pull and times every call, so the caller can subtract the
 * time the driver spent inside the feed and measure host time per
 * interval from one pull to the next.
 */
class TimedFeed final : public vmt::serve::JobFeed
{
  public:
    /** @param tracer Span sink (traced ops), or null.
     *  @param parent The op's root span. */
    TimedFeed(const vmt::serve::SyntheticFeedParams &params,
              Tracer *tracer, std::int32_t parent);

    std::string name() const override;
    void arrivalsUntil(vmt::Seconds end,
                       std::vector<vmt::serve::FeedJob> &out) override;
    bool exhausted() const override;
    void saveState(vmt::Serializer &out) const override;
    void loadState(vmt::Deserializer &in) override;

    /** Mark the start of ShardedDriver::run (the first gap's start). */
    void start(std::int64_t ns);
    /** Mark the return from run: closes the last interval sample. */
    void finish(std::int64_t ns);

    /** Host seconds per interval: from the end of one pull to the
     *  start of the next (the last one ends at finish()). */
    const std::vector<double> &intervalSeconds() const
    {
        return intervals_;
    }
    /** Seconds inside arrivalsUntil (wrapper included). */
    double feedSeconds() const { return feedSeconds_; }
    /** Seconds inside the wrapped generator alone. */
    double generateSeconds() const { return generateSeconds_; }
    /** Arrivals handed to the driver. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    vmt::serve::SyntheticFeed inner_;
    Tracer *tracer_;
    std::int32_t parent_;
    std::int64_t runStart_ = 0;
    std::int64_t lastExit_ = -1;
    std::vector<double> intervals_;
    double feedSeconds_ = 0.0;
    double generateSeconds_ = 0.0;
    std::uint64_t delivered_ = 0;
};

/** What one op measured and produced. */
struct OpResult
{
    /** Hash of every simulated statistic (checks.h). */
    std::uint64_t digest = 0;
    /** Hash of the kept JSONL telemetry (traced serving ops). */
    std::optional<std::uint64_t> telemetryDigest;
    /** Headline simulated statistics, one line (for the log). */
    std::string summary;
    /** Conservation-identity violations (empty = all hold). */
    std::vector<std::string> errors;
    /** Jobs offered (batch: generated; serve: arrivals) and jobs not
     *  served (batch: dropped + lost; serve: shed + expired + lost +
     *  dropped). */
    std::uint64_t jobs = 0;
    std::uint64_t failedJobs = 0;
    std::size_t intervals = 0;
    /** Program wall seconds: batch = the runSimulation call; serve =
     *  the run() call minus feedSeconds. */
    double wallSeconds = 0.0;
    /** Seconds spent in the feed wrapper (serve; excluded from
     *  wallSeconds). */
    double feedSeconds = 0.0;
    /** Set-up samples: batch = entry to first observer callback;
     *  serve = each ShardedDriver construction. */
    std::vector<double> setupSeconds;
    /** Host seconds per interval. */
    std::vector<double> intervalSeconds;
    /** Traced ops: per-layer metric values (unset layers read 0). */
    std::map<std::string, double> layers;
};

/**
 * Run @p spec once. Traced ops record spans into @p tracer (which must
 * be non-null then) and attach an obs::Observability for the
 * program's own profile.* metrics; untraced ops read the clock only
 * where an end-to-end metric needs it.
 */
OpResult runOp(const WorkloadSpec &spec, std::uint64_t seed,
               Tracer *tracer, const std::string &work_dir);

} // namespace vmtbench

#endif // VMTBENCH_WORKLOADS_H
