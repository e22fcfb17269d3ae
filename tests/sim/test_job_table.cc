/**
 * @file
 * JobTable, the running-job bookkeeping both drivers share: a
 * randomized bind / drain / evacuate (re-home or rebind) / migrate
 * sequence checked after every step against a plain multiset of
 * (server, workload, due) — tombstones under kNoServer — plus the
 * save/load round trip and the decoder's refusals of corrupt layouts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "reference/job_table_save.h"
#include "server/cluster.h"
#include "sim/job_table.h"
#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {
namespace {

constexpr std::size_t kServers = 5;
constexpr Seconds kDt = 60.0;

/** (server or kNoServer, workload index, due time). */
using Entry = std::tuple<std::size_t, std::size_t, Seconds>;
using Model = std::multiset<Entry>;

Cluster
makeCluster()
{
    return Cluster(kServers, ServerSpec{}, ServerThermalParams{},
                   PowerModel({}, 1.77));
}

/** The table's pending jobs as the model sees them, after checking
 *  the residency lists, free list and cluster counts agree. */
Model
observe(const JobTable &table, const Cluster &cluster)
{
    const auto &slots = table.slots();
    std::vector<bool> free(slots.size(), false);
    for (std::uint32_t slot : table.freeList()) {
        EXPECT_LT(slot, slots.size());
        EXPECT_FALSE(free[slot]) << "slot " << slot << " freed twice";
        free[slot] = true;
    }
    std::size_t resident = 0;
    for (std::size_t server = 0; server < kServers; ++server) {
        for (const WorkloadType type : kAllWorkloads) {
            const auto &ids = table.residents(server, type);
            EXPECT_EQ(cluster.server(server)
                          .coreCounts()[workloadIndex(type)],
                      ids.size());
            for (std::size_t pos = 0; pos < ids.size(); ++pos) {
                const SimActiveJob &job = slots[ids[pos]];
                EXPECT_FALSE(free[ids[pos]]);
                EXPECT_EQ(job.serverId, server);
                EXPECT_EQ(job.type, type);
                EXPECT_EQ(job.pos, pos);
            }
            resident += ids.size();
        }
    }
    // The calendar holds exactly the slots not on the free list.
    Model pending;
    std::size_t live = 0;
    std::vector<bool> departs(slots.size(), false);
    table.departures().visitPending([&](Seconds due, std::uint32_t slot) {
        EXPECT_FALSE(free[slot] || departs[slot]) << "slot " << slot;
        departs[slot] = true;
        pending.emplace(slots[slot].serverId,
                        workloadIndex(slots[slot].type), due);
        live += slots[slot].serverId != kNoServer ? 1 : 0;
    });
    EXPECT_EQ(pending.size() + table.freeList().size(), slots.size());
    EXPECT_EQ(live, resident);
    return pending;
}

/** Drives one table and its cluster the way the drivers do, keeping
 *  the multiset model in step. */
struct Harness
{
    Cluster cluster = makeCluster();
    JobTable table{kServers, kDt};
    Model model;
    Rng rng{20261019};
    Seconds now = 0.0;

    /** A server that can take one more job other than `not_this`, or
     *  kNoServer. */
    std::size_t
    roomyServer(std::size_t not_this = kNoServer)
    {
        const std::size_t start = rng.below(kServers);
        for (std::size_t k = 0; k < kServers; ++k) {
            const std::size_t id = (start + k) % kServers;
            if (id != not_this &&
                std::as_const(cluster).server(id).hasCapacity())
                return id;
        }
        return kNoServer;
    }

    /** A due time at or after now: sometimes on a boundary (ties),
     *  sometimes between boundaries. */
    Seconds
    dueTime()
    {
        const double steps = static_cast<double>(rng.below(6));
        return rng.uniform() < 0.5 ? now + steps * kDt
                                   : now + rng.uniform(0.0, 5.0 * kDt);
    }

    void
    bind()
    {
        const std::size_t server = roomyServer();
        if (server == kNoServer)
            return;
        const WorkloadType type = kAllWorkloads[rng.below(kNumWorkloads)];
        const Seconds due = dueTime();
        cluster.addJob(server, type); // The scheduler's placement.
        table.bind(server, type, due);
        model.emplace(server, workloadIndex(type), due);
    }

    void
    drain()
    {
        now += kDt;
        std::size_t expected = 0;
        for (auto it = model.begin(); it != model.end();) {
            if (std::get<2>(*it) <= now) {
                expected += std::get<0>(*it) != kNoServer ? 1 : 0;
                it = model.erase(it);
            } else {
                ++it;
            }
        }
        EXPECT_EQ(table.drainDue(now, cluster), expected);
    }

    /** Fail one or two servers: their jobs become tombstones, then
     *  each is re-homed in place (batch), rebound at its due time
     *  (serve) or left lost. */
    void
    evacuate(bool batch)
    {
        std::vector<std::size_t> failed = {rng.below(kServers)};
        if (rng.uniform() < 0.5)
            failed.push_back((failed[0] + 1 + rng.below(kServers - 1)) %
                             kServers);
        std::multiset<std::pair<std::size_t, Seconds>> on_failed;
        for (auto it = model.begin(); it != model.end();) {
            const auto &[server, type, due] = *it;
            if (std::find(failed.begin(), failed.end(), server) !=
                failed.end()) {
                on_failed.emplace(type, due);
                model.emplace(kNoServer, type, due);
                it = model.erase(it);
            } else {
                ++it;
            }
        }
        for (const std::size_t id : failed)
            cluster.setHealth(id, ServerHealth::Failed);
        std::multiset<std::pair<std::size_t, Seconds>> drained;
        std::vector<std::tuple<std::uint32_t, WorkloadType, Seconds>>
            refugees;
        table.evacuate(failed, cluster,
                       [&](std::uint32_t slot, WorkloadType type,
                           Seconds due) {
                           drained.emplace(workloadIndex(type), due);
                           refugees.emplace_back(slot, type, due);
                       });
        EXPECT_EQ(drained, on_failed);
        for (const auto &[slot, type, due] : refugees) {
            EXPECT_EQ(table.slots()[slot].serverId, kNoServer);
            const std::size_t to = roomyServer();
            if (to == kNoServer || rng.uniform() < 0.3)
                continue; // Lost: the slot stays a tombstone.
            cluster.addJob(to, type);
            if (batch) {
                table.rehome(slot, to);
                const auto it =
                    model.find({kNoServer, workloadIndex(type), due});
                ASSERT_NE(it, model.end());
                model.erase(it);
            } else {
                table.bind(to, type, due);
            }
            model.emplace(to, workloadIndex(type), due);
        }
        for (const std::size_t id : failed)
            cluster.setHealth(id, ServerHealth::Up);
    }

    void
    migrate()
    {
        const std::size_t from = rng.below(kServers);
        const std::size_t to = roomyServer(from);
        if (to == kNoServer)
            return;
        const WorkloadType type = kAllWorkloads[rng.below(kNumWorkloads)];
        const auto &ids = table.residents(from, type);
        const bool has_job = !ids.empty();
        Seconds due = 0.0;
        if (has_job)
            table.departures().visitPending(
                [&](Seconds time, std::uint32_t slot) {
                    if (slot == ids.back())
                        due = time;
                });
        ASSERT_EQ(table.migrate(from, to, type, cluster), has_job);
        if (!has_job)
            return;
        const auto it = model.find({from, workloadIndex(type), due});
        ASSERT_NE(it, model.end());
        model.erase(it);
        model.emplace(to, workloadIndex(type), due);
    }

    void
    step()
    {
        const double dice = rng.uniform();
        if (dice < 0.45)
            bind();
        else if (dice < 0.70)
            drain();
        else if (dice < 0.78)
            evacuate(/*batch=*/true);
        else if (dice < 0.86)
            evacuate(/*batch=*/false);
        else
            migrate();
    }
};

TEST(JobTable, RandomizedOpsTrackTheMultisetModel)
{
    Harness h;
    for (int op = 0; op < 4000; ++op) {
        h.step();
        ASSERT_EQ(observe(h.table, h.cluster), h.model) << "op " << op;
    }
    // Drain everything: every slot ends free, every core released.
    for (int k = 0; k < 8; ++k)
        h.drain();
    EXPECT_TRUE(h.model.empty());
    EXPECT_EQ(h.table.departures().size(), 0u);
    EXPECT_EQ(h.table.freeList().size(), h.table.slots().size());
    EXPECT_EQ(h.cluster.busyCores(), 0u);
}

std::vector<std::uint8_t>
saved(const JobTable &table)
{
    Serializer out;
    table.save(out);
    return out.bytes();
}

TEST(JobTable, SaveLoadSaveRoundTripIsByteEqual)
{
    Harness h;
    for (int op = 0; op < 3000; ++op)
        h.step();
    ASSERT_GT(h.table.departures().size(), 0u);
    const std::vector<std::uint8_t> bytes = saved(h.table);

    JobTable loaded(kServers, kDt);
    Deserializer in(bytes);
    loaded.load(in, h.now);
    in.expectEnd();
    EXPECT_EQ(saved(loaded), bytes);

    // The rebuilt calendar drains in the original order: a cluster
    // holding the same jobs, drained alongside, completes the same
    // jobs per boundary and ends in the same state.
    Cluster twin = makeCluster();
    for (std::size_t server = 0; server < kServers; ++server)
        for (const WorkloadType type : kAllWorkloads)
            for (std::size_t k = 0;
                 k < loaded.residents(server, type).size(); ++k)
                twin.addJob(server, type);
    EXPECT_EQ(observe(loaded, twin), h.model);
    for (int k = 0; k < 3; ++k) {
        const Seconds next = h.now + kDt;
        EXPECT_EQ(loaded.drainDue(next, twin),
                  h.table.drainDue(next, h.cluster));
        h.now = next;
        EXPECT_EQ(saved(loaded), saved(h.table));
    }
}

/**
 * The sized in-place encoder against the put-by-put reference
 * (tests/reference/job_table_save.h), byte for byte, on tables built
 * to cover each state the calendar can be in at a checkpoint:
 * buckets of 0, 1, 2, the insertion-sort cut-off +-1 and up to 300
 * entries, equal times, -0.0 against +0.0, tombstones, stale freed
 * slots, and a sorted front bucket drained part-way that then takes
 * late inserts.
 */
TEST(JobTable, SaveMatchesThePutByPutReference)
{
    constexpr std::size_t kManyServers = 160;
    constexpr std::size_t kCut = IntervalQueue<std::uint32_t>::kInsertionSortMax;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        Cluster cluster(kManyServers, ServerSpec{}, ServerThermalParams{},
                        PowerModel({}, 1.77));
        JobTable table(kManyServers, kDt);
        const auto expectMatch = [&](const char *when) {
            Serializer out;
            table.save(out);
            Serializer ref;
            reference::saveJobTable(table, ref);
            EXPECT_EQ(out.bytes(), ref.bytes())
                << when << ", seed " << seed;
        };
        const auto bindAs = [&](WorkloadType type, Seconds due) {
            std::size_t server = rng.below(kManyServers);
            while (!std::as_const(cluster).server(server).hasCapacity())
                server = (server + 1) % kManyServers;
            cluster.addJob(server, type);
            table.bind(server, type, due);
        };
        const auto bind = [&](Seconds due) {
            bindAs(kAllWorkloads[rng.below(kNumWorkloads)], due);
        };

        // Bucket 0: -0.0 and +0.0 tie. Bucket k + 1 (times in
        // (k dt, (k + 1) dt]) gets the k-th size of a shuffled list;
        // a quarter of its entries share one time, some sit on the
        // boundary itself.
        bind(-0.0);
        bind(0.0);
        bind(-0.0);
        std::vector<std::size_t> sizes = {0,        1,        2,
                                          kCut - 1, kCut,     kCut + 1,
                                          2 * kCut, 300,      rng.below(301)};
        for (std::size_t k = sizes.size(); k > 1; --k)
            std::swap(sizes[k - 1], sizes[rng.below(k)]);
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            const Seconds lo = static_cast<double>(k) * kDt;
            const Seconds tie = lo + rng.uniform(1e-6, kDt);
            for (std::size_t i = 0; i < sizes[k]; ++i) {
                switch (rng.below(4)) {
                case 0:
                    bind(tie);
                    break;
                case 1:
                    bind(lo + kDt);
                    break;
                default:
                    bind(lo + rng.uniform(1e-6, kDt));
                    break;
                }
            }
        }
        expectMatch("fresh table");

        // Tombstones: two servers fail; some refugees are re-bound
        // elsewhere at their due times, the rest stay lost.
        const std::size_t failed[] = {rng.below(kManyServers / 2),
                                      kManyServers / 2 +
                                          rng.below(kManyServers / 2)};
        for (const std::size_t id : failed)
            cluster.setHealth(id, ServerHealth::Failed);
        std::vector<std::pair<WorkloadType, Seconds>> refugees;
        table.evacuate(failed, cluster,
                       [&](std::uint32_t, WorkloadType type, Seconds due) {
                           if (rng.below(2) == 0)
                               refugees.emplace_back(type, due);
                       });
        for (const auto &[type, due] : refugees)
            bindAs(type, due);
        for (const std::size_t id : failed)
            cluster.setHealth(id, ServerHealth::Up);
        expectMatch("after an evacuation");

        // Stale freed slots, and a front sorted by the drain.
        table.drainDue(kDt, cluster);
        expectMatch("after a boundary drain");

        // Drain the next bucket part-way, then insert into its sorted
        // remainder: zero durations at the drain point, late times
        // (clamped into the front) and ties with pending entries.
        const Seconds now = 1.5 * kDt;
        table.drainDue(now, cluster);
        expectMatch("front drained part-way");
        for (int i = 0; i < 60; ++i) {
            switch (rng.below(3)) {
            case 0:
                bind(now);
                break;
            case 1:
                bind(rng.uniform(0.0, now));
                break;
            default:
                bind(now + rng.uniform(0.0, 0.5 * kDt));
                break;
            }
        }
        expectMatch("late inserts into the sorted front");

        // Reused slots and shrinking buckets, down to an empty table.
        for (std::size_t b = 2; !table.departures().empty(); ++b) {
            table.drainDue(static_cast<double>(b) * kDt, cluster);
            if (rng.below(2) == 0)
                bind(static_cast<double>(b) * kDt +
                     rng.uniform(0.0, 3.0 * kDt));
            expectMatch("draining");
        }
        expectMatch("empty calendar");
        if (::testing::Test::HasFailure())
            return;
    }
}

/** The save() layout, written field by field so a test can corrupt
 *  any one of them. */
struct Layout
{
    std::vector<SimActiveJob> slots;
    std::vector<std::uint32_t> free;
    std::array<std::array<std::vector<std::uint32_t>, kNumWorkloads>, 2>
        residents;
    std::vector<std::pair<Seconds, std::uint32_t>> departures;
    /** Written in place of slots.size() when set. */
    std::size_t slotCount = 0;

    std::vector<std::uint8_t>
    encode() const
    {
        Serializer out;
        out.putSize(slotCount ? slotCount : slots.size());
        for (const SimActiveJob &job : slots) {
            out.putSize(job.serverId);
            out.putU8(static_cast<std::uint8_t>(job.type));
            out.putU32(job.pos);
        }
        out.putSize(free.size());
        for (std::uint32_t slot : free)
            out.putU32(slot);
        for (const auto &per_server : residents) {
            for (const auto &ids : per_server) {
                out.putSize(ids.size());
                for (std::uint32_t slot : ids)
                    out.putU32(slot);
            }
        }
        out.putSize(departures.size());
        for (const auto &[time, slot] : departures) {
            out.putDouble(time);
            out.putU32(slot);
        }
        return out.bytes();
    }
};

constexpr std::size_t kWeb = 0;   // WorkloadType::WebSearch
constexpr std::size_t kCache = 1; // WorkloadType::DataCaching

/**
 * Two servers: slot 0 runs web search on server 0, slot 1 data
 * caching on server 1, slot 2 is a tombstone and slot 3 is free (its
 * stale fields still name server 1, web search, position 0).
 */
Layout
validLayout()
{
    Layout l;
    l.slots = {{0, WorkloadType::WebSearch, 0},
               {1, WorkloadType::DataCaching, 0},
               {kNoServer, WorkloadType::WebSearch, 0},
               {1, WorkloadType::WebSearch, 0}};
    l.free = {3};
    l.residents[0][kWeb] = {0};
    l.residents[1][kCache] = {1};
    l.departures = {{120.0, 0}, {180.0, 1}, {240.0, 2}};
    return l;
}

/** The FatalError message of loading `layout`, or empty. */
std::string
loadMessage(const Layout &layout)
{
    const std::vector<std::uint8_t> bytes = layout.encode();
    JobTable table(2, kDt);
    Deserializer in(bytes);
    try {
        table.load(in, 60.0);
    } catch (const FatalError &err) {
        return err.what();
    }
    return {};
}

TEST(JobTable, LoadAcceptsTheValidLayout)
{
    const Layout l = validLayout();
    const std::vector<std::uint8_t> bytes = l.encode();
    JobTable table(2, kDt);
    Deserializer in(bytes);
    table.load(in, 60.0);
    in.expectEnd();
    EXPECT_EQ(saved(table), bytes);
}

TEST(JobTable, LoadRefusesCorruptLayoutsByName)
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    const struct
    {
        const char *name;
        void (*corrupt)(Layout &);
        const char *message;
    } cases[] = {
        // The slot records run into the later fields; whichever
        // check the misread bytes trip first refuses them.
        {"slot count past the payload",
         [](Layout &l) { l.slotCount = 1000; },
         "snapshot "},
        {"workload type",
         [](Layout &l) { l.slots[1].type = static_cast<WorkloadType>(9); },
         "job slot 1 has an invalid workload type 9"},
        {"server past the cluster",
         [](Layout &l) { l.slots[0].serverId = 2; },
         "job slot 0 is on server 2 of 2"},
        {"free-list slot past the table",
         [](Layout &l) { l.free = {4}; },
         "free list references job slot 4 of 4"},
        {"free-list duplicate",
         [](Layout &l) { l.free = {3, 3}; },
         "job slot 3 is on the free list twice"},
        {"residency slot past the table",
         [](Layout &l) { l.residents[0][kWeb] = {7}; },
         "residency list references job slot 7 of 4"},
        {"residency position not pointing back",
         [](Layout &l) { l.slots[0].pos = 1; },
         "job slot 0 does not point back at residency entry 0 of "
         "server 0"},
        {"residency server not pointing back",
         [](Layout &l) { l.residents[1][kWeb] = {0}; },
         "job slot 0 does not point back at residency entry 0 of "
         "server 1"},
        {"NaN departure time",
         [](Layout &l) { l.departures[0].first = nan; },
         "is not a finite non-negative number"},
        {"infinite departure time",
         [](Layout &l) { l.departures[0].first = inf; },
         "is not a finite non-negative number"},
        {"negative departure time",
         [](Layout &l) { l.departures[0].first = -1.0; },
         "is not a finite non-negative number"},
        {"departure slot past the table",
         [](Layout &l) { l.departures[1].second = 9; },
         "departure references job slot 9 of 4"},
        {"free slot departing",
         [](Layout &l) { l.departures.push_back({300.0, 3}); },
         "job slot 3 is both free and pending"},
        {"slot departing twice",
         [](Layout &l) { l.departures.push_back({300.0, 0}); },
         "job slot 0 departs twice"},
        {"live slot missing from its residency list",
         [](Layout &l) { l.residents[0][kWeb].clear(); },
         "job slot 0 is pending on server 0 but not in its residency list"},
        {"slot neither free nor pending",
         [](Layout &l) { l.free.clear(); },
         "job slot 3 is neither free nor pending"},
        {"free slot still resident",
         [](Layout &l) { l.residents[1][kWeb] = {3}; },
         "job slot 3 is free but still in a residency list"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        Layout l = validLayout();
        c.corrupt(l);
        EXPECT_NE(loadMessage(l).find(c.message), std::string::npos)
            << loadMessage(l);
    }
}

} // namespace
} // namespace vmt
