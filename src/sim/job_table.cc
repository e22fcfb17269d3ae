#include "sim/job_table.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "state/serializer.h"

namespace vmt {

void
JobTable::save(Serializer &out) const
{
    // Size the block once and fill it in place: a serving checkpoint
    // encodes every shard's table, and one growth-checked put per
    // field cost more than the copy itself. The layout is the one
    // Serializer's puts wrote (tests/reference/job_table_save.h).
    constexpr std::size_t kCount = sizeof(std::uint64_t);
    constexpr std::size_t kId = sizeof(std::uint32_t);
    constexpr std::size_t kSlot = kCount + 1 + kId;
    constexpr std::size_t kDeparture = sizeof(double) + kId;
    std::size_t resident = 0;
    for (const auto &per_server : residents_) {
        for (const auto &ids : per_server)
            resident += ids.size();
    }
    const std::size_t size =
        kCount + slots_.size() * kSlot + kCount + free_.size() * kId +
        residents_.size() * kNumWorkloads * kCount + resident * kId +
        kCount + departures_.size() * kDeparture;
    PutCursor at(out.extend(size), size);
    at.putSize(slots_.size());
    for (const SimActiveJob &job : slots_) {
        at.putSize(job.serverId);
        at.putU8(static_cast<std::uint8_t>(job.type));
        at.putU32(job.pos);
    }
    // Slot ids are u32s, whose encoding is their native bytes.
    at.putSize(free_.size());
    at.putBytes(free_.data(), free_.size() * kId);
    for (const auto &per_server : residents_) {
        for (const auto &ids : per_server) {
            at.putSize(ids.size());
            at.putBytes(ids.data(), ids.size() * kId);
        }
    }
    at.putSize(departures_.size());
    departures_.visitPending([&at](Seconds time, std::uint32_t slot) {
        at.putDouble(time);
        at.putU32(slot);
    });
    at.finish();
}

void
JobTable::load(Deserializer &in, Seconds resume_time)
{
    const std::size_t num_servers = residents_.size();
    // No reserve from the stored count: a corrupt count then fails
    // as a truncated payload instead of sizing an allocation.
    const std::size_t slot_count = in.getSize();
    const auto refuse = [](std::size_t slot, const std::string &why) {
        fatal("snapshot job slot " + std::to_string(slot) + " " + why);
    };
    const auto slot_id = [&](std::uint32_t slot, const char *where) {
        if (slot >= slot_count)
            fatal(std::string("snapshot ") + where +
                  " references job slot " + std::to_string(slot) +
                  " of " + std::to_string(slot_count));
        return slot;
    };

    slots_.clear();
    for (std::size_t i = 0; i < slot_count; ++i) {
        SimActiveJob job;
        job.serverId = in.getSize();
        const std::uint8_t type = in.getU8();
        if (type >= kNumWorkloads)
            refuse(i, "has an invalid workload type " +
                          std::to_string(type));
        if (job.serverId != kNoServer && job.serverId >= num_servers)
            refuse(i, "is on server " + std::to_string(job.serverId) +
                          " of " + std::to_string(num_servers));
        job.type = static_cast<WorkloadType>(type);
        job.pos = in.getU32();
        slots_.push_back(job);
    }

    // Every slot is exactly one of free or pending (see the file
    // comment), and resident exactly when pending on a server.
    enum : std::uint8_t { kFree = 1, kPending = 2, kResident = 4 };
    std::vector<std::uint8_t> state(slot_count, 0);

    const std::size_t free_count = in.getSize();
    free_.clear();
    free_.reserve(std::min(free_count, slot_count));
    for (std::size_t i = 0; i < free_count; ++i) {
        const std::uint32_t slot = slot_id(in.getU32(), "free list");
        if (state[slot] != 0)
            refuse(slot, "is on the free list twice");
        state[slot] = kFree;
        free_.push_back(slot);
    }

    for (std::size_t server = 0; server < num_servers; ++server) {
        for (const WorkloadType type : kAllWorkloads) {
            auto &ids = residents_[server][workloadIndex(type)];
            const std::size_t count = in.getSize();
            ids.clear();
            ids.reserve(std::min(count, slot_count));
            for (std::size_t pos = 0; pos < count; ++pos) {
                const std::uint32_t slot =
                    slot_id(in.getU32(), "residency list");
                const SimActiveJob &job = slots_[slot];
                if (job.serverId != server || job.type != type ||
                    job.pos != pos)
                    refuse(slot, "does not point back at residency "
                                 "entry " + std::to_string(pos) +
                                     " of server " +
                                     std::to_string(server));
                state[slot] |= kResident;
                ids.push_back(slot);
            }
        }
    }

    // Pin the rebuilt calendar's drain front to the resume point,
    // then re-schedule in saved pop order: the stable per-bucket sort
    // keeps each tie group in that order, reproducing the original
    // tie-breaks.
    departures_.restoreFront(resume_time);
    const std::size_t pending = in.getSize();
    for (std::size_t i = 0; i < pending; ++i) {
        const Seconds time = in.getDouble();
        // IntervalQueue buckets a time by converting it to an
        // integer; NaN or infinity would make that undefined.
        if (!std::isfinite(time) || time < 0.0)
            fatal("snapshot departure time " + std::to_string(time) +
                  " is not a finite non-negative number");
        const std::uint32_t slot = slot_id(in.getU32(), "departure");
        if (state[slot] & (kFree | kPending))
            refuse(slot, state[slot] & kFree ? "is both free and pending"
                                             : "departs twice");
        state[slot] |= kPending;
        departures_.schedule(time, slot);
    }

    for (std::uint32_t slot = 0; slot < slot_count; ++slot) {
        if (!(state[slot] & (kFree | kPending)))
            refuse(slot, "is neither free nor pending");
        const bool live = (state[slot] & kPending) &&
                          slots_[slot].serverId != kNoServer;
        if (live != bool(state[slot] & kResident))
            refuse(slot, live ? "is pending on server " +
                                    std::to_string(slots_[slot].serverId) +
                                    " but not in its residency list"
                              : "is free but still in a residency list");
    }
}

} // namespace vmt
