#include "state/recovery.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {

namespace {

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

} // namespace

std::string
previousSnapshotPath(const std::string &path)
{
    return path + ".prev";
}

RecoveryManager::RecoveryManager(std::string path)
    : path_(std::move(path))
{
    if (path_.empty())
        fatal("RecoveryManager requires a non-empty snapshot path");
}

RecoveryManager::~RecoveryManager()
{
    if (worker_.joinable())
        worker_.join();
}

void
RecoveryManager::commit(SnapshotWriter writer)
{
    join();
    worker_ = std::thread([this, writer = std::move(writer)] {
        outcome_ = write(writer);
    });
}

std::optional<bool>
RecoveryManager::join()
{
    if (!worker_.joinable())
        return std::nullopt;
    worker_.join();
    Outcome outcome = std::move(outcome_);
    if (!outcome.staleWarning.empty())
        warn(outcome.staleWarning);
    if (!outcome.ok) {
        ++failures_;
        lastError_ = std::move(outcome.error);
        return false;
    }
    lastError_.clear();
    return true;
}

RecoveryManager::Outcome
RecoveryManager::write(const SnapshotWriter &writer) const
{
    // Stage the new image first: if the disk is full the stage fails
    // and neither retained generation has been touched. Only then
    // rotate the current last-good snapshot to the .prev generation.
    // A rotation failure is not fatal to the commit — a fresh
    // snapshot beats a preserved old one — but is worth a warning
    // because the fallback generation is now stale.
    Outcome outcome;
    const auto rotate = [&] {
        const std::string prev = previousSnapshotPath(path_);
        if (fileExists(path_) &&
            std::rename(path_.c_str(), prev.c_str()) != 0)
            outcome.staleWarning = "checkpoint: cannot rotate " + path_ +
                                   " to " + prev +
                                   "; previous generation is stale";
    };
    try {
        outcome.ok = tryAtomicWriteStream(
            path_, [&](std::ostream &out) { writer.writeTo(out); },
            &outcome.error, rotate);
    } catch (const std::exception &err) {
        // Nothing may escape the background thread; an allocation
        // failure is one more failed commit.
        std::remove(atomicTempPath(path_).c_str());
        outcome.ok = false;
        outcome.error = std::string("checkpoint: ") + err.what();
    }
    return outcome;
}

RecoveredSnapshot
recoverSnapshot(const std::string &path)
{
    const std::string candidates[] = {path,
                                      previousSnapshotPath(path)};
    std::string reasons;
    std::string first_error;
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string &candidate = candidates[i];
        if (!fileExists(candidate)) {
            reasons += "\n  " + candidate + ": missing";
            if (i == 0)
                first_error = "missing";
            continue;
        }
        try {
            SnapshotReader reader(candidate);
            RecoveredSnapshot recovered{std::move(reader), candidate,
                                        i > 0, first_error};
            if (recovered.fellBack)
                warn("snapshot recovery: " + path + " rejected (" +
                     first_error + "); falling back to " + candidate);
            return recovered;
        } catch (const FatalError &err) {
            reasons += "\n  " + candidate + ": " + err.what();
            if (i == 0)
                first_error = err.what();
        }
    }
    fatal("snapshot recovery: no valid snapshot for " + path +
          reasons);
}

} // namespace vmt
