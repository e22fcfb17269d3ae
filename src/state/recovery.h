/**
 * @file
 * Crash-recovery layer over the snapshot container: retained-snapshot
 * rotation on the write side and validated multi-candidate fallback
 * on the read side.
 *
 * A long-lived service must survive both halves of checkpoint
 * trouble:
 *
 *  - writes that fail (full disk, unwritable directory) must not kill
 *    the run — a RecoveryManager commit downgrades them to a counted
 *    failure with its reason kept, and the last good snapshot stays
 *    on disk, so the next period simply retries;
 *  - the newest snapshot on disk may be corrupt (a crash straddling
 *    the rename, a bad sector) — recoverSnapshot scans the retained
 *    candidates newest-first, CRC-validates each (SnapshotReader's
 *    parse) and falls back instead of fataling on the first bad file.
 *
 * Rotation keeps exactly two generations: the last good snapshot at
 * `path` and the one before it at `path.prev` (previousSnapshotPath).
 * A commit runs on one background thread, so the caller's loop does
 * not wait for the disk; outcomes are settled on the caller's thread
 * by join(). Batch tools that prefer to die loudly keep calling
 * SnapshotWriter::write directly; nothing here changes their path.
 */

#ifndef VMT_STATE_RECOVERY_H
#define VMT_STATE_RECOVERY_H

#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "state/snapshot.h"

namespace vmt {

/** Sibling path of the previous retained snapshot generation. */
std::string previousSnapshotPath(const std::string &path);

/**
 * Rotating, non-fatal checkpoint writer for one snapshot path — the
 * serving-mode replacement for SnapshotWriter::write. It retains the
 * previous generation, reports failures instead of throwing and
 * writes in the background: at most one commit is in flight, and
 * every outcome is counted on the thread that calls join().
 */
class RecoveryManager
{
  public:
    explicit RecoveryManager(std::string path);

    /** Waits for the commit in flight, if any (its outcome is then
     *  dropped: nobody is left to read it). */
    ~RecoveryManager();

    RecoveryManager(const RecoveryManager &) = delete;
    RecoveryManager &operator=(const RecoveryManager &) = delete;

    /**
     * Write @p writer's sealed snapshot to the managed path on a
     * background thread: combine the section CRCs, stream the image
     * into the sibling temp file, then rotate the current last-good
     * snapshot to `path.prev` and rename the new image in place. A
     * failure at any step leaves the previous on-disk state intact.
     * A commit still in flight is joined first, so commits land in
     * call order and at most one runs.
     */
    void commit(SnapshotWriter writer);

    /**
     * Wait for the commit in flight and settle its outcome here: a
     * failure is counted (failures()) with its reason kept
     * (lastError()); a rotation that left `path.prev` stale is
     * warned about.
     *
     * @return std::nullopt when no commit was in flight, else whether
     *         it succeeded. Never throws for I/O errors.
     */
    std::optional<bool> join();

    const std::string &path() const { return path_; }

    /** Cumulative failed commits as of the last join() (the serving
     *  driver mirrors this into `serve.checkpoint_failures_total`). */
    std::uint64_t failures() const { return failures_; }

    /** Reason of the most recently joined commit's failure (empty
     *  when it succeeded). */
    const std::string &lastError() const { return lastError_; }

  private:
    /** What the background thread hands back to join(). */
    struct Outcome
    {
        bool ok = false;
        std::string error;
        /** Set when the rotation to `path.prev` failed. */
        std::string staleWarning;
    };

    /** The commit itself (runs on the background thread). */
    Outcome write(const SnapshotWriter &writer) const;

    std::string path_;
    std::thread worker_;
    /** Written by worker_ only; read after joining it. */
    Outcome outcome_;
    std::uint64_t failures_ = 0;
    std::string lastError_;
};

/** Outcome of a recoverSnapshot scan. */
struct RecoveredSnapshot
{
    /** The validated snapshot (container-level CRC checks passed). */
    SnapshotReader reader;
    /** Candidate file the reader was loaded from. */
    std::string path;
    /** True when the newest candidate was rejected and an older
     *  generation was used instead. */
    bool fellBack = false;
    /** Why the newest candidate was rejected (empty otherwise). */
    std::string error;
};

/**
 * Startup recovery: open the newest valid snapshot among the retained
 * generations of @p path (`path`, then `path.prev`). Candidates that
 * are missing, truncated or fail CRC validation are skipped with a
 * warning instead of fataling.
 *
 * @throws FatalError only when no candidate validates — every
 *         rejection reason is named in the message.
 */
RecoveredSnapshot recoverSnapshot(const std::string &path);

} // namespace vmt

#endif // VMT_STATE_RECOVERY_H
