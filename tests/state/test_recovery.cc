/**
 * @file
 * Crash-recovery layer tests: retained-generation rotation on commit
 * (also across back-to-back commits), non-fatal failure counting when
 * the path is unwritable, the background commit's join — explicit and
 * in the destructor — and the multi-candidate recovery scan:
 * newest-first, CRC-validated, with fallback to the previous
 * generation and a fatal only when nothing on disk validates.
 *
 * Labelled "state", so the thread-sanitizer job runs the background
 * commit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "state/recovery.h"
#include "state/snapshot.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {
namespace {

/** A one-section snapshot whose payload is @p generation, so tests
 *  can tell which image a reader came from. */
SnapshotWriter
stampedSnapshot(std::uint64_t generation)
{
    SnapshotWriter writer;
    writer.section("TEST").putU64(generation);
    return writer;
}

std::uint64_t
stampOf(const SnapshotReader &reader)
{
    Deserializer in = reader.section("TEST");
    const std::uint64_t generation = in.getU64();
    in.expectEnd();
    return generation;
}

void
removeAll(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(previousSnapshotPath(path).c_str());
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

/** Commit one stamped snapshot and wait for it: the outcome. */
bool
commitStamp(RecoveryManager &manager, std::uint64_t generation)
{
    manager.commit(stampedSnapshot(generation));
    const std::optional<bool> ok = manager.join();
    EXPECT_TRUE(ok.has_value()) << "no commit was in flight";
    return ok.value_or(false);
}

TEST(Recovery, PreviousPathIsASibling)
{
    EXPECT_EQ(previousSnapshotPath("run/ck.snap"),
              "run/ck.snap.prev");
}

TEST(Recovery, SaveRotatesTwoGenerations)
{
    const std::string path = testing::TempDir() + "vmt_rot.snap";
    removeAll(path);
    RecoveryManager manager(path);
    EXPECT_EQ(manager.join(), std::nullopt); // Nothing in flight.

    // First commit: only the primary exists (nothing to retain yet).
    EXPECT_TRUE(commitStamp(manager, 1));
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(previousSnapshotPath(path)));

    // Second commit: generation 1 rotates to .prev, 2 is primary.
    EXPECT_TRUE(commitStamp(manager, 2));
    EXPECT_EQ(stampOf(SnapshotReader(path)), 2u);
    EXPECT_EQ(stampOf(SnapshotReader(previousSnapshotPath(path))),
              1u);

    // Third commit: only the two newest generations are retained.
    EXPECT_TRUE(commitStamp(manager, 3));
    EXPECT_EQ(stampOf(SnapshotReader(path)), 3u);
    EXPECT_EQ(stampOf(SnapshotReader(previousSnapshotPath(path))),
              2u);
    EXPECT_EQ(manager.failures(), 0u);
    EXPECT_TRUE(manager.lastError().empty());
    EXPECT_EQ(manager.join(), std::nullopt); // Already settled.
    removeAll(path);
}

TEST(Recovery, BackToBackCommitsRotateInCallOrder)
{
    // No join between the commits: each one waits for the commit
    // before it, so every rotation moves the previous call's image to
    // .prev and the newest call's image ends up primary.
    const std::string path = testing::TempDir() + "vmt_b2b.snap";
    removeAll(path);
    RecoveryManager manager(path);
    for (std::uint64_t generation = 1; generation <= 6; ++generation) {
        manager.commit(stampedSnapshot(generation));
        if (generation < 2)
            continue;
        // The commit before this one has landed; this one may have.
        const std::uint64_t seen = stampOf(SnapshotReader(path));
        EXPECT_TRUE(seen + 1 == generation || seen == generation)
            << "generation " << generation << " saw " << seen;
    }
    EXPECT_EQ(manager.join(), std::optional<bool>(true));
    EXPECT_EQ(stampOf(SnapshotReader(path)), 6u);
    EXPECT_EQ(stampOf(SnapshotReader(previousSnapshotPath(path))),
              5u);
    EXPECT_EQ(manager.failures(), 0u);
    removeAll(path);
}

TEST(Recovery, FailedSaveIsCountedAndKeepsTheLastGood)
{
    const std::string dir = testing::TempDir() + "vmt_gone_dir";
    const std::string path = dir + "/ck.snap";
    RecoveryManager manager(path);

    // The parent directory does not exist, so staging must fail —
    // without throwing, and with the reason retained. The failure is
    // counted when it is joined, on this thread.
    manager.commit(stampedSnapshot(1));
    EXPECT_EQ(manager.failures(), 0u);
    EXPECT_EQ(manager.join(), std::optional<bool>(false));
    EXPECT_EQ(manager.failures(), 1u);
    EXPECT_NE(manager.lastError().find(dir), std::string::npos)
        << manager.lastError();
    EXPECT_FALSE(fileExists(path));

    // A writable path keeps working after failures elsewhere.
    const std::string good = testing::TempDir() + "vmt_good.snap";
    removeAll(good);
    RecoveryManager working(good);
    EXPECT_TRUE(commitStamp(working, 7));
    EXPECT_FALSE(commitStamp(manager, 2));
    EXPECT_EQ(manager.failures(), 2u);
    EXPECT_EQ(stampOf(SnapshotReader(good)), 7u);

    // A success clears the kept reason; the count stays.
    ASSERT_TRUE(std::filesystem::create_directory(dir));
    EXPECT_TRUE(commitStamp(manager, 3));
    EXPECT_EQ(manager.failures(), 2u);
    EXPECT_TRUE(manager.lastError().empty());
    std::filesystem::remove_all(dir);
    removeAll(good);
}

TEST(Recovery, DestructorJoinsTheCommitInFlight)
{
    const std::string path = testing::TempDir() + "vmt_dtor.snap";
    removeAll(path);
    {
        RecoveryManager manager(path);
        manager.commit(stampedSnapshot(5));
    }
    EXPECT_EQ(stampOf(SnapshotReader(path)), 5u);
    EXPECT_FALSE(fileExists(atomicTempPath(path)));
    removeAll(path);
}

TEST(Recovery, RecoverPicksTheNewestValidCandidate)
{
    const std::string path = testing::TempDir() + "vmt_rec.snap";
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(commitStamp(manager, 1));
    ASSERT_TRUE(commitStamp(manager, 2));

    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_EQ(recovered.path, path);
    EXPECT_FALSE(recovered.fellBack);
    EXPECT_TRUE(recovered.error.empty());
    EXPECT_EQ(stampOf(recovered.reader), 2u);
    removeAll(path);
}

TEST(Recovery, CorruptNewestFallsBackToThePreviousGeneration)
{
    const std::string path = testing::TempDir() + "vmt_fb.snap";
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(commitStamp(manager, 1));
    ASSERT_TRUE(commitStamp(manager, 2));

    // Flip a payload byte in the newest image: CRC validation must
    // reject it and recovery must land on generation 1.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        ASSERT_TRUE(file.good());
        file.seekp(-1, std::ios::end);
        file.put('\xFF');
    }
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(recovered.path, previousSnapshotPath(path));
    EXPECT_FALSE(recovered.error.empty());
    EXPECT_EQ(stampOf(recovered.reader), 1u);
    removeAll(path);
}

TEST(Recovery, TruncatedNewestFallsBackToo)
{
    const std::string path = testing::TempDir() + "vmt_tr.snap";
    removeAll(path);
    RecoveryManager manager(path);
    ASSERT_TRUE(commitStamp(manager, 1));
    ASSERT_TRUE(commitStamp(manager, 2));

    // Truncate the newest image mid-file (a crash straddling the
    // write on a filesystem without atomic rename semantics).
    {
        std::ofstream file(path,
                           std::ios::binary | std::ios::trunc);
        file << "VMTSNAP\n";
    }
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(stampOf(recovered.reader), 1u);
    removeAll(path);
}

TEST(Recovery, FatalOnlyWhenNoCandidateValidates)
{
    const std::string path = testing::TempDir() + "vmt_none.snap";
    removeAll(path);

    // Nothing on disk at all.
    EXPECT_THROW(recoverSnapshot(path), FatalError);

    // Both generations present but invalid.
    {
        std::ofstream(path, std::ios::binary) << "garbage";
        std::ofstream(previousSnapshotPath(path), std::ios::binary)
            << "more garbage";
    }
    EXPECT_THROW(recoverSnapshot(path), FatalError);
    removeAll(path);
}

TEST(Recovery, MissingPrimaryRecoversFromPreviousAlone)
{
    // A crash between the rotate and the commit leaves only .prev.
    const std::string path = testing::TempDir() + "vmt_prev.snap";
    removeAll(path);
    stampedSnapshot(4).write(previousSnapshotPath(path));
    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(recovered.path, previousSnapshotPath(path));
    EXPECT_EQ(stampOf(recovered.reader), 4u);
    removeAll(path);
}

/** Regression: a directory at the snapshot path used to abort the
 *  reader with std::bad_alloc (tellg() is -1 on a directory, and the
 *  image was resized to SIZE_MAX), so recovery never fell back. */
TEST(Recovery, DirectoryAtPathIsRejectedByName)
{
    const std::string path = testing::TempDir() + "vmt_dir.snap";
    removeAll(path);
    std::filesystem::remove_all(path);
    ASSERT_TRUE(std::filesystem::create_directory(path));

    try {
        SnapshotReader reader(path);
        FAIL() << "a directory was accepted as a snapshot";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("not a regular file"),
                  std::string::npos)
            << err.what();
    }

    // Without a previous generation nothing validates: a named
    // FatalError that lists the directory's rejection.
    try {
        recoverSnapshot(path);
        FAIL() << "recovered from a directory";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("not a regular file"),
                  std::string::npos)
            << err.what();
    }
    std::filesystem::remove_all(path);
}

TEST(Recovery, DirectoryAtPathFallsBackToThePreviousGeneration)
{
    const std::string path = testing::TempDir() + "vmt_dirfb.snap";
    removeAll(path);
    std::filesystem::remove_all(path);
    ASSERT_TRUE(std::filesystem::create_directory(path));
    stampedSnapshot(9).write(previousSnapshotPath(path));

    const RecoveredSnapshot recovered = recoverSnapshot(path);
    EXPECT_TRUE(recovered.fellBack);
    EXPECT_EQ(recovered.path, previousSnapshotPath(path));
    EXPECT_NE(recovered.error.find("not a regular file"),
              std::string::npos)
        << recovered.error;
    EXPECT_EQ(stampOf(recovered.reader), 9u);
    std::filesystem::remove_all(path);
    removeAll(path);
}

} // namespace
} // namespace vmt
