/**
 * @file
 * Crash-safe file replacement: write into a sibling temp file, then
 * rename it over the destination. POSIX rename() is atomic within a
 * filesystem, so readers observe either the old or the new complete
 * file — never a torn one. Used by the snapshot writer and the CSV
 * result writers.
 */

#ifndef VMT_UTIL_ATOMIC_FILE_H
#define VMT_UTIL_ATOMIC_FILE_H

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

namespace vmt {

/** The sibling temp path writers stage into before atomicCommit(). */
std::string atomicTempPath(const std::string &path);

/**
 * Atomically move the staged temp file over the destination.
 * @throws FatalError when the rename fails; the temp file is removed
 *         and the destination left untouched.
 */
void atomicCommit(const std::string &temp_path,
                  const std::string &path);

/**
 * Stage-then-commit, the one path behind every atomic writer: stream
 * the contents into the sibling temp file through @p fill, flush, run
 * @p before_commit (when given), then rename over `path`. Returns
 * false on failure with the reason in @p error (when non-null); the
 * temp file is removed and `path` left untouched.
 */
bool tryAtomicWriteStream(
    const std::string &path,
    const std::function<void(std::ostream &)> &fill,
    std::string *error,
    const std::function<void()> &before_commit = {});

/**
 * Write a whole buffer to `path` atomically (stage + commit).
 * @throws FatalError when the directory is unwritable or a write
 *         fails; `path` is left untouched on any error.
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size);

} // namespace vmt

#endif // VMT_UTIL_ATOMIC_FILE_H
