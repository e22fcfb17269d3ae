#include "util/atomic_file.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "util/logging.h"

namespace vmt {

std::string
atomicTempPath(const std::string &path)
{
    return path + ".tmp";
}

void
atomicCommit(const std::string &temp_path, const std::string &path)
{
    if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
        std::remove(temp_path.c_str());
        fatal("atomicCommit: cannot rename " + temp_path + " to " +
              path);
    }
}

bool
tryAtomicWriteStream(const std::string &path,
                     const std::function<void(std::ostream &)> &fill,
                     std::string *error,
                     const std::function<void()> &before_commit)
{
    const std::string temp = atomicTempPath(path);
    std::string why;
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = "atomicWriteFile: cannot open " + temp;
            return false;
        }
        fill(out);
        out.flush();
        if (!out)
            why = "atomicWriteFile: write failed for " + temp;
    }
    if (why.empty()) {
        if (before_commit)
            before_commit();
        if (std::rename(temp.c_str(), path.c_str()) == 0)
            return true;
        why = "atomicCommit: cannot rename " + temp + " to " + path;
    }
    std::remove(temp.c_str());
    if (error)
        *error = std::move(why);
    return false;
}

void
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    std::string error;
    const auto fill = [&](std::ostream &out) {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
    };
    if (!tryAtomicWriteStream(path, fill, &error))
        fatal(error);
}

} // namespace vmt
