#include "state/snapshot.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace vmt {

namespace {

constexpr char kMagic[8] = {'V', 'M', 'T', 'S', 'N', 'A', 'P', '\n'};

bool
validTag(const std::string &tag)
{
    if (tag.size() != 4)
        return false;
    for (char ch : tag) {
        if (ch < 0x20 || ch > 0x7E)
            return false;
    }
    return true;
}

void
writeBytes(std::ostream &out, const Serializer &bytes)
{
    out.write(reinterpret_cast<const char *>(bytes.bytes().data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

Serializer &
SnapshotWriter::section(const std::string &tag)
{
    return sectionParts(tag, 1).front();
}

std::span<Serializer>
SnapshotWriter::sectionParts(const std::string &tag, std::size_t count)
{
    if (!validTag(tag))
        fatal("SnapshotWriter: section tag must be 4 printable "
              "ASCII characters, got '" + tag + "'");
    for (const Section &existing : sections_) {
        if (existing.tag == tag)
            fatal("SnapshotWriter: duplicate section '" + tag + "'");
    }
    sections_.push_back(Section{tag, std::vector<Serializer>(count)});
    return sections_.back().parts;
}

void
SnapshotWriter::writeTo(std::ostream &out) const
{
    Serializer header;
    header.putBytes(kMagic, sizeof(kMagic));
    header.putU32(kSnapshotFormatVersion);
    header.putU32(static_cast<std::uint32_t>(sections_.size()));
    writeBytes(out, header);
    for (const Section &section : sections_) {
        std::uint64_t length = 0;
        std::uint32_t crc = 0;
        for (const Serializer &part : section.parts) {
            crc = crc32Combine(crc, crc32(part.bytes().data(), part.size()),
                               part.size());
            length += part.size();
        }
        Serializer frame;
        frame.putBytes(section.tag.data(), 4);
        frame.putU64(length);
        frame.putU32(crc);
        writeBytes(out, frame);
        for (const Serializer &part : section.parts)
            writeBytes(out, part);
    }
}

std::vector<std::uint8_t>
SnapshotWriter::encode() const
{
    std::ostringstream out(std::ios::binary);
    writeTo(out);
    const std::string image = std::move(out).str();
    return {image.begin(), image.end()};
}

void
SnapshotWriter::write(const std::string &path) const
{
    std::string error;
    if (!tryWrite(path, &error))
        fatal(error);
}

bool
SnapshotWriter::tryWrite(const std::string &path,
                         std::string *error) const
{
    return tryAtomicWriteStream(
        path, [this](std::ostream &out) { writeTo(out); }, error);
}

SnapshotReader::SnapshotReader(const std::string &path)
{
    // A directory opens as an ifstream on Linux but reports tellg()
    // as -1; only a regular file can hold a snapshot.
    std::error_code status_error;
    if (!std::filesystem::is_regular_file(path, status_error))
        fatal("snapshot: " + path +
              (std::filesystem::exists(path, status_error)
                   ? " is not a regular file"
                   : " does not exist"));
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("snapshot: cannot open " + path);
    const std::streamsize size = in.tellg();
    if (size < 0)
        fatal("snapshot: cannot size " + path);
    in.seekg(0);
    image_.resize(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(image_.data()), size);
    if (!in)
        fatal("snapshot: cannot read " + path);
    parse(path);
}

SnapshotReader
SnapshotReader::fromBytes(std::vector<std::uint8_t> bytes)
{
    SnapshotReader reader;
    reader.image_ = std::move(bytes);
    reader.parse("<memory>");
    return reader;
}

void
SnapshotReader::parse(const std::string &origin)
{
    if (image_.size() < sizeof(kMagic) + 8)
        fatal("snapshot " + origin + ": truncated header");
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
        if (static_cast<char>(image_[i]) != kMagic[i])
            fatal("snapshot " + origin +
                  ": bad magic (not a vmt snapshot)");
    }
    Deserializer header(image_.data() + sizeof(kMagic), 8);
    version_ = header.getU32();
    if (version_ < kSnapshotMinReadVersion ||
        version_ > kSnapshotFormatVersion)
        fatal("snapshot " + origin + ": format version " +
              std::to_string(version_) + " unsupported (expected " +
              std::to_string(kSnapshotMinReadVersion) + ".." +
              std::to_string(kSnapshotFormatVersion) + ")");
    const std::uint32_t count = header.getU32();
    sections_.reserve(count);
    std::size_t offset = sizeof(kMagic) + 8;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (image_.size() - offset < 16)
            fatal("snapshot " + origin +
                  ": truncated section header");
        const std::string tag(
            reinterpret_cast<const char *>(image_.data() + offset),
            4);
        Deserializer frame(image_.data() + offset + 4, 12);
        const std::uint64_t length = frame.getU64();
        const std::uint32_t expected_crc = frame.getU32();
        offset += 16;
        if (image_.size() - offset < length)
            fatal("snapshot " + origin + ": section '" + tag +
                  "' truncated (" + std::to_string(length) +
                  " bytes declared, " +
                  std::to_string(image_.size() - offset) +
                  " remain)");
        const std::uint32_t actual_crc =
            crc32(image_.data() + offset,
                  static_cast<std::size_t>(length));
        if (actual_crc != expected_crc)
            fatal("snapshot " + origin + ": section '" + tag +
                  "' CRC mismatch (corrupt file)");
        for (const Section &existing : sections_) {
            if (existing.tag == tag)
                fatal("snapshot " + origin +
                      ": duplicate section '" + tag + "'");
        }
        sections_.push_back(Section{
            tag, offset, static_cast<std::size_t>(length)});
        offset += static_cast<std::size_t>(length);
    }
    if (offset != image_.size())
        fatal("snapshot " + origin + ": " +
              std::to_string(image_.size() - offset) +
              " trailing bytes after the last section");
}

bool
SnapshotReader::has(const std::string &tag) const
{
    for (const Section &section : sections_) {
        if (section.tag == tag)
            return true;
    }
    return false;
}

Deserializer
SnapshotReader::section(const std::string &tag) const
{
    for (const Section &section : sections_) {
        if (section.tag == tag)
            return Deserializer(image_.data() + section.offset,
                                section.size);
    }
    fatal("snapshot: missing section '" + tag + "'");
}

} // namespace vmt
