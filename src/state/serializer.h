/**
 * @file
 * Byte-level encode/decode for the snapshot subsystem.
 *
 * Everything is little-endian and written field by field — no struct
 * memcpy — so the on-disk layout is independent of host padding and
 * stays stable across compilers. Each fixed-width field is one bulk
 * append of its native bytes, which are the little-endian encoding on
 * every supported host (a big-endian host fails to compile). Doubles
 * are stored as their IEEE-754 bit patterns, which is what makes
 * bitwise-identical resume possible: a value round-trips to the exact
 * same double, including -0.0, subnormals and NaN payloads.
 *
 * Deserializer bounds-checks every read and throws FatalError on
 * overrun, so a truncated or corrupt payload is rejected
 * deterministically instead of reading garbage.
 */

#ifndef VMT_STATE_SERIALIZER_H
#define VMT_STATE_SERIALIZER_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace vmt {

class Rng;

static_assert(std::endian::native == std::endian::little,
              "the snapshot encoding appends native bytes as its "
              "little-endian layout");

/** Append-only little-endian byte-stream writer. The puts are inline:
 *  a checkpoint makes millions of them across every module's
 *  saveState. */
class Serializer
{
  public:
    void putU8(std::uint8_t value) { buf_.push_back(value); }
    /** Bools are one byte, 0 or 1. */
    void putBool(bool value) { putU8(value ? 1 : 0); }
    void putU32(std::uint32_t value) { append(value); }
    void putU64(std::uint64_t value) { append(value); }
    /** size_t is always widened to 64 bits on disk. */
    void putSize(std::size_t value)
    {
        putU64(static_cast<std::uint64_t>(value));
    }
    /** IEEE-754 bit pattern, little-endian (exact round-trip). */
    void putDouble(double value)
    {
        putU64(std::bit_cast<std::uint64_t>(value));
    }
    /** 64-bit length prefix followed by the raw bytes. */
    void putString(const std::string &value);
    /** Raw bytes, no length prefix. */
    void putBytes(const void *data, std::size_t size);

    /** Append @p size bytes for the caller to fill in place (see
     *  PutCursor); the pointer stays valid until the next append. */
    std::uint8_t *
    extend(std::size_t size)
    {
        const std::size_t at = buf_.size();
        buf_.resize(at + size);
        return buf_.data() + at;
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void
    append(T value)
    {
        const std::size_t at = buf_.size();
        buf_.resize(at + sizeof(T));
        std::memcpy(buf_.data() + at, &value, sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Fills a region reserved by Serializer::extend() with the encodings
 * of Serializer's puts, one bounds check and memcpy each — for
 * encoders that size their output up front (JobTable::save).
 */
class PutCursor
{
  public:
    /** The region [begin, begin + size). */
    PutCursor(std::uint8_t *begin, std::size_t size)
        : at_(begin), end_(begin + size)
    {}

    void putU8(std::uint8_t value) { putBytes(&value, 1); }
    void putU32(std::uint32_t value) { putBytes(&value, 4); }
    void putSize(std::size_t value)
    {
        const auto wide = static_cast<std::uint64_t>(value);
        putBytes(&wide, 8);
    }
    void putDouble(double value) { putBytes(&value, 8); }
    /** Raw bytes, no length prefix; panics past the region's end. */
    void
    putBytes(const void *data, std::size_t size)
    {
        if (size > static_cast<std::size_t>(end_ - at_))
            overrun(size);
        if (size != 0)
            std::memcpy(at_, data, size);
        at_ += size;
    }

    /** Panic unless the region was filled exactly. */
    void finish() const;

  private:
    [[noreturn]] void overrun(std::size_t size) const;

    std::uint8_t *at_;
    std::uint8_t *end_;
};

/**
 * Bounds-checked reader over a byte buffer (not owned; the buffer
 * must outlive the reader).
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    /** @throws FatalError unless the stored byte is 0 or 1. */
    bool getBool();
    std::uint32_t getU32();
    std::uint64_t getU64();
    /** @throws FatalError when the stored value exceeds size_t. */
    std::size_t getSize();
    double getDouble();
    std::string getString();

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    /** @throws FatalError when trailing bytes remain (a length
     *  mismatch between writer and reader is corruption). */
    void expectEnd() const;

  private:
    /** @throws FatalError when fewer than n bytes remain. */
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** An Rng's whole state (its four words, then the cached normal
 *  deviate's flag and value), so a restored stream continues
 *  bit for bit. */
void saveRng(Serializer &out, const Rng &rng);
void loadRng(Deserializer &in, Rng &rng);

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected),
 *  slice-by-8. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/**
 * CRC-32 of the concatenation A‖B from crc32(A), crc32(B) and the
 * length of B, in O(log size_b) — so pieces of one payload can be
 * checksummed independently (in parallel) and combined in order.
 */
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t size_b);

} // namespace vmt

#endif // VMT_STATE_SERIALIZER_H
