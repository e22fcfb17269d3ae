#include "state/serializer.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/logging.h"
#include "util/rng.h"

namespace vmt {

void
Serializer::putString(const std::string &value)
{
    putU64(value.size());
    putBytes(value.data(), value.size());
}

void
Serializer::putBytes(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), bytes, bytes + size);
}

void
PutCursor::finish() const
{
    if (at_ != end_)
        panic("PutCursor: " + std::to_string(end_ - at_) +
              " bytes of the sized region left unfilled");
}

void
PutCursor::overrun(std::size_t size) const
{
    panic("PutCursor: a " + std::to_string(size) + "-byte put overruns "
          "the sized region by " +
          std::to_string(size - static_cast<std::size_t>(end_ - at_)) +
          " bytes");
}

void
Deserializer::need(std::size_t n) const
{
    if (size_ - pos_ < n)
        fatal("snapshot payload truncated: need " +
              std::to_string(n) + " bytes, " +
              std::to_string(size_ - pos_) + " remain");
}

std::uint8_t
Deserializer::getU8()
{
    need(1);
    return data_[pos_++];
}

bool
Deserializer::getBool()
{
    const std::uint8_t byte = getU8();
    if (byte > 1)
        fatal("snapshot payload corrupt: bool byte is " +
              std::to_string(byte));
    return byte != 0;
}

std::uint32_t
Deserializer::getU32()
{
    need(4);
    std::uint32_t value = 0;
    std::memcpy(&value, data_ + pos_, 4);
    pos_ += 4;
    return value;
}

std::uint64_t
Deserializer::getU64()
{
    need(8);
    std::uint64_t value = 0;
    std::memcpy(&value, data_ + pos_, 8);
    pos_ += 8;
    return value;
}

std::size_t
Deserializer::getSize()
{
    const std::uint64_t value = getU64();
    if (value > static_cast<std::uint64_t>(SIZE_MAX))
        fatal("snapshot payload corrupt: size overflows size_t");
    return static_cast<std::size_t>(value);
}

double
Deserializer::getDouble()
{
    return std::bit_cast<double>(getU64());
}

std::string
Deserializer::getString()
{
    const std::size_t size = getSize();
    need(size);
    std::string value(reinterpret_cast<const char *>(data_ + pos_),
                      size);
    pos_ += size;
    return value;
}

void
Deserializer::expectEnd() const
{
    if (pos_ != size_)
        fatal("snapshot payload corrupt: " +
              std::to_string(size_ - pos_) + " trailing bytes");
}

namespace {

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

/** table[k][b]: the CRC register contribution of byte b followed by
 *  k zero bytes — the eight lookup tables of slice-by-8. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kCrcPoly : 0u);
        table[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            table[k][i] = (table[k - 1][i] >> 8) ^
                          table[0][table[k - 1][i] & 0xFFu];
    }
    return table;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** a(x) * b(x) mod P(x) over GF(2), in the reflected bit order. */
std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t product = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            product ^= b;
        b = (b & 1) ? (b >> 1) ^ kCrcPoly : b >> 1;
    }
    return product;
}

/** x^(8 * size) mod P(x): the shift that appends size zero bytes. */
std::uint32_t
zeroBytesModP(std::uint64_t size)
{
    std::uint32_t result = 1u << 31;  // x^0
    std::uint32_t square = 1u << 23;  // x^8, one byte
    for (; size != 0; size >>= 1) {
        if (size & 1)
            result = multModP(square, result);
        square = multModP(square, square);
    }
    return result;
}

} // namespace

void
saveRng(Serializer &out, const Rng &rng)
{
    const RngState state = rng.state();
    for (std::uint64_t word : state.s)
        out.putU64(word);
    out.putBool(state.hasSpare);
    out.putDouble(state.spare);
}

void
loadRng(Deserializer &in, Rng &rng)
{
    RngState state;
    for (std::uint64_t &word : state.s)
        word = in.getU64();
    state.hasSpare = in.getBool();
    state.spare = in.getDouble();
    rng.setState(state);
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        std::memcpy(&lo, data, 4);
        std::memcpy(&hi, data + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
    return crc ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
             std::uint64_t size_b)
{
    return multModP(zeroBytesModP(size_b), crc_a) ^ crc_b;
}

} // namespace vmt
