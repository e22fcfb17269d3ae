/**
 * @file
 * Byte-level contract of Serializer/Deserializer: the on-disk
 * encoding is little-endian and field-exact, doubles round-trip
 * bitwise, and every malformed read path throws FatalError instead of
 * returning garbage. The bulk puts and the slice-by-8 CRC are checked
 * against per-byte and bitwise reference encoders kept here.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "state/serializer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vmt {
namespace {

TEST(Serializer, EncodesLittleEndian)
{
    Serializer out;
    out.putU32(0x01020304u);
    const std::vector<std::uint8_t> expected = {0x04, 0x03, 0x02,
                                                0x01};
    EXPECT_EQ(out.bytes(), expected);
}

TEST(Serializer, EncodesU64LittleEndian)
{
    Serializer out;
    out.putU64(0x0102030405060708ull);
    const std::vector<std::uint8_t> expected = {
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
    EXPECT_EQ(out.bytes(), expected);
}

TEST(Serializer, EncodesDoubleAsIeeeBits)
{
    Serializer out;
    out.putDouble(1.0); // 0x3FF0000000000000
    const std::vector<std::uint8_t> expected = {
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F};
    EXPECT_EQ(out.bytes(), expected);
}

TEST(Serializer, SizeWidensTo64Bits)
{
    Serializer out;
    out.putSize(7);
    EXPECT_EQ(out.size(), 8u);
}

TEST(Serializer, RoundTripsEveryFieldType)
{
    Serializer out;
    out.putU8(0xAB);
    out.putBool(true);
    out.putBool(false);
    out.putU32(0xDEADBEEFu);
    out.putU64(0x1122334455667788ull);
    out.putSize(12345);
    out.putDouble(-0.0);
    out.putDouble(std::numeric_limits<double>::denorm_min());
    out.putDouble(std::numeric_limits<double>::infinity());
    out.putString("hello, \"csv\"\nworld");
    out.putString("");

    Deserializer in(out.bytes());
    EXPECT_EQ(in.getU8(), 0xAB);
    EXPECT_TRUE(in.getBool());
    EXPECT_FALSE(in.getBool());
    EXPECT_EQ(in.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.getU64(), 0x1122334455667788ull);
    EXPECT_EQ(in.getSize(), 12345u);
    const double neg_zero = in.getDouble();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(in.getDouble(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(in.getDouble(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(in.getString(), "hello, \"csv\"\nworld");
    EXPECT_EQ(in.getString(), "");
    EXPECT_TRUE(in.atEnd());
    EXPECT_NO_THROW(in.expectEnd());
}

TEST(Serializer, NanPayloadRoundTripsBitwise)
{
    const double nan = std::nan("0x12345");
    Serializer out;
    out.putDouble(nan);
    Deserializer in(out.bytes());
    const double back = in.getDouble();
    EXPECT_TRUE(std::isnan(back));
    // Bit pattern, not value, is what must survive.
    EXPECT_EQ(out.bytes(), [&] {
        Serializer again;
        again.putDouble(back);
        return again.bytes();
    }());
}

TEST(Deserializer, OverrunThrows)
{
    Serializer out;
    out.putU32(1);
    Deserializer in(out.bytes());
    in.getU32();
    EXPECT_THROW(in.getU8(), FatalError);
}

TEST(Deserializer, TruncatedDoubleThrows)
{
    const std::uint8_t bytes[4] = {1, 2, 3, 4};
    Deserializer in(bytes, sizeof(bytes));
    EXPECT_THROW(in.getDouble(), FatalError);
}

TEST(Deserializer, NonCanonicalBoolThrows)
{
    Serializer out;
    out.putU8(2);
    Deserializer in(out.bytes());
    EXPECT_THROW(in.getBool(), FatalError);
}

TEST(Deserializer, StringLengthBeyondBufferThrows)
{
    Serializer out;
    out.putU64(1u << 20); // Claims a 1 MiB string with no bytes.
    Deserializer in(out.bytes());
    EXPECT_THROW(in.getString(), FatalError);
}

TEST(Deserializer, TrailingBytesFailExpectEnd)
{
    Serializer out;
    out.putU32(1);
    out.putU8(0);
    Deserializer in(out.bytes());
    in.getU32();
    EXPECT_THROW(in.expectEnd(), FatalError);
}

/** Append @p width bytes of @p value, least significant first. */
void
referencePut(std::vector<std::uint8_t> &out, std::uint64_t value,
             int width)
{
    for (int i = 0; i < width; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

TEST(Serializer, BulkPutsMatchPerByteLittleEndianReference)
{
    Rng rng(11);
    Serializer out;
    std::vector<std::uint8_t> expected;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t bits = rng.next();
        switch (rng.below(6)) {
        case 0:
            out.putU8(static_cast<std::uint8_t>(bits));
            referencePut(expected, bits, 1);
            break;
        case 1:
            out.putBool((bits & 1) != 0);
            referencePut(expected, bits & 1, 1);
            break;
        case 2:
            out.putU32(static_cast<std::uint32_t>(bits));
            referencePut(expected, bits, 4);
            break;
        case 3:
            out.putU64(bits);
            referencePut(expected, bits, 8);
            break;
        case 4:
            out.putSize(static_cast<std::size_t>(bits));
            referencePut(expected, bits, 8);
            break;
        default:
            out.putDouble(std::bit_cast<double>(bits));
            referencePut(expected, bits, 8);
            break;
        }
    }
    EXPECT_EQ(out.bytes(), expected);

    // The bulk reads invert the bulk puts.
    Deserializer in(out.bytes());
    Serializer echo;
    while (in.remaining() >= 8)
        echo.putU64(in.getU64());
    while (in.remaining() >= 4)
        echo.putU32(in.getU32());
    while (!in.atEnd())
        echo.putU8(in.getU8());
    EXPECT_EQ(echo.bytes(), expected);
}

/** Bit-at-a-time CRC-32, the reference for the table kernel. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t size)
{
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t &byte : bytes)
        byte = static_cast<std::uint8_t>(rng.below(256));
    return bytes;
}

TEST(Crc32, MatchesBitwiseReferenceAtUnalignedOffsets)
{
    Rng rng(3);
    const std::vector<std::uint8_t> pool = randomBytes(rng, 4096 + 8);
    // Every short length at every alignment (the 8-byte body plus
    // each tail length)...
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t size = 0; size <= 64; ++size)
            ASSERT_EQ(crc32(pool.data() + offset, size),
                      referenceCrc32(pool.data() + offset, size))
                << "offset " << offset << " size " << size;
    }
    // ...and random lengths up to 4 KiB at random offsets.
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t offset = rng.below(8);
        const std::size_t size = rng.below(4097);
        ASSERT_EQ(crc32(pool.data() + offset, size),
                  referenceCrc32(pool.data() + offset, size))
            << "offset " << offset << " size " << size;
    }
}

TEST(Crc32, CombineMatchesCrcOfConcatenation)
{
    Rng rng(5);
    const std::vector<std::uint8_t> data = randomBytes(rng, 9000);
    EXPECT_EQ(crc32Combine(crc32(data.data(), 100), 0, 0),
              crc32(data.data(), 100));
    EXPECT_EQ(crc32Combine(0, crc32(data.data(), 100), 100),
              crc32(data.data(), 100));
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t split = rng.below(data.size() + 1);
        const std::size_t end =
            split + rng.below(data.size() - split + 1);
        const std::uint32_t a = crc32(data.data(), split);
        const std::uint32_t b = crc32(data.data() + split, end - split);
        ASSERT_EQ(crc32Combine(a, b, end - split),
                  crc32(data.data(), end))
            << "split " << split << " end " << end;
    }
}

TEST(Crc32, MatchesKnownAnswer)
{
    // The canonical CRC-32 check value (IEEE 802.3, reflected,
    // init/xorout 0xFFFFFFFF).
    const char *data = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(data), 9),
              0xCBF43926u);
}

TEST(Crc32, EmptyBufferIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::vector<std::uint8_t> data(64, 0x5A);
    const std::uint32_t clean = crc32(data.data(), data.size());
    data[17] ^= 0x01;
    EXPECT_NE(crc32(data.data(), data.size()), clean);
}

} // namespace
} // namespace vmt
