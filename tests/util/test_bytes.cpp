#include "util/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

/// \file test_bytes.cpp
/// The shared codec of every sealed format: exact little-endian bytes per
/// field type, the reader's sticky overrun, the trailing-CRC seal and the
/// one instance-id rule.  The CRC's check value is pinned by
/// SnapshotTest.Crc64MatchesKnownVector, and the formats' own golden bytes
/// by tests/integration/test_format_pins.cpp.

namespace lcaknap::util {
namespace {

TEST(ByteCodec, FieldsAreLittleEndianAndRoundTrip) {
  std::string out;
  put_le<std::uint8_t>(out, 0xAB);
  put_le<std::uint16_t>(out, 0x0102);
  put_le<std::uint32_t>(out, 0x01020304u);
  put_le<std::uint64_t>(out, 0x0102030405060708ull);
  put_le<std::int64_t>(out, -2);
  put_le(out, -0.0);
  EXPECT_EQ(out, std::string("\xAB\x02\x01\x04\x03\x02\x01"
                             "\x08\x07\x06\x05\x04\x03\x02\x01"
                             "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF"
                             "\x00\x00\x00\x00\x00\x00\x00\x80",
                             1 + 2 + 4 + 8 + 8 + 8));

  char stored[8] = {};
  store_le<std::uint64_t>(stored, 0x0102030405060708ull);
  EXPECT_EQ(std::string(stored, 8), out.substr(7, 8));

  ByteReader in(out);
  EXPECT_EQ(in.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(in.get<std::uint16_t>(), 0x0102);
  EXPECT_EQ(in.get<std::uint32_t>(), 0x01020304u);
  EXPECT_EQ(in.get<std::uint64_t>(), 0x0102030405060708ull);
  EXPECT_EQ(in.get<std::int64_t>(), -2);
  const double negative_zero = in.get<double>();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ByteCodec, AnOverrunReadsZeroAndStaysFailed) {
  const std::string bytes("\x01\x02\x03", 3);
  ByteReader in(bytes);
  EXPECT_EQ(in.get<std::uint16_t>(), 0x0201);
  EXPECT_EQ(in.get<std::uint32_t>(), 0u);  // one byte left: an overrun
  EXPECT_FALSE(in.ok());
  // Sticky: even a read that would have fit before the overrun fails now.
  EXPECT_EQ(in.get<std::uint8_t>(), 0u);
  EXPECT_TRUE(in.take(0).empty());
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ByteCodec, TheSealIsTheTrailingCrcOfEveryByteBeforeIt) {
  std::string frame = "prefix|";
  const std::size_t from = frame.size();
  frame += "body";
  seal(frame, from);
  ASSERT_EQ(frame.size(), from + 4 + 8);
  EXPECT_EQ(ByteReader(std::string_view(frame).substr(from + 4)).get<std::uint64_t>(),
            crc64("body"));
  EXPECT_TRUE(seal_holds(std::string_view(frame).substr(from)));

  // The allocation-free form writes the same bytes.
  char direct[4 + 8] = {'b', 'o', 'd', 'y'};
  seal_to(direct, 4);
  EXPECT_EQ(std::string(direct, sizeof direct), frame.substr(from));

  // Any flipped bit, in the body or in the seal, breaks it.
  std::string sealed = frame.substr(from);
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    sealed[bit / 8] = static_cast<char>(sealed[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(seal_holds(sealed)) << "bit " << bit;
    sealed[bit / 8] = static_cast<char>(sealed[bit / 8] ^ (1 << (bit % 8)));
  }
  EXPECT_TRUE(seal_holds(sealed));
  EXPECT_FALSE(seal_holds(std::string(7, '\0')));
}

TEST(ByteCodec, ValidIdIsOneToSixtyFourBytesOfTheIdAlphabet) {
  EXPECT_TRUE(valid_id("a"));
  EXPECT_TRUE(valid_id("Tenant_1.prod-eu"));
  EXPECT_TRUE(valid_id(std::string(kMaxIdBytes, 'x')));
  EXPECT_FALSE(valid_id(""));
  EXPECT_FALSE(valid_id(std::string(kMaxIdBytes + 1, 'x')));
  EXPECT_FALSE(valid_id("has space"));
  EXPECT_FALSE(valid_id("sl/ash"));
  EXPECT_FALSE(valid_id(std::string("nu\0l", 4)));
}

}  // namespace
}  // namespace lcaknap::util
