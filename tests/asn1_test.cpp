#include <gtest/gtest.h>

#include "rst/asn1/bitbuffer.hpp"
#include "rst/asn1/per.hpp"
#include "rst/sim/random.hpp"

namespace rst::asn1 {
namespace {

TEST(BitBuffer, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true, false, true, true};
  for (bool b : pattern) w.write_bit(b);
  EXPECT_EQ(w.bit_count(), 10u);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), 2u);

  BitReader r{bytes};
  for (bool b : pattern) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitBuffer, MsbFirstLayout) {
  BitWriter w;
  w.write_bits(0b1010, 4);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0xA0);  // MSB-first with zero padding
}

TEST(BitBuffer, MultiBitValuesAcrossByteBoundaries) {
  BitWriter w;
  w.write_bits(0x3, 3);
  w.write_bits(0x1234, 16);
  w.write_bits(0x1, 1);
  const auto bytes = w.finish();
  BitReader r{bytes};
  EXPECT_EQ(r.read_bits(3), 0x3u);
  EXPECT_EQ(r.read_bits(16), 0x1234u);
  EXPECT_EQ(r.read_bits(1), 0x1u);
}

TEST(BitBuffer, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xff, 8);
  const auto bytes = w.finish();
  BitReader r{bytes};
  (void)r.read_bits(8);
  EXPECT_THROW((void)r.read_bit(), DecodeError);
}

TEST(BitBuffer, SixtyFourBitValues) {
  BitWriter w;
  const std::uint64_t v = 0xdeadbeefcafebabeULL;
  w.write_bits(v, 64);
  const auto bytes = w.finish();  // BitReader is a non-owning view
  BitReader r{bytes};
  EXPECT_EQ(r.read_bits(64), v);
}

TEST(BitsForRange, Values) {
  EXPECT_EQ(bits_for_range(1), 0u);
  EXPECT_EQ(bits_for_range(2), 1u);
  EXPECT_EQ(bits_for_range(3), 2u);
  EXPECT_EQ(bits_for_range(4), 2u);
  EXPECT_EQ(bits_for_range(5), 3u);
  EXPECT_EQ(bits_for_range(256), 8u);
  EXPECT_EQ(bits_for_range(257), 9u);
}

TEST(Per, ConstrainedUsesMinimalBits) {
  PerEncoder e;
  e.constrained(5, 0, 7);  // 3 bits
  EXPECT_EQ(e.bit_count(), 3u);
  PerEncoder e2;
  e2.constrained(100, 100, 100);  // 0 bits (single-value range)
  EXPECT_EQ(e2.bit_count(), 0u);
}

TEST(Per, ConstrainedRejectsOutOfRange) {
  PerEncoder e;
  EXPECT_THROW(e.constrained(8, 0, 7), std::invalid_argument);
  EXPECT_THROW(e.constrained(0, 5, 3), std::invalid_argument);
}

TEST(Per, ConstrainedRoundTripProperty) {
  sim::RandomStream r{10, "per"};
  for (int i = 0; i < 500; ++i) {
    const std::int64_t lo = r.uniform_int(-1000000, 1000000);
    const std::int64_t hi = lo + r.uniform_int(0, 1000000);
    const std::int64_t v = r.uniform_int(lo, hi);
    PerEncoder e;
    e.constrained(v, lo, hi);
    PerDecoder d{e.finish()};
    EXPECT_EQ(d.constrained(lo, hi), v);
  }
}

TEST(Per, EnumeratedRoundTrip) {
  for (std::uint32_t v = 0; v < 7; ++v) {
    PerEncoder e;
    e.enumerated(v, 7);
    PerDecoder d{e.finish()};
    EXPECT_EQ(d.enumerated(7), v);
  }
  PerEncoder e;
  EXPECT_THROW(e.enumerated(7, 7), std::invalid_argument);
}

TEST(Per, LengthDeterminantBothForms) {
  for (std::size_t n : {0u, 1u, 127u, 128u, 500u, 16383u}) {
    PerEncoder e;
    e.length(n);
    PerDecoder d{e.finish()};
    EXPECT_EQ(d.length(), n);
  }
  PerEncoder e;
  EXPECT_THROW(e.length(16384), std::invalid_argument);
}

TEST(Per, OctetStringRoundTrip) {
  sim::RandomStream r{12, "oct"};
  for (std::size_t len : {0u, 1u, 63u, 128u, 1000u}) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
    PerEncoder e;
    e.octet_string(data);
    PerDecoder d{e.finish()};
    EXPECT_EQ(d.octet_string(), data);
  }
}

TEST(Per, BooleanAndMixedSequence) {
  PerEncoder e;
  e.boolean(true);
  e.constrained(-5, -10, 10);
  e.boolean(false);
  e.octet_string({0xde, 0xad});
  PerDecoder d{e.finish()};
  EXPECT_TRUE(d.boolean());
  EXPECT_EQ(d.constrained(-10, 10), -5);
  EXPECT_FALSE(d.boolean());
  EXPECT_EQ(d.octet_string(), (std::vector<std::uint8_t>{0xde, 0xad}));
}

TEST(Per, DecoderDetectsTruncation) {
  PerEncoder e;
  e.octet_string({1, 2, 3, 4, 5});
  auto buf = e.finish();
  buf.pop_back();
  PerDecoder d{buf};
  EXPECT_THROW((void)d.octet_string(), DecodeError);
}

}  // namespace
}  // namespace rst::asn1
