#include "rst/asn1/per.hpp"

namespace rst::asn1 {

unsigned bits_for_range(std::uint64_t range) {
  if (range <= 1) return 0;
  unsigned bits = 0;
  std::uint64_t v = range - 1;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void PerEncoder::constrained(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"PerEncoder::constrained: lo > hi"};
  if (v < lo || v > hi) throw std::invalid_argument{"PerEncoder::constrained: value out of range"};
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  w_.write_bits(static_cast<std::uint64_t>(v - lo), bits_for_range(range));
}

void PerEncoder::enumerated(std::uint32_t index, std::uint32_t count) {
  if (index >= count) throw std::invalid_argument{"PerEncoder::enumerated: index out of range"};
  constrained(index, 0, static_cast<std::int64_t>(count) - 1);
}

void PerEncoder::length(std::size_t n) {
  if (n < 128) {
    w_.write_bits(n, 8);  // 0xxxxxxx
  } else if (n < 16384) {
    w_.write_bits(0b10, 2);
    w_.write_bits(n, 14);
  } else {
    throw std::invalid_argument{"PerEncoder::length: fragmentation (>16383) unsupported"};
  }
}

void PerEncoder::octet_string(const std::vector<std::uint8_t>& v) {
  length(v.size());
  w_.write_bytes(v.data(), v.size());
}

std::int64_t PerDecoder::constrained(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw DecodeError{"PerDecoder::constrained: lo > hi"};
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t off = r_.read_bits(bits_for_range(range));
  if (off >= range) throw DecodeError{"PerDecoder::constrained: offset out of range"};
  return lo + static_cast<std::int64_t>(off);
}

std::uint32_t PerDecoder::enumerated(std::uint32_t count) {
  return static_cast<std::uint32_t>(constrained(0, static_cast<std::int64_t>(count) - 1));
}

std::size_t PerDecoder::length() {
  if (!r_.read_bit()) return r_.read_bits(7);
  if (!r_.read_bit()) return r_.read_bits(14);
  throw DecodeError{"PerDecoder::length: fragmented lengths unsupported"};
}

std::vector<std::uint8_t> PerDecoder::octet_string() {
  const std::size_t n = length();
  std::vector<std::uint8_t> out(n);
  r_.read_bytes(out.data(), n);
  return out;
}

}  // namespace rst::asn1
