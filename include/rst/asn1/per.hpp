#pragma once

#include <cstdint>
#include <vector>

#include "rst/asn1/bitbuffer.hpp"

namespace rst::asn1 {

/// Unaligned-PER style encoder (ITU-T X.691 subset).
///
/// Implements the encodings the ETSI ITS CAM/DENM/CPM schemas use:
/// constrained whole numbers, enumerateds, booleans, optional-presence
/// bitmaps (caller-driven), length determinants, OCTET strings and SEQUENCE
/// OF with constrained counts.
class PerEncoder {
 public:
  PerEncoder() = default;
  /// Pre-reserves output capacity (bytes) to avoid buffer regrowth when
  /// the caller knows the approximate encoded size.
  explicit PerEncoder(std::size_t capacity_hint_bytes) : w_{capacity_hint_bytes} {}

  void boolean(bool v) { w_.write_bit(v); }

  /// Constrained whole number in [lo, hi] (X.691 §10.5, unaligned).
  void constrained(std::int64_t v, std::int64_t lo, std::int64_t hi);

  /// Enumerated with `count` root values (no extension marker).
  void enumerated(std::uint32_t index, std::uint32_t count);

  /// General length determinant (X.691 §10.9, unaligned variant without
  /// fragmentation; supports lengths < 16384).
  void length(std::size_t n);

  void octet_string(const std::vector<std::uint8_t>& v);

  void bits(std::uint64_t value, unsigned nbits) { w_.write_bits(value, nbits); }

  [[nodiscard]] std::vector<std::uint8_t> finish() const& { return w_.finish(); }
  /// Rvalue overload: moves the encoded buffer out without copying.
  [[nodiscard]] std::vector<std::uint8_t> finish() && { return std::move(w_).finish(); }
  [[nodiscard]] std::size_t bit_count() const { return w_.bit_count(); }

 private:
  BitWriter w_;
};

/// Unaligned-PER style decoder matching PerEncoder.
///
/// Constructed from an rvalue vector it takes ownership (safe with
/// temporaries). Constructed from an lvalue vector or a pointer it is a
/// non-owning view — the caller's buffer must outlive the decoder. The
/// view mode is what makes an N-receiver broadcast decode without copying
/// the payload once per receiver.
class PerDecoder {
 public:
  explicit PerDecoder(std::vector<std::uint8_t>&& buf) : owned_{std::move(buf)}, r_{owned_} {}
  explicit PerDecoder(const std::vector<std::uint8_t>& buf) : r_{buf} {}
  PerDecoder(const std::uint8_t* data, std::size_t n) : r_{data, n} {}
  PerDecoder(const PerDecoder&) = delete;
  PerDecoder& operator=(const PerDecoder&) = delete;

  [[nodiscard]] bool boolean() { return r_.read_bit(); }
  [[nodiscard]] std::int64_t constrained(std::int64_t lo, std::int64_t hi);
  [[nodiscard]] std::uint32_t enumerated(std::uint32_t count);
  [[nodiscard]] std::size_t length();
  [[nodiscard]] std::vector<std::uint8_t> octet_string();
  [[nodiscard]] std::uint64_t bits(unsigned nbits) { return r_.read_bits(nbits); }

  [[nodiscard]] std::size_t bits_remaining() const { return r_.bits_remaining(); }

 private:
  std::vector<std::uint8_t> owned_;
  BitReader r_;
};

/// Number of bits needed to encode values in [0, range-1]; 0 when range==1.
[[nodiscard]] unsigned bits_for_range(std::uint64_t range);

}  // namespace rst::asn1
