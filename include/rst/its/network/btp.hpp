#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rst/asn1/bitbuffer.hpp"

namespace rst::its {

/// Well-known BTP destination ports (EN 302 636-5-1 / TS 103 248).
inline constexpr std::uint16_t kBtpPortCam = 2001;
inline constexpr std::uint16_t kBtpPortDenm = 2002;
inline constexpr std::uint16_t kBtpPortCpm = 2009;

/// BTP-B header (non-interactive transport: destination port + port info).
/// This is the variant the ETSI facilities messages use.
struct BtpHeader {
  std::uint16_t destination_port{0};
  std::uint16_t destination_port_info{0};

  static constexpr std::size_t kSize = 4;

  /// Prepends the header to `payload` and returns the BTP PDU.
  [[nodiscard]] std::vector<std::uint8_t> prepend_to(const std::vector<std::uint8_t>& payload) const;

  /// Reads the header at the front of `pdu`; nothing when `pdu` is
  /// shorter than the header.
  [[nodiscard]] static std::optional<BtpHeader> read(std::span<const std::uint8_t> pdu) {
    if (pdu.size() < kSize) return std::nullopt;
    return BtpHeader{static_cast<std::uint16_t>((pdu[0] << 8) | pdu[1]),
                     static_cast<std::uint16_t>((pdu[2] << 8) | pdu[3])};
  }

  struct Parsed;
  /// Splits a BTP PDU into header and payload (copies payload).
  [[nodiscard]] static Parsed parse(const std::vector<std::uint8_t>& pdu);
};

struct BtpHeader::Parsed {
  BtpHeader header;
  std::vector<std::uint8_t> payload;
};

}  // namespace rst::its
