#include "rst/its/network/btp.hpp"

namespace rst::its {

std::vector<std::uint8_t> BtpHeader::prepend_to(const std::vector<std::uint8_t>& payload) const {
  std::vector<std::uint8_t> out;
  out.reserve(kSize + payload.size());
  out.push_back(static_cast<std::uint8_t>(destination_port >> 8));
  out.push_back(static_cast<std::uint8_t>(destination_port & 0xff));
  out.push_back(static_cast<std::uint8_t>(destination_port_info >> 8));
  out.push_back(static_cast<std::uint8_t>(destination_port_info & 0xff));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

BtpHeader::Parsed BtpHeader::parse(const std::vector<std::uint8_t>& pdu) {
  const std::optional<BtpHeader> header = read(pdu);
  if (!header) throw asn1::DecodeError{"BtpHeader::parse: truncated PDU"};
  return Parsed{*header, std::vector<std::uint8_t>(pdu.begin() + kSize, pdu.end())};
}

}  // namespace rst::its
