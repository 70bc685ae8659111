#include "rst/its/network/btp_mux.hpp"

namespace rst::its {

void BtpMux::register_port(std::uint16_t port, Handler handler) {
  handlers_[port] = std::move(handler);
}

void BtpMux::unregister_port(std::uint16_t port) { handlers_.erase(port); }

void BtpMux::on_gn_payload(const std::vector<std::uint8_t>& btp_pdu, const GnDeliveryMeta& meta) {
  const std::optional<BtpHeader> header = BtpHeader::read(btp_pdu);
  if (!header) {
    ++stats_.parse_errors;
    return;
  }
  const auto it = handlers_.find(header->destination_port);
  if (it == handlers_.end()) {
    ++stats_.unknown_port;
    return;
  }
  ++stats_.dispatched;
  it->second(std::span{btp_pdu}.subspan(BtpHeader::kSize), meta);
}

}  // namespace rst::its
