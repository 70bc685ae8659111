#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"

namespace rst::its {

/// BTP demultiplexer: the thin layer between GeoNetworking delivery and the
/// facilities, dispatching payloads by destination port (EN 302 636-5-1).
/// Applications can register additional ports next to the standard CAM
/// (2001) and DENM (2002) services.
class BtpMux {
 public:
  /// The payload is a view into the delivered PDU, past the BTP header;
  /// it is valid for the duration of the call.
  using Handler =
      std::function<void(std::span<const std::uint8_t> payload, const GnDeliveryMeta& meta)>;

  /// Registers (or replaces) the handler for a destination port.
  void register_port(std::uint16_t port, Handler handler);
  void unregister_port(std::uint16_t port);
  [[nodiscard]] bool has_port(std::uint16_t port) const { return handlers_.contains(port); }

  /// GN delivery entry point: reads the BTP-B destination port and hands
  /// the bytes after the header to that port's handler, without a copy.
  /// Truncated PDUs and unknown ports are counted and dropped.
  void on_gn_payload(const std::vector<std::uint8_t>& btp_pdu, const GnDeliveryMeta& meta);

  struct Stats {
    std::uint64_t dispatched{0};
    std::uint64_t unknown_port{0};
    std::uint64_t parse_errors{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::map<std::uint16_t, Handler> handlers_;
  Stats stats_;
};

}  // namespace rst::its
