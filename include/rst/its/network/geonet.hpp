#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rst/asn1/per.hpp"
#include "rst/bytes.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/geo/geo_area.hpp"
#include "rst/geo/geodesy.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/sim/time.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its {

/// GeoNetworking address (EN 302 636-4-1 §6): we keep the 64-bit layout
/// abstract and derive it from the ITS station identifier.
struct GnAddress {
  std::uint64_t value{0};

  [[nodiscard]] static GnAddress from_station(std::uint32_t station_id) {
    return {0x0badc0de00000000ULL | station_id};
  }
  friend auto operator<=>(const GnAddress&, const GnAddress&) = default;
};

/// Long position vector (EN 302 636-4-1 §9.5.2): address + timestamped
/// geographic position and movement of a GeoAdhoc router.
struct LongPositionVector {
  GnAddress address{};
  std::uint32_t timestamp_ms{0};  // ms mod 2^32 at which the position was valid
  std::int32_t latitude{0};       // 0.1 micro-degree
  std::int32_t longitude{0};      // 0.1 micro-degree
  bool position_accurate{true};
  std::int16_t speed_cms{0};      // signed, 0.01 m/s
  std::uint16_t heading_01deg{0};

  void encode(asn1::PerEncoder& e) const;
  static LongPositionVector decode(asn1::PerDecoder& d);
  friend bool operator==(const LongPositionVector&, const LongPositionVector&) = default;
};

/// GeoNetworking packet (header) types we implement.
enum class GnPacketType : std::uint8_t {
  Beacon = 0,            ///< position advertisement, no payload
  Shb = 1,               ///< single-hop broadcast (CAM transport)
  Tsb = 2,               ///< topologically-scoped broadcast
  Gbc = 3,               ///< geographically-scoped broadcast (DENM transport)
  Guc = 4,               ///< geo-unicast to one station (greedy forwarding)
  LsRequest = 5,         ///< location service: who knows this address?
  LsReply = 6,           ///< location service: unicast answer to the requester
};
inline constexpr std::uint32_t kGnPacketTypeCount = 7;

/// Destination geo-area on the wire (EN 302 636-4-1 §9.8.5).
struct WireGeoArea {
  std::int32_t center_latitude{0};
  std::int32_t center_longitude{0};
  std::uint16_t distance_a_m{0};
  std::uint16_t distance_b_m{0};
  std::uint16_t angle_deg{0};
  std::uint8_t shape{0};  // 0 circle, 1 rectangle, 2 ellipse

  void encode(asn1::PerEncoder& e) const;
  static WireGeoArea decode(asn1::PerDecoder& d);
  friend bool operator==(const WireGeoArea&, const WireGeoArea&) = default;
};

/// A GeoNetworking PDU: basic + common header fields, the type-specific
/// extended header, and the BTP payload.
struct GnPacket {
  std::uint8_t version{1};
  GnPacketType type{GnPacketType::Shb};
  std::uint8_t traffic_class{2};
  std::uint8_t remaining_hop_limit{1};
  std::uint16_t lifetime_50ms{20};  // lifetime in units of 50 ms
  std::uint16_t sequence_number{0};  // TSB/GBC only
  LongPositionVector source{};
  /// Position of the most recent forwarder; equals `source` at origination.
  LongPositionVector forwarder{};
  std::optional<WireGeoArea> destination_area{};  // GBC only
  /// GUC only: the destination router and its last known position.
  std::optional<LongPositionVector> destination{};
  /// BTP payload; shared so forwarding/delivery hand-offs don't copy it.
  Bytes payload;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static GnPacket decode(const std::vector<std::uint8_t>& buf);
  friend bool operator==(const GnPacket&, const GnPacket&) = default;
};

/// Location table entry (EN 302 636-4-1 §8.1).
struct LocationTableEntry {
  LongPositionVector position_vector{};
  sim::SimTime last_update{};
  std::uint64_t packets_received{0};
};

/// Per-router ego state sampled at send time.
struct EgoState {
  geo::Vec2 position{};
  double speed_mps{0};
  double heading_rad{0};
};

/// Metadata handed to the upper layer with each delivered payload.
struct GnDeliveryMeta {
  GnAddress source{};
  geo::Vec2 source_position{};
  double rssi_dbm{0};
  std::uint8_t hops_traversed{0};
  sim::SimTime delivered_at{};
  /// GBC only: the destination area the packet was scoped to (local frame).
  std::optional<geo::GeoArea> destination_area{};
};

struct GeoNetConfig {
  std::uint8_t default_hop_limit{10};
  sim::SimTime beacon_interval{sim::SimTime::seconds(3)};
  bool enable_beaconing{false};
  sim::SimTime location_entry_lifetime{sim::SimTime::seconds(20)};
  sim::SimTime duplicate_entry_lifetime{sim::SimTime::seconds(10)};
  /// Contention-based forwarding timer bounds (EN 302 636-4-1 Annex F).
  sim::SimTime cbf_min_delay{sim::SimTime::milliseconds(1)};
  sim::SimTime cbf_max_delay{sim::SimTime::milliseconds(100)};
  /// Assumed maximum communication range for the CBF progress function.
  double cbf_max_range_m{120.0};
  /// Location-service request hop limit and pending-PDU buffer bounds.
  std::uint8_t ls_hop_limit{10};
  std::size_t ls_buffer_capacity{8};
  sim::SimTime ls_buffer_lifetime{sim::SimTime::seconds(2)};
};

/// GeoNetworking router bound to one radio interface.
///
/// Implements SHB (CAM transport), GBC with contention-based forwarding
/// inside the destination area and greedy progress outside it (DENM
/// transport), TSB flooding, GN beaconing, duplicate packet detection and
/// the location table.
class GeoNetRouter {
 public:
  using EgoProvider = std::function<EgoState()>;
  /// The PDU argument is a shared buffer; handlers that need the bytes
  /// beyond the call can retain a `Bytes` copy without a deep copy. It
  /// also converts implicitly to `const std::vector<uint8_t>&`, so
  /// vector-taking handlers keep working.
  using DeliveryHandler = std::function<void(const Bytes& btp_pdu, const GnDeliveryMeta& meta)>;

  GeoNetRouter(sim::Scheduler& sched, dot11p::Radio& radio, const geo::LocalFrame& frame,
               GnAddress address, EgoProvider ego, GeoNetConfig config, sim::RandomStream rng,
               sim::Trace* trace = nullptr);
  ~GeoNetRouter();
  GeoNetRouter(const GeoNetRouter&) = delete;
  GeoNetRouter& operator=(const GeoNetRouter&) = delete;

  /// Single-hop broadcast of a BTP PDU (CAM path).
  void send_shb(std::vector<std::uint8_t> btp_pdu, dot11p::AccessCategory ac);
  /// Topologically-scoped broadcast with a hop limit.
  void send_tsb(std::vector<std::uint8_t> btp_pdu, std::uint8_t hop_limit, dot11p::AccessCategory ac);
  /// Geo-broadcast into a destination area (DENM path).
  void send_gbc(std::vector<std::uint8_t> btp_pdu, const geo::GeoArea& area, dot11p::AccessCategory ac,
                std::optional<std::uint8_t> hop_limit = std::nullopt);
  /// Geo-unicast to a station. When the destination's position is unknown
  /// the PDU is buffered and a Location Service request is flooded
  /// (EN 302 636-4-1 §10.2.2); the buffered PDU is sent once the LS reply
  /// (or any packet from the destination) fills the location table.
  /// Returns false only when the LS buffer is full.
  bool send_guc(std::vector<std::uint8_t> btp_pdu, GnAddress destination,
                dot11p::AccessCategory ac, std::optional<std::uint8_t> hop_limit = std::nullopt);

  void set_delivery_handler(DeliveryHandler h) { deliver_ = std::move(h); }

  /// Redirects outgoing frames through a gate (e.g. a DCC gatekeeper)
  /// instead of handing them to the radio directly.
  using SendHook = std::function<void(dot11p::Frame)>;
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  [[nodiscard]] GnAddress address() const { return address_; }
  /// Current ego state (position provider snapshot).
  [[nodiscard]] EgoState ego() const { return ego_(); }
  /// The location table: one entry per station heard from, ascending by
  /// address. Inserts and sweeps move its entries, so an iterator or an
  /// element reference holds only until the router next receives, sends
  /// or checks for a duplicate.
  [[nodiscard]] const std::vector<LocationTableEntry>& location_table() const {
    return location_table_;
  }
  /// A copy of the location-table entry of `address`, or nothing.
  [[nodiscard]] std::optional<LocationTableEntry> location_entry(GnAddress address) const;
  [[nodiscard]] const geo::LocalFrame& local_frame() const { return frame_; }

  struct Stats {
    std::uint64_t originated{0};
    std::uint64_t delivered_up{0};
    std::uint64_t forwarded{0};
    std::uint64_t duplicates_dropped{0};
    std::uint64_t cbf_suppressed{0};
    std::uint64_t out_of_area_dropped{0};
    std::uint64_t lifetime_expired_dropped{0};
    std::uint64_t ls_requests_sent{0};
    std::uint64_t ls_replies_sent{0};
    std::uint64_t ls_buffer_dropped{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_frame(const dot11p::Frame& f, const dot11p::RxInfo& info);
  void handle_gbc(GnPacket pkt, const dot11p::RxInfo& info);
  void handle_guc(GnPacket pkt, const dot11p::RxInfo& info);
  /// (source, sequence) of a packet this router may forward.
  using CbfKey = std::pair<std::uint64_t, std::uint16_t>;
  /// Queues the contention-based forwarding of `fwd` (one hop used up),
  /// sooner the larger the progress in [0, 1].
  void arm_cbf(CbfKey key, GnPacket fwd, double progress01);
  void handle_ls_request(GnPacket pkt);
  void flush_ls_buffer(GnAddress destination);
  void transmit_guc(std::vector<std::uint8_t> btp_pdu, const LongPositionVector& destination,
                    dot11p::AccessCategory ac, std::optional<std::uint8_t> hop_limit);
  [[nodiscard]] LongPositionVector make_position_vector() const;
  [[nodiscard]] geo::GeoArea area_from_wire(const WireGeoArea& w) const;
  [[nodiscard]] WireGeoArea area_to_wire(const geo::GeoArea& a) const;
  [[nodiscard]] bool is_duplicate(GnAddress src, std::uint16_t seq);
  void remember(GnAddress src, std::uint16_t seq);
  void update_location_table(const LongPositionVector& pv);
  void broadcast(const GnPacket& pkt, dot11p::AccessCategory ac);
  void schedule_beacon();
  void send_beacon();
  void prune_tables();

  sim::Scheduler& sched_;
  dot11p::Radio& radio_;
  const geo::LocalFrame& frame_;
  GnAddress address_;
  EgoProvider ego_;
  GeoNetConfig config_;
  sim::RandomStream rng_;
  sim::Trace* trace_;

  std::uint16_t next_sequence_{0};
  std::vector<LocationTableEntry> location_table_;  // ascending by address
  struct DpdEntry {
    sim::SimTime seen;
  };
  std::map<std::pair<std::uint64_t, std::uint16_t>, DpdEntry> dpd_;
  /// Pending CBF timers keyed by (source, sequence).
  std::map<CbfKey, sim::Scheduler::Ticket> cbf_timers_;
  /// PDUs awaiting a location-service answer, keyed by destination.
  struct PendingGuc {
    std::vector<std::uint8_t> btp_pdu;
    dot11p::AccessCategory ac;
    std::optional<std::uint8_t> hop_limit;
    sim::SimTime queued;
  };
  std::map<std::uint64_t, std::vector<PendingGuc>> ls_buffer_;
  sim::Timer beacon_timer_;
  DeliveryHandler deliver_;
  SendHook send_hook_;
  Stats stats_;
};

}  // namespace rst::its
