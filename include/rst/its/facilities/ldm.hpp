#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rst/geo/geo_area.hpp"
#include "rst/geo/geodesy.hpp"
#include "rst/its/messages/cam.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::its {

/// LDM view of a remote ITS station, built from received CAMs.
struct LdmVehicleEntry {
  StationId station_id{0};
  StationType station_type{StationType::Unknown};
  geo::Vec2 position{};
  double speed_mps{0};
  double heading_rad{0};
  sim::SimTime last_update{};
  std::uint64_t cam_count{0};
};

/// LDM view of an active DEN event.
struct LdmEventEntry {
  ActionId action_id{};
  Denm denm{};
  geo::Vec2 event_position{};
  sim::SimTime received{};
  sim::SimTime expires{};
};

/// An object perceived by local sensors (the road-side camera path of the
/// paper: not every road user is ETSI ITS-capable, so the infrastructure
/// feeds camera detections into its LDM alongside CAM-derived entries).
struct PerceivedObject {
  std::uint32_t object_id{0};
  std::string classification;
  geo::Vec2 position{};
  geo::Vec2 velocity{};
  double confidence{0};
  sim::SimTime observed{};
  /// When the underlying sensor measurement was taken (<= observed).
  /// Left default it is stamped with the update time.
  sim::SimTime measured{};
  /// Originating station of a CPM-fused remote percept; 0 = local sensing.
  StationId source_station{0};
};

/// What changed in the LDM (facility-layer publish/subscribe, the IF.LDM
/// interface real LDMs expose to applications).
enum class LdmUpdateKind : std::uint8_t { Vehicle, Event, EventRemoved, PerceivedObject };

struct LdmUpdate {
  LdmUpdateKind kind{LdmUpdateKind::Vehicle};
  StationId station{0};       ///< Vehicle updates
  ActionId action{};          ///< Event / EventRemoved updates
  std::uint32_t object{0};    ///< PerceivedObject updates
};

/// Local Dynamic Map facility: stores CAM-derived station entries,
/// DENM-derived events and locally perceived objects, with expiry.
class Ldm {
 public:
  Ldm(sim::Scheduler& sched, const geo::LocalFrame& frame);

  using Subscriber = std::function<void(const LdmUpdate&)>;
  /// Registers a change listener; returns an id for unsubscribe().
  std::uint64_t subscribe(Subscriber subscriber);
  void unsubscribe(std::uint64_t id);

  void update_from_cam(const Cam& cam);
  /// Applies a DENM: inserts/updates the event, or removes it when the
  /// message carries a termination.
  void update_from_denm(const Denm& denm);
  void update_perceived_object(PerceivedObject object);

  [[nodiscard]] std::optional<LdmVehicleEntry> vehicle(StationId id) const;
  [[nodiscard]] std::vector<LdmVehicleEntry> vehicles() const;
  [[nodiscard]] std::vector<LdmVehicleEntry> vehicles_in(const geo::GeoArea& area) const;
  [[nodiscard]] std::vector<LdmEventEntry> events() const;
  [[nodiscard]] std::vector<LdmEventEntry> events_in(const geo::GeoArea& area) const;
  [[nodiscard]] std::vector<PerceivedObject> perceived_objects() const;
  [[nodiscard]] std::optional<PerceivedObject> perceived_object(std::uint32_t id) const;

  /// Drops expired entries; called internally on every mutation but
  /// also callable explicitly (e.g. before a bulk query). Before the
  /// earliest instant at which an entry can expire it returns at once.
  void garbage_collect();

  void set_vehicle_entry_lifetime(sim::SimTime t) {
    vehicle_lifetime_ = t;
    next_expiry_ = sim::SimTime{};
  }
  void set_perceived_object_lifetime(sim::SimTime t) {
    object_lifetime_ = t;
    next_expiry_ = sim::SimTime{};
  }
  [[nodiscard]] sim::SimTime perceived_object_lifetime() const { return object_lifetime_; }
  /// Perceived objects dropped by expiry since construction.
  [[nodiscard]] std::uint64_t perceived_objects_expired() const { return objects_expired_; }

  /// OpenC2X-style textual dump of the map contents (the paper's
  /// Server/Web Interface renders the LDM graphically; this is the
  /// text equivalent used by examples and debugging).
  [[nodiscard]] std::string dump() const;

 private:
  sim::Scheduler& sched_;
  const geo::LocalFrame& frame_;
  sim::SimTime vehicle_lifetime_{sim::SimTime::milliseconds(1100)};
  sim::SimTime object_lifetime_{sim::SimTime::milliseconds(1500)};
  void notify(const LdmUpdate& update);

  /// One entry per station, ascending by station id.
  std::vector<LdmVehicleEntry> vehicles_;
  std::map<std::pair<StationId, std::uint16_t>, LdmEventEntry> events_;
  std::map<std::uint32_t, PerceivedObject> objects_;
  std::uint64_t objects_expired_{0};
  /// No entry expires before this instant: every insert and refresh
  /// lowers it, a sweep recomputes it, a lifetime change resets it.
  sim::SimTime next_expiry_{};
  std::vector<std::pair<std::uint64_t, Subscriber>> subscribers_;
  std::uint64_t next_subscriber_id_{1};
};

}  // namespace rst::its
