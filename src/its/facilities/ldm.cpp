#include "rst/its/facilities/ldm.hpp"

#include <algorithm>
#include <cstdio>

namespace rst::its {

namespace {

/// a + b, saturated at SimTime::max(). `a` is a time on the clock, so it
/// is never negative and a negative `b` cannot overflow.
sim::SimTime saturating_add(sim::SimTime a, sim::SimTime b) {
  return b > sim::SimTime::zero() && a > sim::SimTime::max() - b ? sim::SimTime::max() : a + b;
}

/// The first instant `now` at which `now - since >= lifetime`.
sim::SimTime first_at(sim::SimTime since, sim::SimTime lifetime) {
  return saturating_add(since, lifetime);
}

/// The first instant `now` at which `now - since > lifetime`.
sim::SimTime first_past(sim::SimTime since, sim::SimTime lifetime) {
  return saturating_add(first_at(since, lifetime), sim::SimTime::nanoseconds(1));
}

bool station_below(const LdmVehicleEntry& e, StationId id) { return e.station_id < id; }

}  // namespace

Ldm::Ldm(sim::Scheduler& sched, const geo::LocalFrame& frame) : sched_{sched}, frame_{frame} {}

std::uint64_t Ldm::subscribe(Subscriber subscriber) {
  const std::uint64_t id = next_subscriber_id_++;
  subscribers_.emplace_back(id, std::move(subscriber));
  return id;
}

void Ldm::unsubscribe(std::uint64_t id) {
  std::erase_if(subscribers_, [&](const auto& entry) { return entry.first == id; });
}

void Ldm::notify(const LdmUpdate& update) {
  for (const auto& [id, subscriber] : subscribers_) subscriber(update);
}

void Ldm::update_from_cam(const Cam& cam) {
  garbage_collect();
  const StationId id = cam.header.station_id;
  auto it = std::lower_bound(vehicles_.begin(), vehicles_.end(), id, station_below);
  if (it == vehicles_.end() || it->station_id != id) {
    it = vehicles_.insert(it, LdmVehicleEntry{.station_id = id});
  }
  LdmVehicleEntry& e = *it;
  e.station_type = cam.basic.station_type;
  const geo::GeoPosition gp{geo::from_its_tenth_microdegree(cam.basic.reference_position.latitude),
                            geo::from_its_tenth_microdegree(cam.basic.reference_position.longitude)};
  e.position = frame_.to_local(gp);
  e.speed_mps = cam.high_frequency.speed.to_mps();
  e.heading_rad = cam.high_frequency.heading.value_01deg <= 3600
                      ? cam.high_frequency.heading.value_01deg * 0.1 * M_PI / 180.0
                      : 0.0;
  e.last_update = sched_.now();
  next_expiry_ = std::min(next_expiry_, first_past(e.last_update, vehicle_lifetime_));
  ++e.cam_count;
  notify({.kind = LdmUpdateKind::Vehicle, .station = cam.header.station_id});
}

void Ldm::update_from_denm(const Denm& denm) {
  garbage_collect();
  const auto key = std::make_pair(denm.management.action_id.originating_station,
                                  denm.management.action_id.sequence_number);
  if (denm.is_termination()) {
    if (events_.erase(key) > 0) {
      notify({.kind = LdmUpdateKind::EventRemoved, .action = denm.management.action_id});
    }
    return;
  }
  auto& e = events_[key];
  e.action_id = denm.management.action_id;
  e.denm = denm;
  const geo::GeoPosition gp{geo::from_its_tenth_microdegree(denm.management.event_position.latitude),
                            geo::from_its_tenth_microdegree(denm.management.event_position.longitude)};
  e.event_position = frame_.to_local(gp);
  e.received = sched_.now();
  e.expires = sched_.now() + sim::SimTime::seconds(denm.management.validity_duration_s);
  next_expiry_ = std::min(next_expiry_, first_past(e.expires, sim::SimTime::zero()));
  notify({.kind = LdmUpdateKind::Event, .action = denm.management.action_id});
}

void Ldm::update_perceived_object(PerceivedObject object) {
  garbage_collect();
  // Every update refreshes the expiry window; `measured` keeps the sensor
  // timestamp (defaulting to now) so fused remote percepts retain their age.
  object.observed = sched_.now();
  if (object.measured == sim::SimTime{}) object.measured = sched_.now();
  next_expiry_ = std::min(next_expiry_, first_at(object.observed, object_lifetime_));
  const std::uint32_t id = object.object_id;
  objects_[id] = std::move(object);
  notify({.kind = LdmUpdateKind::PerceivedObject, .object = id});
}

void Ldm::garbage_collect() {
  const sim::SimTime now = sched_.now();
  if (now < next_expiry_) return;  // a sweep now would erase nothing
  next_expiry_ = sim::SimTime::max();
  std::erase_if(vehicles_, [&](const LdmVehicleEntry& e) {
    if (now - e.last_update > vehicle_lifetime_) return true;
    next_expiry_ = std::min(next_expiry_, first_past(e.last_update, vehicle_lifetime_));
    return false;
  });
  std::erase_if(events_, [&](const auto& kv) {
    if (now > kv.second.expires) return true;
    next_expiry_ = std::min(next_expiry_, first_past(kv.second.expires, sim::SimTime::zero()));
    return false;
  });
  // Perceived objects use a half-open lifetime window (alive for
  // observed <= t < observed + lifetime), matching the fault-window
  // convention: an object exactly at the boundary is already stale.
  objects_expired_ += static_cast<std::uint64_t>(std::erase_if(objects_, [&](const auto& kv) {
    if (now - kv.second.observed >= object_lifetime_) return true;
    next_expiry_ = std::min(next_expiry_, first_at(kv.second.observed, object_lifetime_));
    return false;
  }));
}

std::optional<LdmVehicleEntry> Ldm::vehicle(StationId id) const {
  const auto it = std::lower_bound(vehicles_.begin(), vehicles_.end(), id, station_below);
  if (it == vehicles_.end() || it->station_id != id) return std::nullopt;
  if (sched_.now() - it->last_update > vehicle_lifetime_) return std::nullopt;
  return *it;
}

std::vector<LdmVehicleEntry> Ldm::vehicles() const {
  std::vector<LdmVehicleEntry> out;
  for (const LdmVehicleEntry& e : vehicles_) {
    if (sched_.now() - e.last_update <= vehicle_lifetime_) out.push_back(e);
  }
  return out;
}

std::vector<LdmVehicleEntry> Ldm::vehicles_in(const geo::GeoArea& area) const {
  std::vector<LdmVehicleEntry> out;
  for (const auto& e : vehicles()) {
    if (area.contains(e.position)) out.push_back(e);
  }
  return out;
}

std::vector<LdmEventEntry> Ldm::events() const {
  std::vector<LdmEventEntry> out;
  for (const auto& [key, e] : events_) {
    if (sched_.now() <= e.expires) out.push_back(e);
  }
  return out;
}

std::vector<LdmEventEntry> Ldm::events_in(const geo::GeoArea& area) const {
  std::vector<LdmEventEntry> out;
  for (const auto& e : events()) {
    if (area.contains(e.event_position)) out.push_back(e);
  }
  return out;
}

std::vector<PerceivedObject> Ldm::perceived_objects() const {
  std::vector<PerceivedObject> out;
  for (const auto& [id, o] : objects_) {
    if (sched_.now() - o.observed < object_lifetime_) out.push_back(o);
  }
  return out;
}

std::optional<PerceivedObject> Ldm::perceived_object(std::uint32_t id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  if (sched_.now() - it->second.observed >= object_lifetime_) return std::nullopt;
  return it->second;
}

std::string Ldm::dump() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "LDM @ %s\n", sched_.now().to_string().c_str());
  out += line;
  for (const auto& e : vehicles()) {
    std::snprintf(line, sizeof line,
                  "  station %u type=%u pos=(%.2f, %.2f) v=%.2f m/s heading=%.1f deg cams=%llu\n",
                  e.station_id, static_cast<unsigned>(e.station_type), e.position.x, e.position.y,
                  e.speed_mps, e.heading_rad * 180.0 / M_PI,
                  static_cast<unsigned long long>(e.cam_count));
    out += line;
  }
  for (const auto& e : events()) {
    const auto cause = e.denm.situation ? e.denm.situation->event_type.cause_code : 0;
    std::snprintf(line, sizeof line, "  event %u/%u cause=%u (%s) pos=(%.2f, %.2f)\n",
                  e.action_id.originating_station, e.action_id.sequence_number, cause,
                  std::string{describe_cause(cause)}.c_str(), e.event_position.x, e.event_position.y);
    out += line;
  }
  for (const auto& o : perceived_objects()) {
    std::snprintf(line, sizeof line, "  object %u '%s' pos=(%.2f, %.2f) conf=%.2f\n", o.object_id,
                  o.classification.c_str(), o.position.x, o.position.y, o.confidence);
    out += line;
  }
  return out;
}

}  // namespace rst::its
