#include "rst/scenario/city.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "rst/core/config_io.hpp"

namespace rst::scenario {

// --- CitySpec ---------------------------------------------------------------

void CitySpec::validate() const {
  const auto positive = [](double v, const char* field) {
    if (!(v > 0)) {
      throw std::invalid_argument{std::string{"CitySpec: "} + field + " must be positive"};
    }
  };
  if (blocks_x < 1 || blocks_y < 1) {
    throw std::invalid_argument{"CitySpec: blocks_x/blocks_y must be at least 1"};
  }
  positive(block_m, "block_m");
  positive(street_m, "street_m");
  if (street_m >= block_m) {
    throw std::invalid_argument{"CitySpec: street_m must be narrower than block_m"};
  }
  if (building_loss_db < 0) {
    throw std::invalid_argument{"CitySpec: building_loss_db must be non-negative"};
  }
  if (rsu_every < 1) throw std::invalid_argument{"CitySpec: rsu_every must be at least 1"};
  if (max_rsus < 0) throw std::invalid_argument{"CitySpec: max_rsus must be non-negative"};
  if (vehicles < 0) throw std::invalid_argument{"CitySpec: vehicles must be non-negative"};
  if (vehicles >= 800) {
    throw std::invalid_argument{"CitySpec: vehicles must stay below the RSU station-id base"};
  }
  positive(vehicle_speed_mps, "vehicle_speed_mps");
  if (vehicle_speed_jitter_mps < 0) {
    throw std::invalid_argument{"CitySpec: vehicle_speed_jitter_mps must be non-negative"};
  }
  if (rsu_cam_interval <= sim::SimTime::zero() || obu_cam_interval <= sim::SimTime::zero()) {
    throw std::invalid_argument{"CitySpec: CAM intervals must be positive"};
  }
  if (cpm_enable) {
    if (cpm_interval <= sim::SimTime::zero() || cpm_object_lifetime <= sim::SimTime::zero()) {
      throw std::invalid_argument{"CitySpec: CPM interval and object lifetime must be positive"};
    }
    if (cpm_redundancy_window < sim::SimTime::zero()) {
      throw std::invalid_argument{"CitySpec: cpm_redundancy_window_ms must be non-negative"};
    }
  }
  if (path_loss_exponent < 1.0) {
    throw std::invalid_argument{"CitySpec: path_loss_exponent below free-space is unphysical"};
  }
  if (shadowing_sigma_db < 0) {
    throw std::invalid_argument{"CitySpec: shadowing_sigma_db must be non-negative"};
  }
  if (!std::isfinite(power_floor_dbm) || power_floor_dbm > 0.0) {
    throw std::invalid_argument{"CitySpec: power_floor_dbm must be a finite negative level"};
  }
  if (!std::isfinite(grid_cell_m) || grid_cell_m < 0.0) {
    throw std::invalid_argument{"CitySpec: grid_cell_m must be a finite non-negative size"};
  }
  const int rows = blocks_y + 1;
  if (corridor_row >= rows) {
    throw std::invalid_argument{"CitySpec: corridor_row beyond the street grid"};
  }
}

int CitySpec::resolved_corridor_row() const {
  return corridor_row >= 0 ? corridor_row : (blocks_y + 1) / 2;
}

namespace {

using core::parse_spec_bool;
using core::parse_spec_double;
using core::parse_spec_int;

}  // namespace

CitySpec parse_city_spec(const std::string& text) {
  CitySpec spec;
  core::for_each_spec_override(text, [&](const std::string& key, const std::string& value) {
    if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_spec_int(value, key));
    } else if (key == "blocks_x") {
      spec.blocks_x = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "blocks_y") {
      spec.blocks_y = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "block_m") {
      spec.block_m = parse_spec_double(value, key);
    } else if (key == "street_m") {
      spec.street_m = parse_spec_double(value, key);
    } else if (key == "corridor_row") {
      spec.corridor_row = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "buildings") {
      spec.buildings = parse_spec_bool(value, key);
    } else if (key == "building_loss_db") {
      spec.building_loss_db = parse_spec_double(value, key);
    } else if (key == "building_setback_m") {
      spec.building_setback_m = parse_spec_double(value, key);
    } else if (key == "rsu_every") {
      spec.rsu_every = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "max_rsus") {
      spec.max_rsus = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "rsu_corridor_only") {
      spec.rsu_corridor_only = parse_spec_bool(value, key);
    } else if (key == "rsu_cam_interval_ms") {
      spec.rsu_cam_interval = sim::SimTime::milliseconds(parse_spec_int(value, key));
    } else if (key == "vehicles") {
      spec.vehicles = static_cast<int>(parse_spec_int(value, key));
    } else if (key == "vehicle_speed_mps") {
      spec.vehicle_speed_mps = parse_spec_double(value, key);
    } else if (key == "vehicle_speed_jitter_mps") {
      spec.vehicle_speed_jitter_mps = parse_spec_double(value, key);
    } else if (key == "obu_cam_interval_ms") {
      spec.obu_cam_interval = sim::SimTime::milliseconds(parse_spec_int(value, key));
    } else if (key == "enable_dcc") {
      spec.enable_dcc = parse_spec_bool(value, key);
    } else if (key == "enable_kaf") {
      spec.enable_kaf = parse_spec_bool(value, key);
    } else if (key == "cpm_enable") {
      spec.cpm_enable = parse_spec_bool(value, key);
    } else if (key == "cpm_interval_ms") {
      spec.cpm_interval = sim::SimTime::milliseconds(parse_spec_int(value, key));
    } else if (key == "cpm_object_lifetime_ms") {
      spec.cpm_object_lifetime = sim::SimTime::milliseconds(parse_spec_int(value, key));
    } else if (key == "cpm_redundancy_window_ms") {
      spec.cpm_redundancy_window = sim::SimTime::milliseconds(parse_spec_int(value, key));
    } else if (key == "path_loss_exponent") {
      spec.path_loss_exponent = parse_spec_double(value, key);
    } else if (key == "shadowing_sigma_db") {
      spec.shadowing_sigma_db = parse_spec_double(value, key);
    } else if (key == "tx_power_dbm") {
      spec.tx_power_dbm = parse_spec_double(value, key);
    } else if (key == "spatial_index") {
      spec.spatial_index = parse_spec_bool(value, key);
    } else if (key == "obstacle_index") {
      spec.obstacle_index = parse_spec_bool(value, key);
    } else if (key == "power_floor_dbm") {
      spec.power_floor_dbm = parse_spec_double(value, key);
    } else if (key == "grid_cell_m") {
      spec.grid_cell_m = parse_spec_double(value, key);
    } else {
      throw std::invalid_argument{"city spec: unknown key '" + key + "'"};
    }
  });
  spec.validate();
  return spec;
}

std::vector<std::pair<std::string, std::string>> city_spec_keys() {
  return {
      {"seed", "root random seed"},
      {"blocks_x", "grid blocks east-west"},
      {"blocks_y", "grid blocks north-south"},
      {"block_m", "block edge length"},
      {"street_m", "street width"},
      {"corridor_row", "arterial east-west street index (-1 = middle)"},
      {"buildings", "emit buildings as NLOS walls"},
      {"building_loss_db", "obstruction loss per wall crossing"},
      {"building_setback_m", "facade setback from the street edge"},
      {"rsu_every", "RSU at every Nth intersection"},
      {"max_rsus", "cap on placed RSUs (0 = no cap)"},
      {"rsu_corridor_only", "place RSUs only along the corridor"},
      {"rsu_cam_interval_ms", "fixed RSU beacon period"},
      {"vehicles", "generated vehicle flows"},
      {"vehicle_speed_mps", "mean flow speed"},
      {"vehicle_speed_jitter_mps", "uniform speed jitter"},
      {"obu_cam_interval_ms", "fixed vehicle CAM period"},
      {"enable_dcc", "reactive DCC gate on every station"},
      {"enable_kaf", "DEN keep-alive forwarding on vehicles"},
      {"cpm_enable", "collective perception service on every station"},
      {"cpm_interval_ms", "CPM generation period"},
      {"cpm_object_lifetime_ms", "LDM perceived-object lifetime under CPM"},
      {"cpm_redundancy_window_ms", "skip objects a peer announced within this window"},
      {"path_loss_exponent", "log-distance channel exponent"},
      {"shadowing_sigma_db", "log-normal shadowing sigma"},
      {"tx_power_dbm", "station transmit power"},
      {"spatial_index", "grid receiver culling (PR 3 medium)"},
      {"obstacle_index", "ray-index building walls (off = brute-force scan)"},
      {"power_floor_dbm", "per-link out-of-range floor"},
      {"grid_cell_m", "culling grid cell size (0 = derive)"},
  };
}

std::string format_city_spec(const CitySpec& spec) {
  std::ostringstream out;
  const auto put = [&](const char* key, const std::string& value) {
    out << key << " = " << value << "\n";
  };
  const auto num = [&](const char* key, double v) { put(key, core::format_spec_double(v)); };
  const auto integer = [&](const char* key, long long v) { put(key, std::to_string(v)); };
  const auto boolean = [&](const char* key, bool v) { put(key, v ? "true" : "false"); };

  // Seeds above INT64_MAX print as their two's-complement negative so the
  // parser's stoll -> uint64 cast lands back on the same bit pattern.
  integer("seed", static_cast<long long>(spec.seed));
  integer("blocks_x", spec.blocks_x);
  integer("blocks_y", spec.blocks_y);
  num("block_m", spec.block_m);
  num("street_m", spec.street_m);
  integer("corridor_row", spec.corridor_row);
  boolean("buildings", spec.buildings);
  num("building_loss_db", spec.building_loss_db);
  num("building_setback_m", spec.building_setback_m);
  integer("rsu_every", spec.rsu_every);
  integer("max_rsus", spec.max_rsus);
  boolean("rsu_corridor_only", spec.rsu_corridor_only);
  integer("rsu_cam_interval_ms", spec.rsu_cam_interval.count_ns() / 1'000'000);
  integer("vehicles", spec.vehicles);
  num("vehicle_speed_mps", spec.vehicle_speed_mps);
  num("vehicle_speed_jitter_mps", spec.vehicle_speed_jitter_mps);
  integer("obu_cam_interval_ms", spec.obu_cam_interval.count_ns() / 1'000'000);
  boolean("enable_dcc", spec.enable_dcc);
  boolean("enable_kaf", spec.enable_kaf);
  boolean("cpm_enable", spec.cpm_enable);
  integer("cpm_interval_ms", spec.cpm_interval.count_ns() / 1'000'000);
  integer("cpm_object_lifetime_ms", spec.cpm_object_lifetime.count_ns() / 1'000'000);
  integer("cpm_redundancy_window_ms", spec.cpm_redundancy_window.count_ns() / 1'000'000);
  num("path_loss_exponent", spec.path_loss_exponent);
  num("shadowing_sigma_db", spec.shadowing_sigma_db);
  num("tx_power_dbm", spec.tx_power_dbm);
  boolean("spatial_index", spec.spatial_index);
  boolean("obstacle_index", spec.obstacle_index);
  num("power_floor_dbm", spec.power_floor_dbm);
  num("grid_cell_m", spec.grid_cell_m);
  return out.str();
}

// --- Flows ------------------------------------------------------------------

namespace {

double loop_length(const VehicleFlow& flow) {
  if (flow.waypoints.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < flow.waypoints.size(); ++i) {
    const geo::Vec2 a = flow.waypoints[i];
    const geo::Vec2 b = flow.waypoints[(i + 1) % flow.waypoints.size()];
    total += (b - a).norm();
  }
  return total;
}

/// Point and direction at arc length `s` along the closed loop.
std::pair<geo::Vec2, geo::Vec2> loop_at(const VehicleFlow& flow, double s) {
  const std::size_t n = flow.waypoints.size();
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 a = flow.waypoints[i];
    const geo::Vec2 b = flow.waypoints[(i + 1) % n];
    const double len = (b - a).norm();
    if (s <= len || i + 1 == n) {
      if (len <= 0.0) return {a, {0.0, 1.0}};
      const double f = std::clamp(s / len, 0.0, 1.0);
      return {a + (b - a) * f, (b - a) / len};
    }
    s -= len;
  }
  return {flow.waypoints.front(), {0.0, 1.0}};
}

}  // namespace

geo::Vec2 flow_position(const VehicleFlow& flow, sim::SimTime t) {
  if (flow.waypoints.empty()) return {};
  const double total = loop_length(flow);
  if (flow.speed_mps <= 0.0 || total <= 0.0) return flow.waypoints.front();
  const double s = std::fmod(flow.phase_m + flow.speed_mps * t.to_seconds(), total);
  return loop_at(flow, s < 0 ? s + total : s).first;
}

double flow_heading_rad(const VehicleFlow& flow, sim::SimTime t) {
  if (flow.waypoints.size() < 2) return 0.0;
  const double total = loop_length(flow);
  if (flow.speed_mps <= 0.0 || total <= 0.0) return 0.0;
  const double s = std::fmod(flow.phase_m + flow.speed_mps * t.to_seconds(), total);
  return geo::heading_from_vector(loop_at(flow, s < 0 ? s + total : s).second);
}

// --- Generator --------------------------------------------------------------

geo::Vec2 RoadNetwork::intersection(int ix, int iy) const {
  return intersections[static_cast<std::size_t>(iy) * cols + static_cast<std::size_t>(ix)];
}

RoadNetwork generate_road_network(const CitySpec& spec) {
  spec.validate();
  RoadNetwork net;
  const int cols = spec.blocks_x + 1;
  const int rows = spec.blocks_y + 1;
  net.cols = cols;
  net.extent_x = spec.extent_x_m();
  net.extent_y = spec.extent_y_m();
  net.corridor_y = spec.resolved_corridor_row() * spec.block_m;

  net.intersections.reserve(static_cast<std::size_t>(cols) * rows);
  for (int iy = 0; iy < rows; ++iy) {
    for (int ix = 0; ix < cols; ++ix) {
      net.intersections.push_back({ix * spec.block_m, iy * spec.block_m});
    }
  }

  // Buildings: one rectangular footprint per block, inset so facades sit
  // `building_setback_m` behind the street edge. Street centerlines stay
  // clear, so any LOS ray along a single street never crosses a wall.
  if (spec.buildings) {
    const double inset = spec.street_m / 2.0 + spec.building_setback_m;
    for (int by = 0; by < spec.blocks_y; ++by) {
      for (int bx = 0; bx < spec.blocks_x; ++bx) {
        const double x0 = bx * spec.block_m + inset;
        const double y0 = by * spec.block_m + inset;
        const double x1 = (bx + 1) * spec.block_m - inset;
        const double y1 = (by + 1) * spec.block_m - inset;
        if (x1 <= x0 || y1 <= y0) continue;
        const geo::Vec2 sw{x0, y0}, se{x1, y0}, ne{x1, y1}, nw{x0, y1};
        net.building_walls.push_back({sw, se, spec.building_loss_db});
        net.building_walls.push_back({se, ne, spec.building_loss_db});
        net.building_walls.push_back({ne, nw, spec.building_loss_db});
        net.building_walls.push_back({nw, sw, spec.building_loss_db});
      }
    }
  }

  // RSUs at intersections, placement ordered south rows first, west to
  // east, so `max_rsus` keeps a spatially-contiguous prefix.
  const int corridor = spec.resolved_corridor_row();
  for (int iy = 0; iy < rows; ++iy) {
    for (int ix = 0; ix < cols; ++ix) {
      const bool on_grid = (ix % spec.rsu_every == 0) && (iy % spec.rsu_every == 0);
      const bool on_corridor = iy == corridor && (ix % spec.rsu_every == 0);
      if (spec.rsu_corridor_only ? !on_corridor : !on_grid) continue;
      if (spec.max_rsus > 0 && static_cast<int>(net.rsu_positions.size()) >= spec.max_rsus) break;
      net.rsu_positions.push_back({ix * spec.block_m, iy * spec.block_m});
    }
  }

  // Vehicle flows: even indices run the arterial corridor, odd indices
  // orbit a seeded block ring. All draws come from one named child stream
  // in a fixed per-vehicle order.
  sim::RandomStream flow_rng{spec.seed, "city.flows"};
  net.flows.reserve(static_cast<std::size_t>(spec.vehicles));
  for (int i = 0; i < spec.vehicles; ++i) {
    VehicleFlow flow;
    const double jitter = spec.vehicle_speed_jitter_mps > 0
                              ? flow_rng.uniform(-spec.vehicle_speed_jitter_mps,
                                                 spec.vehicle_speed_jitter_mps)
                              : 0.0;
    flow.speed_mps = std::max(1.0, spec.vehicle_speed_mps + jitter);
    if (i % 2 == 0) {
      flow.waypoints = {{0.0, net.corridor_y}, {net.extent_x, net.corridor_y}};
    } else {
      const int bx = static_cast<int>(flow_rng.uniform_int(0, spec.blocks_x - 1));
      const int by = static_cast<int>(flow_rng.uniform_int(0, spec.blocks_y - 1));
      const double x0 = bx * spec.block_m, x1 = (bx + 1) * spec.block_m;
      const double y0 = by * spec.block_m, y1 = (by + 1) * spec.block_m;
      flow.waypoints = {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
    }
    flow.phase_m = flow_rng.uniform(0.0, std::max(1.0, loop_length(flow)));
    net.flows.push_back(std::move(flow));
  }
  return net;
}

// --- CityScenario -----------------------------------------------------------

class CityScenario::VehicleEntry {
 public:
  VehicleEntry(CityScenario& city, VehicleFlow flow, std::size_t index) : flow_{std::move(flow)} {
    core::ItsStationConfig cfg;
    cfg.station_id = kVehicleIdBase + static_cast<its::StationId>(index);
    cfg.station_type = its::StationType::PassengerCar;
    cfg.name = "veh" + std::to_string(index);
    cfg.radio.tx_power_dbm = city.spec_.tx_power_dbm;
    cfg.ca.t_gen_cam_min = city.spec_.obu_cam_interval;
    cfg.ca.t_gen_cam_max = city.spec_.obu_cam_interval;
    cfg.enable_dcc = city.spec_.enable_dcc;
    cfg.den.enable_kaf = city.spec_.enable_kaf;
    if (city.spec_.cpm_enable) {
      cfg.enable_cpm = true;
      cfg.cpm.interval = city.spec_.cpm_interval;
      cfg.cpm.redundancy_window = city.spec_.cpm_redundancy_window;
    }
    auto* sched = &city.sched_;
    const VehicleFlow* route = &flow_;
    station_ = std::make_unique<core::ItsStation>(
        city.sched_, *city.medium_, *city.lan_, city.frame_, cfg,
        [sched, route] {
          return its::EgoState{flow_position(*route, sched->now()),
                               route->speed_mps > 0 ? route->speed_mps : 0.0,
                               flow_heading_rad(*route, sched->now())};
        },
        city.rng_.child(cfg.name));
    if (city.spec_.cpm_enable) {
      station_->ldm().set_perceived_object_lifetime(city.spec_.cpm_object_lifetime);
    }
  }

  [[nodiscard]] core::ItsStation& station() { return *station_; }
  [[nodiscard]] const VehicleFlow& flow() const { return flow_; }

 private:
  VehicleFlow flow_;
  std::unique_ptr<core::ItsStation> station_;
};

CityScenario::CityScenario(CitySpec spec)
    : spec_{std::move(spec)},
      net_{generate_road_network(spec_)},
      rng_{spec_.seed, "city"},
      frame_{spec_.origin} {
  dot11p::ChannelModel channel;
  auto base = std::make_unique<dot11p::LogDistanceModel>(
      dot11p::LogDistanceModel::its_g5(spec_.path_loss_exponent));
  if (net_.building_walls.empty()) {
    channel.path_loss = std::shared_ptr<const dot11p::PathLossModel>{std::move(base)};
  } else {
    auto obstacles = std::make_shared<const dot11p::ObstacleShadowingModel>(
        std::move(base), net_.building_walls, spec_.obstacle_index);
    obstacles_ = obstacles.get();
    channel.path_loss = std::move(obstacles);
  }
  channel.shadowing_sigma_db = spec_.shadowing_sigma_db;
  channel.spatial_index = spec_.spatial_index;
  channel.power_floor_dbm = spec_.power_floor_dbm;
  channel.cell_size_m = spec_.grid_cell_m;
  channel.max_station_speed_mps =
      std::max(50.0, 2.0 * (spec_.vehicle_speed_mps + spec_.vehicle_speed_jitter_mps));
  medium_ = std::make_unique<dot11p::Medium>(sched_, rng_.child("medium"), std::move(channel));
  lan_ = std::make_unique<middleware::HttpLan>(sched_, rng_.child("lan"));

  rsus_.reserve(net_.rsu_positions.size());
  for (std::size_t i = 0; i < net_.rsu_positions.size(); ++i) {
    core::ItsStationConfig cfg;
    cfg.station_id = kRsuIdBase + static_cast<its::StationId>(i);
    cfg.station_type = its::StationType::RoadSideUnit;
    cfg.name = "rsu" + std::to_string(i);
    cfg.radio.tx_power_dbm = spec_.tx_power_dbm;
    cfg.ca.t_gen_cam_min = spec_.rsu_cam_interval;
    cfg.ca.t_gen_cam_max = spec_.rsu_cam_interval;
    cfg.enable_dcc = spec_.enable_dcc;
    if (spec_.cpm_enable) {
      cfg.enable_cpm = true;
      cfg.cpm.interval = spec_.cpm_interval;
      cfg.cpm.redundancy_window = spec_.cpm_redundancy_window;
    }
    const geo::Vec2 pos = net_.rsu_positions[i];
    rsus_.push_back(std::make_unique<core::ItsStation>(
        sched_, *medium_, *lan_, frame_, cfg,
        [pos] { return its::EgoState{pos, 0.0, 0.0}; }, rng_.child(cfg.name)));
    if (spec_.cpm_enable) {
      rsus_.back()->ldm().set_perceived_object_lifetime(spec_.cpm_object_lifetime);
    }
  }

  vehicles_.reserve(net_.flows.size());
  for (const auto& flow : net_.flows) {
    vehicles_.push_back(std::make_unique<VehicleEntry>(*this, flow, vehicles_.size()));
  }
}

CityScenario::~CityScenario() = default;

core::ItsStation& CityScenario::vehicle(std::size_t i) { return vehicles_[i]->station(); }

geo::Vec2 CityScenario::vehicle_position(std::size_t i) const {
  return flow_position(vehicles_[i]->flow(), sched_.now());
}

std::size_t CityScenario::add_vehicle(VehicleFlow flow) {
  if (started_) throw std::logic_error{"CityScenario: add_vehicle after start()"};
  vehicles_.push_back(std::make_unique<VehicleEntry>(*this, std::move(flow), vehicles_.size()));
  return vehicles_.size() - 1;
}

void CityScenario::start() {
  if (started_) return;
  started_ = true;

  // Stations come up with a seeded phase offset inside their own CAM
  // period. Unstaggered fixed-rate beacons from RSUs that cannot
  // carrier-sense each other (they sit beyond CS range but share
  // receivers) would collide *synchronously forever* — the classic hidden
  // terminal pathology; real CA services are never phase-locked.
  sim::RandomStream phase_rng = rng_.child("phase");

  for (auto& rsu : rsus_) {
    auto* station = rsu.get();
    const geo::Vec2 pos = station->router().ego().position;
    const sim::SimTime offset = phase_rng.uniform_time(sim::SimTime::zero(), spec_.rsu_cam_interval);
    sched_.post_in(offset, [station, pos] {
      station->start_cam([pos] {
        its::CaVehicleData data;
        data.position = pos;
        return data;
      });
      // CPM rides the same phase offset as the CAM start (no extra draws).
      if (station->cpm()) station->cpm()->start();
    });
  }
  for (auto& veh : vehicles_) {
    auto* station = &veh->station();
    auto* sched = &sched_;
    const VehicleFlow* flow = &veh->flow();
    const sim::SimTime offset = phase_rng.uniform_time(sim::SimTime::zero(), spec_.obu_cam_interval);
    sched_.post_in(offset, [station, sched, flow] {
      station->start_cam([sched, flow] {
        its::CaVehicleData data;
        data.position = flow_position(*flow, sched->now());
        data.heading_rad = flow_heading_rad(*flow, sched->now());
        data.speed_mps = flow->speed_mps > 0 ? flow->speed_mps : 0.0;
        return data;
      });
      if (station->cpm()) station->cpm()->start();
    });
  }
}

}  // namespace rst::scenario
