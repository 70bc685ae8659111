#include "rst/scenario/city.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rst/core/config_io.hpp"

namespace rst::scenario {

// --- CitySpec ---------------------------------------------------------------

namespace {

using core::at_least;
using core::kPositive;
using S = CitySpec;
using K = core::FieldKind;

constexpr core::Field<S> kCityFields[] = {
    {"seed", K::Int, [](S& s) { return &s.seed; }},
    {"blocks_x", K::Int, [](S& s) { return &s.blocks_x; }, at_least(1)},
    {"blocks_y", K::Int, [](S& s) { return &s.blocks_y; }, at_least(1)},
    {"block_m", K::Double, [](S& s) { return &s.block_m; }, kPositive},
    {"street_m", K::Double, [](S& s) { return &s.street_m; }, kPositive},
    {"corridor_row", K::Int, [](S& s) { return &s.corridor_row; }},
    {"buildings", K::Bool, [](S& s) { return &s.buildings; }},
    {"building_loss_db", K::Double, [](S& s) { return &s.building_loss_db; }, at_least(0)},
    {"building_setback_m", K::Double, [](S& s) { return &s.building_setback_m; }},
    {"rsu_every", K::Int, [](S& s) { return &s.rsu_every; }, at_least(1)},
    {"max_rsus", K::Int, [](S& s) { return &s.max_rsus; }, at_least(0)},
    {"rsu_corridor_only", K::Bool, [](S& s) { return &s.rsu_corridor_only; }},
    {"rsu_cam_interval_ms", K::Ms, [](S& s) { return &s.rsu_cam_interval; }, kPositive},
    // Vehicle station ids stay below CityScenario::kRsuIdBase.
    {"vehicles", K::Int, [](S& s) { return &s.vehicles; }, {0, 799}},
    {"vehicle_speed_mps", K::Double, [](S& s) { return &s.vehicle_speed_mps; }, kPositive},
    {"vehicle_speed_jitter_mps", K::Double, [](S& s) { return &s.vehicle_speed_jitter_mps; },
     at_least(0)},
    {"obu_cam_interval_ms", K::Ms, [](S& s) { return &s.obu_cam_interval; }, kPositive},
    {"enable_dcc", K::Bool, [](S& s) { return &s.enable_dcc; }},
    {"enable_kaf", K::Bool, [](S& s) { return &s.enable_kaf; }},
    {"cpm_enable", K::Bool, [](S& s) { return &s.cpm_enable; }},
    {"cpm_interval_ms", K::Ms, [](S& s) { return &s.cpm_interval; }},
    {"cpm_object_lifetime_ms", K::Ms, [](S& s) { return &s.cpm_object_lifetime; }},
    {"cpm_redundancy_window_ms", K::Ms, [](S& s) { return &s.cpm_redundancy_window; }},
    {"path_loss_exponent", K::Double, [](S& s) { return &s.path_loss_exponent; }, at_least(1)},
    {"shadowing_sigma_db", K::Double, [](S& s) { return &s.shadowing_sigma_db; }, at_least(0)},
    {"tx_power_dbm", K::Double, [](S& s) { return &s.tx_power_dbm; }},
    {"spatial_index", K::Bool, [](S& s) { return &s.spatial_index; }},
    {"obstacle_index", K::Bool, [](S& s) { return &s.obstacle_index; }},
    {"power_floor_dbm", K::Double, [](S& s) { return &s.power_floor_dbm; }, {.hi = 0}},
    {"grid_cell_m", K::Double, [](S& s) { return &s.grid_cell_m; }, at_least(0)},
};

constexpr core::FieldTable<S> kCityTable{"CitySpec", kCityFields};

}  // namespace

void CitySpec::validate() const {
  kCityTable.check(*this);
  if (street_m >= block_m) {
    throw std::invalid_argument{"CitySpec: street_m must be narrower than block_m"};
  }
  if (cpm_enable) {
    if (cpm_interval <= sim::SimTime::zero() || cpm_object_lifetime <= sim::SimTime::zero()) {
      throw std::invalid_argument{"CitySpec: CPM interval and object lifetime must be positive"};
    }
    if (cpm_redundancy_window < sim::SimTime::zero()) {
      throw std::invalid_argument{"CitySpec: cpm_redundancy_window_ms must be non-negative"};
    }
  }
  if (corridor_row > blocks_y) {
    throw std::invalid_argument{"CitySpec: corridor_row beyond the street grid"};
  }
}

int CitySpec::resolved_corridor_row() const {
  return corridor_row >= 0 ? corridor_row : (blocks_y + 1) / 2;
}

CitySpec parse_city_spec(const std::string& text) {
  CitySpec spec;
  kCityTable.parse(spec, text);
  spec.validate();
  return spec;
}

std::string format_city_spec(const CitySpec& spec) {
  std::string out;
  kCityTable.format(spec, out, " = ", "\n");
  return out;
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
