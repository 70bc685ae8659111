#include "rst/dot11p/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rst/dot11p/radio.hpp"
#include "rst/sim/fault_plan.hpp"

namespace rst::dot11p {

namespace {

constexpr sim::SimTime kDefaultReindexPeriod = sim::SimTime::milliseconds(100);

/// Salt separating the PER draw stream from the shadowing/fading stream of
/// the same (tx, rx, seq) link.
constexpr std::uint64_t kPerDrawSalt = 0x5bd1e995u;

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Medium::Medium(sim::Scheduler& sched, sim::RandomStream rng, ChannelModel channel)
    : sched_{sched},
      link_rng_{rng.child("link")},
      channel_{std::move(channel)},
      last_reindex_{sched.now()},
      reindex_period_{channel_.reindex_period > sim::SimTime::zero() ? channel_.reindex_period
                                                                     : kDefaultReindexPeriod} {}

Medium::~Medium() = default;

void Medium::ensure_grid(const RadioConfig& first_cfg) {
  if (grid_ || !channel_.spatial_index) return;
  double cell = channel_.cell_size_m;
  if (cell <= 0.0) {
    // Derive from the power floor: one cell spans roughly one hearing
    // radius, so a query visits a 3x3-ish neighbourhood. Radios attached
    // later with bigger budgets just query more cells; correctness never
    // depends on the cell size.
    const double budget = first_cfg.tx_power_dbm + 2.0 * first_cfg.antenna_gain_dbi -
                          channel_.power_floor_dbm;
    const double r = invert_range_m(budget);
    cell = std::isfinite(r) ? std::clamp(r, 1.0, 10000.0) : 250.0;
  }
  grid_ = std::make_unique<geo::SpatialGrid>(cell);
}

void Medium::attach(Radio* radio) {
  std::uint32_t slot_id;
  if (!free_slots_.empty()) {
    slot_id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_id];
  slot.radio = radio;
  slot.pos = radio->position();
  // Epochs stay monotone across slot reuse so budget-cache entries written
  // by a previous occupant of this slot can never validate again.
  ++slot.epoch;
  slot.tx_frames = 0;
  slot.interference_mw = 0.0;
  slot.cull_radius_m = -1.0;
  slot.active.clear();
  slot.own.clear();
  radio->set_medium_slot(slot_id);
  ++attached_count_;

  if (radio->config().antenna_gain_dbi > max_antenna_gain_dbi_) {
    max_antenna_gain_dbi_ = radio->config().antenna_gain_dbi;
    // A bigger peak receive gain widens every transmitter's hearing range.
    for (Slot& s : slots_) s.cull_radius_m = -1.0;
  }
  if (channel_.spatial_index) {
    ensure_grid(radio->config());
    grid_->insert(slot_id, slot.pos);
  }
}

void Medium::detach(Radio* radio) {
  const std::uint32_t slot_id = radio->medium_slot();
  if (slot_id >= slots_.size() || slots_[slot_id].radio != radio) return;  // never attached here
  Slot& slot = slots_[slot_id];

  // Settle carrier sense: every in-flight frame that held this radio busy
  // would have released it at its finish event; do it now, without side
  // effects, so the radio's busy accounting is coherent at detach time.
  int cs_held = 0;
  for (const ActiveRx& a : slot.active) {
    if (a.t->rx_power_dbm[a.index] >= radio->config().cs_threshold_dbm) ++cs_held;
    a.t->receivers[a.index] = nullptr;  // keep indices stable for in-flight lookups
  }
  if (cs_held > 0) radio->settle_detach(cs_held);
  // A transmission whose sender vanishes mid-air still propagates, but no
  // completion callback may touch the dead radio.
  for (Transmission* t : slot.own) t->tx = nullptr;

  if (grid_) grid_->remove(slot_id, slot.pos);
  slot.radio = nullptr;
  slot.active.clear();
  slot.own.clear();
  slot.interference_mw = 0.0;
  free_slots_.push_back(slot_id);
  --attached_count_;
}

double Medium::mean_rx_power_dbm(const Radio& tx, const Radio& rx) const {
  const double loss = channel_.path_loss->loss_db(tx.position(), rx.position());
  return tx.config().tx_power_dbm + tx.config().antenna_gain_dbi + rx.config().antenna_gain_dbi - loss;
}

double Medium::invert_range_m(double budget_db) const {
  // Smallest distance at which even the best-case loss eats the whole
  // budget; bisection keeps the upper bracket so the radius never
  // under-estimates the true hearing range.
  const PathLossModel& model = *channel_.path_loss;
  double lo = 1.0;
  if (model.min_loss_db(lo) >= budget_db) return lo;
  double hi = lo;
  do {
    hi *= 2.0;
    if (hi > 1e7) return std::numeric_limits<double>::infinity();
  } while (model.min_loss_db(hi) < budget_db);
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (model.min_loss_db(mid) < budget_db ? lo : hi) = mid;
  }
  return hi;
}

double Medium::slot_cull_radius_m(Slot& slot) {
  const RadioConfig& cfg = slot.radio->config();
  const double budget = cfg.tx_power_dbm + cfg.antenna_gain_dbi + max_antenna_gain_dbi_ -
                        channel_.power_floor_dbm;
  if (slot.cull_radius_m < 0.0 || slot.cull_budget_db != budget) {
    slot.cull_radius_m = invert_range_m(budget);
    slot.cull_budget_db = budget;
  }
  return slot.cull_radius_m;
}

geo::Vec2 Medium::refresh_slot(std::uint32_t slot_id) {
  Slot& slot = slots_[slot_id];
  const geo::Vec2 now_pos = slot.radio->position();
  if (!(now_pos == slot.pos)) {
    if (grid_) grid_->move(slot_id, slot.pos, now_pos);
    slot.pos = now_pos;
    ++slot.epoch;  // any movement invalidates this endpoint's cached budgets
  }
  return slot.pos;
}

void Medium::maybe_reindex() {
  if (!grid_ || sched_.now() - last_reindex_ < reindex_period_) return;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].radio != nullptr) refresh_slot(id);
  }
  last_reindex_ = sched_.now();
}

double Medium::cached_budget_dbm(std::uint32_t tx_slot, std::uint32_t rx_slot) {
  const std::uint64_t key = (static_cast<std::uint64_t>(tx_slot) << 32) | rx_slot;
  const Slot& tx = slots_[tx_slot];
  const Slot& rx = slots_[rx_slot];
  auto [it, inserted] = budget_cache_.try_emplace(key);
  CachedBudget& entry = it->second;
  if (!inserted && entry.tx_epoch == tx.epoch && entry.rx_epoch == rx.epoch) {
    ++stats_.budget_cache_hits;
    return entry.mean_dbm;
  }
  ++stats_.budget_cache_misses;
  const double loss = channel_.path_loss->loss_db(tx.pos, rx.pos);
  entry.tx_epoch = tx.epoch;
  entry.rx_epoch = rx.epoch;
  entry.mean_dbm = tx.radio->config().tx_power_dbm + tx.radio->config().antenna_gain_dbi +
                   rx.radio->config().antenna_gain_dbi - loss;
  return entry.mean_dbm;
}

std::uint64_t Medium::link_key(std::uint64_t tx_mac, std::uint64_t rx_mac,
                               std::uint64_t seq) const {
  return hash_combine(hash_combine(hash_combine(0, tx_mac), rx_mac), seq);
}

std::shared_ptr<Medium::Transmission> Medium::acquire_transmission() {
  if (pool_.empty()) return std::make_shared<Transmission>();
  auto t = std::move(pool_.back());
  pool_.pop_back();
  return t;
}

void Medium::release_transmission(const std::shared_ptr<Transmission>& t) {
  t->frame = Frame{};  // drop the payload reference; keep vector capacity
  t->receivers.clear();
  t->rx_power_dbm.clear();
  t->rx_slots.clear();
  t->interference_mw.clear();
  pool_.push_back(t);
}

void Medium::begin_transmission(Radio* tx, Frame frame, std::size_t psdu_bytes) {
  std::shared_ptr<Transmission> t = acquire_transmission();
  t->tx = tx;
  t->tx_slot = tx->medium_slot();
  t->tx_mac = tx->mac_address();
  t->seq = ++slots_[t->tx_slot].tx_frames;
  t->frame = std::move(frame);
  t->psdu_bytes = psdu_bytes;
  t->mcs = tx->config().mcs;
  t->start = sched_.now();
  t->end = sched_.now() + frame_airtime(psdu_bytes, tx->config().mcs);
  tx_fault_db_ = faults_ ? faults_->radio_attenuation_db("medium") : 0.0;

  maybe_reindex();
  const geo::Vec2 tx_pos = refresh_slot(t->tx_slot);
  const double radius =
      grid_ ? slot_cull_radius_m(slots_[t->tx_slot]) : std::numeric_limits<double>::infinity();
  if (std::isfinite(radius)) {
    // Recorded positions can be up to one reindex period stale; pad the
    // query so a station moving at the speed bound cannot slip out of the
    // visited cells while still being audible.
    const double pad = channel_.max_station_speed_mps * reindex_period_.to_seconds();
    scratch_candidates_.clear();
    grid_->for_each_in_disc(tx_pos, radius + pad, [&](std::uint32_t id) {
      if (id != t->tx_slot) scratch_candidates_.push_back(id);
    });
    // Canonical order: ascending slot id, matching the full fan-out path,
    // so culling cannot reorder deliveries within one finish event.
    std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    for (const std::uint32_t rx_slot : scratch_candidates_) admit_receiver(t, rx_slot);
    // Radios outside the visited cells are below the power floor by
    // construction; fold them into the below-sensitivity drop count in one
    // step so MediumStats stay identical to the unculled path.
    const auto culled = static_cast<std::uint64_t>(attached_count_ - 1 -
                                                   scratch_candidates_.size());
    stats_.dropped_below_sensitivity += culled;
    stats_.culled_below_floor += culled;
  } else {
    for (std::uint32_t rx_slot = 0; rx_slot < slots_.size(); ++rx_slot) {
      if (slots_[rx_slot].radio == nullptr || rx_slot == t->tx_slot) continue;
      admit_receiver(t, rx_slot);
    }
  }
  slots_[t->tx_slot].own.push_back(t.get());

  ++stats_.frames_transmitted;
  sched_.post_at(t->end, [this, t] { finish_transmission(t); });
}

void Medium::admit_receiver(const std::shared_ptr<Transmission>& t, std::uint32_t rx_slot) {
  refresh_slot(rx_slot);
  // Fault attenuation folds into the deterministic budget (the draws are
  // counter-keyed, so floor-culling faulted links is safe).
  const double mean = cached_budget_dbm(t->tx_slot, rx_slot) - tx_fault_db_;
  if (mean < channel_.power_floor_dbm) {
    ++stats_.dropped_below_sensitivity;
    ++stats_.culled_below_floor;
    return;
  }
  Slot& rx = slots_[rx_slot];
  double p = mean;
  if (channel_.shadowing_sigma_db > 0 || channel_.fading == FadingModel::Nakagami) {
    sim::CounterStream draws =
        link_rng_.counter_child(link_key(t->tx_mac, rx.radio->mac_address(), t->seq));
    if (channel_.shadowing_sigma_db > 0) {
      p += draws.normal(0.0, channel_.shadowing_sigma_db);
    }
    if (channel_.fading == FadingModel::Nakagami) {
      // Unit-mean gamma power gain with shape m.
      const double gain = draws.gamma(channel_.nakagami_m, 1.0 / channel_.nakagami_m);
      p += mw_to_dbm(std::max(gain, 1e-9));
    }
  }

  const auto index = static_cast<std::uint32_t>(t->receivers.size());
  const double p_mw = dbm_to_mw(p);
  // Seed our interference tally with the receiver's running sum and add our
  // power to every overlapping transmission's tally. A transmission ending
  // exactly now does not overlap us (a finish event at this timestamp may
  // trigger this very admission through a delivery callback), so back its
  // power out of the seed instead of counting it; the in-flight list here
  // is a handful of entries, never the fleet.
  double seed_mw = rx.interference_mw;
  const sim::SimTime now = sched_.now();
  for (const ActiveRx& a : rx.active) {
    if (a.t->end <= now) {
      seed_mw -= dbm_to_mw(a.t->rx_power_dbm[a.index]);
    } else {
      a.t->interference_mw[a.index] += p_mw;
    }
  }
  t->receivers.push_back(rx.radio);
  t->rx_slots.push_back(rx_slot);
  t->rx_power_dbm.push_back(p);
  t->interference_mw.push_back(seed_mw);
  rx.active.push_back(ActiveRx{t.get(), index});
  rx.interference_mw += p_mw;
  if (p >= rx.radio->config().cs_threshold_dbm) rx.radio->on_cs_busy_delta(+1);
}

void Medium::remove_active(Slot& slot, const Transmission* t, std::uint32_t index) {
  for (ActiveRx& a : slot.active) {
    if (a.t == t && a.index == index) {
      a = slot.active.back();
      slot.active.pop_back();
      return;
    }
  }
}

void Medium::finish_transmission(const std::shared_ptr<Transmission>& t) {
  if (t->tx != nullptr) {
    std::erase(slots_[t->tx_slot].own, t.get());
    t->tx->on_tx_complete();
  }
  const double noise_mw = dbm_to_mw(noise_floor_dbm(0.0));
  for (std::size_t i = 0; i < t->receivers.size(); ++i) {
    Radio* rx = t->receivers[i];
    if (rx == nullptr) continue;  // detached mid-flight
    // The verdict is settled before carrier sense is released below:
    // on_cs_busy_delta(-1) can start this receiver's next transmission.
    const double power_dbm = t->rx_power_dbm[i];
    const bool audible = power_dbm >= rx->config().rx_sensitivity_dbm;
    const bool half_duplex = audible && rx->was_transmitting_during(t->start, t->end);
    double sinr_db = 0.0;
    bool error = false;
    if (audible && !half_duplex) {
      const double rx_noise_mw = noise_mw * db_to_ratio(rx->config().noise_figure_db);
      // O(1): the tally already holds the sum of every overlapping
      // transmission's power at this receiver (own power excluded).
      const double sinr_mw = dbm_to_mw(power_dbm) / (rx_noise_mw + t->interference_mw[i]);
      sinr_db = mw_to_dbm(sinr_mw);
      const double per = packet_error_rate(sinr_db, t->psdu_bytes, t->mcs);
      sim::CounterStream per_draw = link_rng_.counter_child(
          link_key(t->tx_mac, rx->mac_address(), t->seq) ^ kPerDrawSalt);
      error = per_draw.bernoulli(per);
    }

    Slot& rx_slot = slots_[t->rx_slots[i]];
    remove_active(rx_slot, t.get(), static_cast<std::uint32_t>(i));
    rx_slot.interference_mw -= dbm_to_mw(power_dbm);
    if (power_dbm >= rx->config().cs_threshold_dbm) rx->on_cs_busy_delta(-1);
    if (!audible) {
      ++stats_.dropped_below_sensitivity;
    } else if (half_duplex) {
      ++stats_.dropped_half_duplex;
    } else if (error) {
      ++stats_.dropped_error;
    } else {
      ++stats_.deliveries;
      rx->deliver(t->frame, RxInfo{power_dbm, sinr_db, sched_.now(), t->frame.src_mac});
    }
  }
  release_transmission(t);
}

}  // namespace rst::dot11p
