#include "rst/vehicle/message_handler.hpp"

namespace rst::vehicle {

MessageHandler::MessageHandler(sim::Scheduler& sched, VehicleBus& bus, middleware::HttpLan& lan,
                               sim::RandomStream rng, Config config, sim::Trace* trace)
    : sched_{sched},
      bus_{bus},
      lan_{lan},
      rng_{rng.child("msg_handler")},
      config_{config},
      trace_{trace},
      poll_timer_{sched, [this] { poll(); }} {}

void MessageHandler::start() {
  if (poll_timer_.armed()) return;
  last_contact_ = sched_.now();  // grace period: contact assumed at startup
  // First poll at a random phase, as the script start is uncorrelated with
  // the experiment.
  poll_timer_.arm_in(rng_.uniform_time(sim::SimTime::zero(), config_.poll_period));
}

void MessageHandler::poll() {
  const std::uint64_t poll_no = ++stats_.polls;
  if (last_poll_failed_) ++stats_.retries;
  if (trace_) trace_->span_begin(sched_.now(), sim::Stage::DenmPoll, 0, poll_no);
  lan_.request_denm(config_.obu_hostname,
                    [this, poll_no](int status, const std::vector<its::Denm>& denms) {
                      if (trace_) trace_->span_end(sched_.now(), sim::Stage::DenmPoll, 0, poll_no);
                      on_response(status, denms);
                    });
  poll_timer_.arm_in(config_.poll_period);
}

bool MessageHandler::is_emergency(const its::Denm& denm) {
  if (denm.is_termination() || !denm.situation) return false;
  switch (denm.situation->event_type.cause()) {
    case its::Cause::CollisionRisk:
    case its::Cause::DangerousSituation:
    case its::Cause::StationaryVehicle:
    case its::Cause::HazardousLocationObstacleOnTheRoad:
      return true;
    default:
      return false;
  }
}

void MessageHandler::set_degraded(bool degraded) {
  if (degraded_ == degraded) return;
  degraded_ = degraded;
  if (degraded) {
    ++stats_.watchdog_degradations;
    if (trace_) trace_->record_event(sched_.now(), sim::Stage::WatchdogDegraded);
  } else {
    ++stats_.watchdog_recoveries;
    if (trace_) trace_->record_event(sched_.now(), sim::Stage::WatchdogRecovered);
  }
  bus_.watchdog.publish(WatchdogState{degraded});
}

void MessageHandler::on_response(int status, const std::vector<its::Denm>& denms) {
  if (status != 200) {
    // Lost request (status 0 after the LAN's loss timeout) or server error.
    // The next scheduled poll is the retry; the watchdog degrades once the
    // silence outlives its timeout. Every poll response always comes back
    // (loss produces a timed-out status-0 reply), so liveness needs no
    // timer of its own.
    ++stats_.failed_polls;
    last_poll_failed_ = true;
    if (config_.watchdog && !degraded_ &&
        sched_.now() - last_contact_ > config_.watchdog_timeout) {
      set_degraded(true);
    }
    return;
  }
  last_poll_failed_ = false;
  last_contact_ = sched_.now();
  if (config_.watchdog && degraded_) set_degraded(false);
  // The API drains its whole inbox per poll, oldest first.
  for (const its::Denm& denm : denms) handle_denm(denm);
}

void MessageHandler::handle_denm(const its::Denm& denm) {
  ++stats_.denms_fetched;
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::DenmFetch, 0,
                         sim::pack_action(denm.management.action_id.originating_station,
                                          denm.management.action_id.sequence_number));
  }
  if (!is_emergency(denm)) return;
  ++stats_.emergencies;
  const auto handling = config_.handling_latency +
                        rng_.uniform_time(sim::SimTime::zero(), config_.handling_jitter);
  sched_.post_in(handling, [this] { bus_.v2x_emergency.publish(EmergencyStop{}); });
}

}  // namespace rst::vehicle
