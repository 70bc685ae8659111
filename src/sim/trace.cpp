#include "rst/sim/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace rst::sim {

std::string_view stage_name(Stage stage) {
  switch (stage) {
    case Stage::CameraFrame: return "CameraFrame";
    case Stage::YoloDetection: return "YoloDetection";
    case Stage::HazardDecision: return "HazardDecision";
    case Stage::TriggerDenm: return "TriggerDenm";
    case Stage::DenmTx: return "DenmTx";
    case Stage::DenmRx: return "DenmRx";
    case Stage::KafForward: return "KafForward";
    case Stage::GnForward: return "GnForward";
    case Stage::DenmPoll: return "DenmPoll";
    case Stage::DenmFetch: return "DenmFetch";
    case Stage::InboxDrop: return "InboxDrop";
    case Stage::EmergencyStop: return "EmergencyStop";
    case Stage::PowerCutCommand: return "PowerCutCommand";
    case Stage::PowerCutApplied: return "PowerCutApplied";
    case Stage::CamTx: return "CamTx";
    case Stage::CamRx: return "CamRx";
    case Stage::ModemDenmRx: return "ModemDenmRx";
    case Stage::AebTrigger: return "AebTrigger";
    case Stage::FaultWindow: return "FaultWindow";
    case Stage::WatchdogDegraded: return "WatchdogDegraded";
    case Stage::WatchdogRecovered: return "WatchdogRecovered";
    case Stage::CampaignAdmitted: return "CampaignAdmitted";
    case Stage::CampaignTrial: return "CampaignTrial";
    case Stage::StoreCompaction: return "StoreCompaction";
    case Stage::CpmTx: return "CpmTx";
    case Stage::CpmRx: return "CpmRx";
    case Stage::CpmFusion: return "CpmFusion";
    case Stage::DccState: return "DccState";
  }
  return "Unknown";
}

namespace {

char phase_char(Phase phase) {
  switch (phase) {
    case Phase::Instant: return 'i';
    case Phase::Begin: return 'b';
    case Phase::End: return 'e';
  }
  return '?';
}

}  // namespace

void Trace::push_event(SimTime when, Stage stage, Phase phase, std::uint32_t station,
                       std::uint64_t a, double value, std::uint16_t detail) {
  if (events_.size() >= event_capacity_) {
    ++events_dropped_;
    return;
  }
  if (events_.size() == events_.capacity()) {
    // A large capacity is reserved in steps, not up front: a short run
    // with a big ring would otherwise map the whole ring on its first event.
    events_.reserve(std::min(event_capacity_, std::max(kDefaultCapacity, 2 * events_.capacity())));
  }
  TraceEvent ev;
  ev.when = when;
  ev.a = a;
  ev.value = value;
  ev.station = station;
  ev.detail = detail;
  ev.stage = stage;
  ev.phase = phase;
  events_.push_back(ev);
  if (stage == watch_stage_ && watch_) watch_();
  if (echo_) {
    const std::string_view name = stage_name(stage);
    std::fprintf(stderr,
                 "[%12.3f ms] %-17.*s %c station=%" PRIu32 " a=%" PRIu64 " value=%g detail=%" PRIu16
                 "\n",
                 when.to_milliseconds(), static_cast<int>(name.size()), name.data(),
                 phase_char(phase), station, a, value, detail);
  }
}

const TraceEvent* Trace::find_event(Stage stage, SimTime from) const {
  for (const auto& ev : events_) {
    if (ev.when >= from && ev.stage == stage) return &ev;
  }
  return nullptr;
}

const TraceEvent* Trace::find_event(Stage stage, SimTime from, std::uint32_t station) const {
  for (const auto& ev : events_) {
    if (ev.when >= from && ev.stage == stage && ev.station == station) return &ev;
  }
  return nullptr;
}

void Trace::clear() {
  events_.clear();
  events_dropped_ = 0;
}

std::string Trace::to_chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (const auto& ev : events_) {
    if (&ev != &events_.front()) out += ',';
    const std::string_view name = stage_name(ev.stage);
    if (ev.phase == Phase::Instant) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%.*s\",\"cat\":\"rst\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,"
                    "\"pid\":0,\"tid\":%" PRIu32 ",\"args\":{\"a\":%" PRIu64
                    ",\"value\":%g,\"detail\":%" PRIu16 "}}",
                    static_cast<int>(name.size()), name.data(), ev.when.to_microseconds(),
                    ev.station, ev.a, ev.value, ev.detail);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%.*s\",\"cat\":\"rst\",\"ph\":\"%c\",\"id\":%" PRIu64
                    ",\"ts\":%.3f,\"pid\":0,\"tid\":%" PRIu32 ",\"args\":{\"value\":%g,"
                    "\"detail\":%" PRIu16 "}}",
                    static_cast<int>(name.size()), name.data(), phase_char(ev.phase), ev.a,
                    ev.when.to_microseconds(),
                    ev.station, ev.value, ev.detail);
    }
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace rst::sim
