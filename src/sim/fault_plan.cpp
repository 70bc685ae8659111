#include "rst/sim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rst::sim {

namespace {

constexpr std::array<std::string_view, kFaultKindCount> kKindNames = {
    "radio-blackout", "radio-attenuation", "camera-freeze", "camera-drop",
    "yolo-miss",      "yolo-misclassify",  "yolo-confidence",
    "http-loss",      "http-stall",        "gnss-drift",     "node-down",
};

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "unknown";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

FaultClause parse_fault_clause(const std::string& text) {
  // kind:target:start_ms:end_ms:severity — target is the only field that
  // may be empty ("" and "*" both mean every target of the kind).
  std::array<std::string, 5> fields;
  std::size_t field = 0;
  for (const char c : text) {
    if (c == ':') {
      if (++field >= fields.size()) {
        throw std::invalid_argument{"fault clause: too many fields in '" + text + "'"};
      }
    } else {
      fields[field] += c;
    }
  }
  if (field != fields.size() - 1) {
    throw std::invalid_argument{"fault clause: expected kind:target:start_ms:end_ms:severity, got '" +
                                text + "'"};
  }
  const auto kind = fault_kind_from_name(fields[0]);
  if (!kind) throw std::invalid_argument{"fault clause: unknown kind '" + fields[0] + "'"};

  const auto number = [&](const std::string& value, const char* what) {
    std::size_t consumed = 0;
    double v = 0;
    try {
      v = std::stod(value, &consumed);
    } catch (const std::exception&) {
      consumed = std::string::npos;
    }
    if (consumed != value.size()) {
      throw std::invalid_argument{std::string{"fault clause: bad "} + what + " '" + value + "'"};
    }
    return v;
  };
  const auto time = [&](const std::string& value, const char* what) {
    // Beyond kMaxMilliseconds the nanosecond conversion overflows.
    const double ms = number(value, what);
    if (!(std::abs(ms) <= SimTime::kMaxMilliseconds)) {
      throw std::invalid_argument{std::string{"fault clause: "} + what + " out of range '" + value +
                                  "'"};
    }
    return SimTime::from_milliseconds(ms);
  };
  FaultClause clause;
  clause.kind = *kind;
  clause.target = fields[1] == "*" ? std::string{} : fields[1];
  clause.start = time(fields[2], "start");
  clause.end = time(fields[3], "end");
  clause.severity = number(fields[4], "severity");
  if (clause.end < clause.start) {
    throw std::invalid_argument{"fault clause: window ends before it starts in '" + text + "'"};
  }
  return clause;
}

std::string format_fault_clause(const FaultClause& clause) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%.*s:%s:%.17g:%.17g:%.17g",
                static_cast<int>(fault_kind_name(clause.kind).size()),
                fault_kind_name(clause.kind).data(), clause.target.c_str(),
                clause.start.to_milliseconds(), clause.end.to_milliseconds(), clause.severity);
  return buf;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::string out;
  for (const auto& clause : plan.clauses) {
    out += "fault = ";
    out += format_fault_clause(clause);
    out += '\n';
  }
  return out;
}

FaultInjector::FaultInjector(Scheduler& sched, RandomStream rng, FaultPlan plan, Trace* trace)
    : sched_{sched}, plan_{std::move(plan)}, trace_{trace} {
  streams_.reserve(kFaultKindCount);
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    streams_.push_back(
        rng.child(std::string{"fault."} + std::string{kKindNames[i]}));
  }
  // Every clause boundary becomes a typed span, so an activation and its
  // recovery are visible (and Perfetto-renderable) exactly like a pipeline
  // stage. Empty windows ([t, t)) never activate and emit nothing.
  for (std::size_t i = 0; i < plan_.clauses.size(); ++i) {
    const FaultClause& clause = plan_.clauses[i];
    if (clause.end <= clause.start) continue;
    const auto detail = static_cast<std::uint16_t>(clause.kind);
    sched_.post_at(clause.start, [this, i, detail, severity = clause.severity] {
      ++stats_.activations;
      if (trace_) {
        trace_->span_begin(sched_.now(), Stage::FaultWindow, 0, i, severity, detail);
      }
    });
    sched_.post_at(clause.end, [this, i, detail, severity = clause.severity] {
      ++stats_.recoveries;
      if (trace_) trace_->span_end(sched_.now(), Stage::FaultWindow, 0, i, severity, detail);
    });
  }
}

bool FaultInjector::matches(const FaultClause& clause, FaultKind kind, std::string_view target) {
  return clause.kind == kind && (clause.target.empty() || clause.target == target);
}

bool FaultInjector::active(FaultKind kind, std::string_view target) const {
  const SimTime now = sched_.now();
  for (const auto& clause : plan_.clauses) {
    if (matches(clause, kind, target) && clause.start <= now && now < clause.end) return true;
  }
  return false;
}

double FaultInjector::severity(FaultKind kind, std::string_view target) const {
  const SimTime now = sched_.now();
  double worst = 0.0;
  for (const auto& clause : plan_.clauses) {
    if (matches(clause, kind, target) && clause.start <= now && now < clause.end) {
      worst = std::max(worst, clause.severity);
    }
  }
  return worst;
}

double FaultInjector::radio_attenuation_db(std::string_view target) const {
  double db = severity(FaultKind::RadioAttenuation, target);
  if (active(FaultKind::RadioBlackout, target)) db = std::max(db, kRadioBlackoutDb);
  return db;
}

}  // namespace rst::sim
