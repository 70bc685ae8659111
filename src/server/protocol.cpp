#include "rst/server/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <string>

#include "rst/core/config_io.hpp"

namespace rst::server {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// First whitespace-separated word of `line`, and the rest after it.
std::string first_word(const std::string& line, std::string* rest) {
  std::size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) begin = line.size();
  std::size_t end = line.find_first_of(" \t", begin);
  if (end == std::string::npos) end = line.size();
  if (rest) {
    const std::size_t r = line.find_first_not_of(" \t", end);
    *rest = r == std::string::npos ? std::string{} : line.substr(r);
  }
  return line.substr(begin, end - begin);
}

/// Strict decimal: digits only, no sign, no wrap-around on overflow.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc{} && stop == end;
}

}  // namespace

bool LineSession::consume_line(const std::string& line, const LineSink& emit) {
  if (collecting_) {
    if (first_word(line, nullptr) == "END") {
      collecting_ = false;
      finish_campaign(emit);
      pending_ = CampaignRequest{};
    } else {
      pending_.spec += line;
      pending_.spec += '\n';
    }
    return true;
  }

  std::string rest;
  const std::string cmd = first_word(line, &rest);
  if (cmd.empty()) return true;  // blank line between commands
  if (cmd == "QUIT") return false;
  if (cmd == "PING") {
    emit("PONG");
    return true;
  }
  if (cmd == "STATS") {
    auto& m = engine_->metrics();
    emit("STATS admitted=" + std::to_string(m.counter("campaigns_admitted").value()) +
         " cache_hits=" + std::to_string(m.counter("cache_hits").value()) +
         " cache_misses=" + std::to_string(m.counter("cache_misses").value()) +
         " executed=" + std::to_string(engine_->trials_executed()) +
         " store_records=" + std::to_string(engine_->store().count()));
    return true;
  }
  if (cmd == "COMPACT") {
    emit("COMPACTED reclaimed=" + std::to_string(engine_->compact_store()));
    return true;
  }
  if (cmd == "CAMPAIGN") {
    pending_ = CampaignRequest{};
    // Header tokens: trials=<n> seed=<s>, either optional, any order.
    while (!rest.empty()) {
      std::string tail;
      const std::string tok = first_word(rest, &tail);
      rest = tail;
      const auto eq = tok.find('=');
      const std::string key = tok.substr(0, eq == std::string::npos ? tok.size() : eq);
      const std::string value = eq == std::string::npos ? std::string{} : tok.substr(eq + 1);
      std::uint64_t v = 0;
      if (key == "trials" && parse_u64(value, &v) && v >= 1 &&
          v <= static_cast<std::uint64_t>(engine_->config().max_trials)) {
        pending_.trials = static_cast<int>(v);
      } else if (key == "seed" && parse_u64(value, &v)) {
        pending_.base_seed = v;
      } else {
        emit("ERROR campaign header: bad token '" + tok + "'");
        emit("DONE");
        return true;
      }
    }
    collecting_ = true;
    return true;
  }
  emit("ERROR unknown command '" + cmd + "'");
  emit("DONE");
  return true;
}

void LineSession::finish_campaign(const LineSink& emit) {
  // The OK header carries the campaign id, which the engine derives from the
  // canonical spec — so it is emitted lazily, just before the first artifact
  // line (by which point validation has necessarily passed).
  bool ok_emitted = false;
  const CampaignRequest request = pending_;
  const auto header = [&] {
    if (ok_emitted) return;
    ok_emitted = true;
    const std::uint64_t id =
        campaign_id(core::canonicalize_spec(request.spec), request.trials, request.base_seed);
    emit("OK id=" + hex16(id) + " trials=" + std::to_string(request.trials));
  };
  const CampaignOutcome outcome =
      engine_->execute(request, [&](const std::string& line) {
        header();
        emit(line);
      });
  if (outcome.status == CampaignOutcome::Status::Ok) {
    header();  // degenerate campaigns with no artifact lines still get OK
    emit("ENDARTIFACT");
    emit("STATS hits=" + std::to_string(outcome.cache_hits) +
         " misses=" + std::to_string(outcome.cache_misses) +
         " executed=" + std::to_string(outcome.executed));
  } else {
    emit("ERROR " + outcome.error);
  }
  emit("DONE");
}

std::string LineSession::handle_text(const std::string& request_text) {
  std::string response;
  const LineSink emit = [&](const std::string& line) {
    response += line;
    response += '\n';
  };
  std::size_t pos = 0;
  bool open = true;
  while (open && pos <= request_text.size()) {
    const auto nl = request_text.find('\n', pos);
    const std::string line =
        request_text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    open = consume_line(line, emit);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return response;
}

std::string format_campaign_request(const CampaignRequest& request) {
  std::string out = "CAMPAIGN trials=" + std::to_string(request.trials) +
                    " seed=" + std::to_string(request.base_seed) + "\n";
  out += request.spec;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += "END\n";
  return out;
}

}  // namespace rst::server
