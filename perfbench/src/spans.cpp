#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t parent, std::uint64_t id) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNoParent;
  }
  const auto now = std::chrono::steady_clock::now();
  spans_.push_back({name, parent, id, now, now});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::uint32_t span) {
  if (span < spans_.size()) spans_[span].end = std::chrono::steady_clock::now();
}

void SpanRecorder::add(const char* name, std::uint32_t parent, std::uint64_t id,
                       std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, parent, id, start, end});
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  const auto origin = spans_.empty() ? std::chrono::steady_clock::time_point{} : spans_.front().start;
  const auto us = [&](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent = s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"id\":%llu}}%s\n",
                  s.name, us(s.start), us(s.end) - us(s.start), i, parent,
                  static_cast<unsigned long long>(s.id), i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":" << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
