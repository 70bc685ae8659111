#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span log for the traced mode: each span has a name, host start
/// and end, the index of its parent span, and the trial or request id it
/// belongs to. Spans are written out as Chrome trace-event JSON when the run
/// ends; beyond `kMaxSpans` new spans are counted but not kept.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSpans = 400'000;
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// Opens a span and returns its index (kNoParent when the log is full).
  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t id);
  void end(std::uint32_t span);
  /// Records a span whose times were taken by the caller.
  void add(const char* name, std::uint32_t parent, std::uint64_t id,
           std::chrono::steady_clock::time_point start, std::chrono::steady_clock::time_point end);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span,
  /// timestamps in microseconds from the first span. Returns false when the
  /// file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t id;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<Span> spans_;
  std::uint64_t dropped_{0};
};

}  // namespace perfbench
