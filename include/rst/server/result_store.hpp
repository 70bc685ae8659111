#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace rst::server {

/// Content-addressed binary result store: an append-only segment file plus
/// an in-memory index. Records are (u64 key, u32 length, bytes) appended in
/// put() order; the index maps each key to its latest value, so re-putting
/// a key supersedes the old record on read while the dead bytes stay in the
/// segment until compact() rewrites it. With an empty path the store is
/// memory-only (tests, in-process transports) — same semantics, no file.
///
/// Durability model: the segment is flushed after every append and replayed
/// on open; a torn final record (crash mid-append) is truncated away rather
/// than rejected. The store is not thread-safe — the CampaignEngine serializes
/// access (puts happen on the seed-ordered flush path, which also makes the
/// segment byte layout independent of worker count).
class ResultStore {
 public:
  /// Magic + format version leading the segment file.
  static constexpr char kMagic[8] = {'R', 'S', 'T', 'S', 'T', 'O', 'R', '1'};

  explicit ResultStore(std::string path = {});
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Latest value stored under `key`; nullptr when absent. The pointer is
  /// invalidated by the next put()/compact() for that key.
  [[nodiscard]] const std::string* get(std::uint64_t key) const;

  /// Appends (key, value) to the segment and updates the index.
  void put(std::uint64_t key, const std::string& value);

  /// Live (latest-per-key) record count.
  [[nodiscard]] std::size_t count() const { return index_.size(); }
  /// Total record bytes ever appended to the current segment (incl. dead).
  [[nodiscard]] std::uint64_t appended_bytes() const { return appended_bytes_; }
  /// Record bytes a freshly compacted segment would hold.
  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }

  /// Rewrites the segment with only the live records (ascending key order,
  /// so a compacted file's bytes are a pure function of its contents).
  /// Returns the number of dead bytes reclaimed.
  std::uint64_t compact();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void append_record(std::uint64_t key, const std::string& value);
  void replay();
  /// Cuts the segment file down to `size` bytes (torn-tail recovery).
  void truncate_segment(std::uint64_t size);

  std::string path_;
  std::map<std::uint64_t, std::string> index_;
  std::uint64_t appended_bytes_{0};
  std::uint64_t live_bytes_{0};
};

}  // namespace rst::server
