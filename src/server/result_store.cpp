#include "rst/server/result_store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace rst::server {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  return v;
}

std::uint64_t record_bytes(const std::string& value) {
  return 8 + 4 + static_cast<std::uint64_t>(value.size());
}

}  // namespace

ResultStore::ResultStore(std::string path) : path_{std::move(path)} {
  if (!path_.empty()) replay();
}

ResultStore::~ResultStore() = default;

const std::string* ResultStore::get(std::uint64_t key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second;
}

void ResultStore::put(std::uint64_t key, const std::string& value) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    index_.emplace(key, value);
  } else {
    // Superseded: the old record's segment bytes go dead until compact().
    live_bytes_ -= record_bytes(it->second);
    it->second = value;
  }
  live_bytes_ += record_bytes(value);
  append_record(key, value);
  appended_bytes_ += record_bytes(value);
}

void ResultStore::truncate_segment(std::uint64_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path_, size, ec);
  if (ec) {
    throw std::runtime_error{"ResultStore: cannot truncate torn tail of " + path_ + ": " +
                             ec.message()};
  }
}

void ResultStore::append_record(std::uint64_t key, const std::string& value) {
  if (path_.empty()) return;
  std::string rec;
  rec.reserve(12 + value.size());
  put_u64(rec, key);
  put_u32(rec, static_cast<std::uint32_t>(value.size()));
  rec += value;
  std::ofstream out{path_, std::ios::binary | std::ios::app};
  if (!out) throw std::runtime_error{"ResultStore: cannot append to " + path_};
  // A fresh file needs the header first; detect via current position.
  out.seekp(0, std::ios::end);
  if (out.tellp() == std::streampos{0}) out.write(kMagic, sizeof kMagic);
  out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  if (!out) throw std::runtime_error{"ResultStore: short write to " + path_};
}

void ResultStore::replay() {
  std::ifstream in{path_, std::ios::binary};
  if (!in) return;  // no segment yet — first put() creates it
  std::vector<char> data{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  if (data.empty()) return;
  const std::string_view magic{kMagic, sizeof kMagic};
  const std::string_view head{data.data(), std::min(data.size(), sizeof kMagic)};
  if (head != magic.substr(0, head.size())) {
    throw std::runtime_error{"ResultStore: " + path_ + " is not a result segment"};
  }
  if (data.size() < sizeof kMagic) {
    truncate_segment(0);  // crash mid-header: next append rewrites the magic
    return;
  }
  std::size_t pos = sizeof kMagic;
  while (pos + 12 <= data.size()) {
    const std::uint64_t key = get_u64(data.data() + pos);
    const std::uint32_t len = get_u32(data.data() + pos + 8);
    if (pos + 12 + len > data.size()) break;  // torn tail: truncated below
    std::string value{data.data() + pos + 12, len};
    const bool inserted = index_.insert_or_assign(key, std::move(value)).second;
    (void)inserted;
    pos += 12 + len;
    appended_bytes_ += 12 + len;
  }
  if (pos < data.size()) {
    // A torn final record must be cut from the file, not just skipped in the
    // index: append opens with ios::app, and new records written after the
    // partial bytes would misalign the parse on the next open.
    truncate_segment(pos);
  }
  live_bytes_ = 0;
  for (const auto& [k, v] : index_) {
    (void)k;
    live_bytes_ += record_bytes(v);
  }
}

std::uint64_t ResultStore::compact() {
  const std::uint64_t reclaimed =
      appended_bytes_ > live_bytes_ ? appended_bytes_ - live_bytes_ : 0;
  if (!path_.empty()) {
    const std::string tmp = path_ + ".compact";
    {
      std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
      if (!out) throw std::runtime_error{"ResultStore: cannot write " + tmp};
      out.write(kMagic, sizeof kMagic);
      for (const auto& [key, value] : index_) {
        std::string rec;
        put_u64(rec, key);
        put_u32(rec, static_cast<std::uint32_t>(value.size()));
        rec += value;
        out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
      }
      if (!out) throw std::runtime_error{"ResultStore: short write to " + tmp};
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error{"ResultStore: cannot replace " + path_};
    }
  }
  appended_bytes_ = live_bytes_;
  return reclaimed;
}

}  // namespace rst::server
