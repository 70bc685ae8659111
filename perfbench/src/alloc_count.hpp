#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new by the calling thread. The
/// counter is thread-local, so a trial's allocations can be measured on the
/// worker that runs it, whatever the thread count.
[[nodiscard]] std::uint64_t thread_allocations();

}  // namespace perfbench
