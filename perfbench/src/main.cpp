// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <brake_trials|city_grid|campaign_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//
// Prints the human-readable metrics, work counts and checks, then one JSON
// line: end-to-end metrics untraced (--trace 0), per-layer metrics traced
// (--trace 1). Exits non-zero when any output check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "metrics_table.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <brake_trials|city_grid|campaign_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::uint64_t trace = 0;
  std::uint64_t seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds == 0) return usage();
      options.seconds = static_cast<double>(seconds);
    } else if (arg == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1) return usage();
      options.trace = trace == 1;
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "brake_trials") run = run_brake_trials;
  if (options.workload == "city_grid") run = run_city_grid;
  if (options.workload == "campaign_mix") run = run_campaign_mix;
  if (!run || seconds == 0) return usage();

  // Run hygiene: the library's thread and partition knobs must not leak in
  // from the environment; every thread count here is explicit.
  ::unsetenv("RST_THREADS");
  ::unsetenv("RST_PARTITIONS");
  options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0);
  std::printf("# nproc=%u threads=%u build=%s compiler=%s commit=%s\n",
              std::thread::hardware_concurrency(), options.threads, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, options.commit.c_str());

  Report report;
  try {
    run(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);

  std::vector<std::string> json;
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    report.check("trace.chrome_json_written", report.spans.write_chrome_json(path), path);
    report.layer("trace.spans", static_cast<double>(report.spans.size()));
    // A layer the workload does not exercise reads 0 (it should not move).
    for (const auto& spec : per_layer_metrics()) {
      if (!report.has_metric(spec.name)) report.layer(spec.name, 0.0);
      json.emplace_back(spec.name);
    }
  } else {
    for (const auto& spec : end_to_end_metrics()) json.emplace_back(spec.name);
  }
  report.print(json);
  return report.correct() ? 0 : 1;
}
