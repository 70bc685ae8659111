// Extension A5 (paper §V): "We are currently installing a 5G module in the
// robotic vehicles, to compare the same detection-to-action delay over a
// different interface and network." Compares the RSU->vehicle warning hop
// over ITS-G5 (802.11p broadcast) against cellular profiles, and composes
// the resulting end-to-end detection-to-action estimate.

#include <cstdio>
#include <vector>

#include "rst/cellular/cellular_link.hpp"
#include "rst/core/experiment.hpp"

namespace {

rst::sim::RunningStats measure_cellular(const rst::cellular::CellularConfig& config,
                                        std::uint64_t seed, int messages) {
  using namespace rst;
  using namespace rst::sim::literals;
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{seed, "5g"}, config};
  auto& rsu = net.create_endpoint("rsu");
  auto& car = net.create_endpoint("car");
  (void)rsu;

  sim::RunningStats latency;
  std::vector<sim::SimTime> sent(messages);
  car.set_receive_callback([&](const std::vector<std::uint8_t>& payload, const std::string&) {
    const std::size_t i = payload[0] | (payload[1] << 8);
    latency.add((sched.now() - sent[i]).to_milliseconds());
  });
  for (int i = 0; i < messages; ++i) {
    sched.post_at(50_ms * i, [&, i] {
      sent[i] = sched.now();
      net.send("rsu", "car",
               {static_cast<std::uint8_t>(i & 0xff), static_cast<std::uint8_t>(i >> 8)});
    });
  }
  sched.run();
  return latency;
}

}  // namespace

int main() {
  constexpr int kMessages = 500;

  // Reference: the ITS-G5 hop measured in the full testbed campaign.
  rst::core::TestbedConfig config;
  config.seed = 31337;
  const auto testbed = rst::core::run_emergency_brake_experiment(config, 30);
  const double its_g5_hop = testbed.rsu_to_obu_ms.mean();
  const double non_radio_budget =
      testbed.detection_to_rsu_ms.mean() + testbed.obu_to_actuator_ms.mean();

  const auto embb = measure_cellular(rst::cellular::CellularConfig{}, 1, kMessages);
  const auto urllc = measure_cellular(rst::cellular::CellularConfig::urllc(), 2, kMessages);

  std::printf("Warning-hop latency by interface (RSU -> vehicle):\n\n");
  std::printf("  %-28s mean %6.2f ms   min %6.2f   max %6.2f\n", "ITS-G5 / IEEE 802.11p",
              its_g5_hop, testbed.rsu_to_obu_ms.min(), testbed.rsu_to_obu_ms.max());
  std::printf("  %-28s mean %6.2f ms   min %6.2f   max %6.2f\n", "5G (eMBB-like profile)",
              embb.mean(), embb.min(), embb.max());
  std::printf("  %-28s mean %6.2f ms   min %6.2f   max %6.2f\n", "5G (URLLC-like profile)",
              urllc.mean(), urllc.min(), urllc.max());

  std::printf("\nComposed detection-to-action estimate (non-radio budget %.1f ms):\n", non_radio_budget);
  std::printf("  over ITS-G5: %6.1f ms\n", non_radio_budget + its_g5_hop);
  std::printf("  over eMBB:   %6.1f ms\n", non_radio_budget + embb.mean());
  std::printf("  over URLLC:  %6.1f ms\n", non_radio_budget + urllc.mean());

  // Full-testbed comparison: the cellular bearer delivers by push to the
  // vehicle modem, so it also removes the OBU polling loop from the chain.
  std::printf("\nFull-testbed detection-to-action by bearer (15 trials each):\n");
  std::printf("  %-28s %-12s %-12s %-12s %s\n", "bearer", "det->RSU", "radio hop", "to actuators",
              "total (ms)");
  struct Row {
    rst::core::WarningPath path;
    const char* name;
    double total;
  };
  std::vector<Row> rows{{rst::core::WarningPath::ItsG5, "ITS-G5 + polling", 0},
                        {rst::core::WarningPath::CellularEmbb, "5G eMBB + push", 0},
                        {rst::core::WarningPath::CellularUrllc, "5G URLLC + push", 0}};
  for (auto& row : rows) {
    rst::core::TestbedConfig c;
    c.seed = 90210;
    c.warning_path = row.path;
    const auto s = rst::core::run_emergency_brake_experiment(c, 15);
    row.total = s.total_ms.mean();
    std::printf("  %-28s %10.1f   %10.1f   %10.1f   %8.1f\n", row.name,
                s.detection_to_rsu_ms.mean(), s.rsu_to_obu_ms.mean(),
                s.obu_to_actuator_ms.mean(), s.total_ms.mean());
  }

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("\n=== Shape checks ===\n");
  check("ITS-G5 direct broadcast beats the eMBB cellular path", its_g5_hop < embb.mean());
  check("URLLC narrows the gap to a few ms", urllc.mean() < 6.0);
  check("even over eMBB, detection-to-action stays under 100 ms",
        non_radio_budget + embb.mean() < 100.0);
  check("push delivery largely offsets the slower eMBB radio (full testbed)",
        rows[1].total < rows[0].total + 20.0);
  check("URLLC + push beats ITS-G5 + polling end-to-end", rows[2].total < rows[0].total);
  return ok ? 0 : 1;
}
