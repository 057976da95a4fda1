// Lossy networks (paper §VIII): soundness degradation under packet loss
// and what re-polling buys back.
//
// TCA-Model assumes a reliable network; a real 802.15.4 deployment is
// not. This example sweeps the link loss rate and measures, over many
// rounds, how often a perfectly healthy swarm still fails verification
// (a false alarm) — first with the plain protocol, then with the repoll
// extension enabled.
#include <cstdio>

#include "sap/swarm.hpp"

namespace {

constexpr std::uint32_t kDevices = 126;
constexpr int kRounds = 25;

double false_alarm_rate(double loss, bool repoll, std::uint64_t seed) {
  cra::sap::SapConfig config;
  config.pmem_size = 8 * 1024;
  config.adaptive.enabled = repoll;
  config.adaptive.max_repolls = 3;
  auto swarm = cra::sap::SapSimulation::balanced(config, kDevices, seed);
  swarm.network().set_loss_rate(loss, seed);

  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (!swarm.run_round().verified) ++failures;
    swarm.advance_time(cra::sim::Duration::from_ms(200));
  }
  return static_cast<double>(failures) / kRounds;
}

}  // namespace

int main() {
  std::printf("lossy swarm: %u healthy devices, %d rounds per point\n",
              kDevices, kRounds);
  std::printf("(every verification failure below is a FALSE alarm)\n\n");
  std::printf("%-12s | %-18s | %-18s\n", "loss rate", "plain false-alarm",
              "with repoll");
  std::printf("-------------|--------------------|------------------\n");
  for (double loss : {0.0, 0.001, 0.005, 0.01, 0.02, 0.05}) {
    const double plain = false_alarm_rate(loss, false, /*seed=*/31);
    const double retry = false_alarm_rate(loss, true, /*seed=*/31);
    std::printf("%-12.3f | %-18.2f | %-18.2f\n", loss, plain, retry);
  }
  std::printf("\nre-polling recovers report-path losses; chal-path "
              "losses still darken a\nsubtree for the round (the paper "
              "leaves lossy-network soundness relaxation open).\n");
  return 0;
}
