// Ablation: lossy networks (§VIII) — how fast TCA-Soundness erodes with
// packet loss, with and without the repoll extension.
//
// Every failure below is a false alarm on a perfectly healthy swarm.
// SAP's synchronous design makes chal-path loss unrecoverable within a
// round (a device that misses t_att cannot attest late), so repoll only
// claws back report-path losses — quantifying the paper's remark that
// lossy networks need a relaxed soundness notion.
#include <cstdio>
#include <string>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "sap/swarm.hpp"

namespace {

using namespace cra;

double false_alarm_rate(double loss, bool repoll, std::uint32_t devices,
                        int rounds, benchargs::ObsSession& obs) {
  sap::SapConfig cfg;
  cfg.pmem_size = 8 * 1024;
  cfg.adaptive.enabled = repoll;
  cfg.adaptive.max_repolls = 3;
  auto swarm = sap::SapSimulation::balanced(cfg, devices, /*seed=*/17);
  swarm.network().set_loss_rate(loss, /*seed=*/17);
  // Round counters reset each round; accumulating every round into the
  // cell's namespace gives per-cell totals (bytes, drops, repolls).
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "loss=%.4f/%s/", loss,
                repoll ? "repoll" : "plain");
  int failures = 0;
  for (int i = 0; i < rounds; ++i) {
    if (!swarm.run_round().verified) ++failures;
    obs.capture(swarm.metrics(), prefix);
    swarm.advance_time(sim::Duration::from_ms(100));
  }
  return static_cast<double>(failures) / rounds;
}

}  // namespace

int main(int argc, char** argv) {
  const benchargs::BenchArgs args = benchargs::parse(argc, argv);
  benchargs::ObsSession obs(args);
  const std::uint32_t kDevices = args.devices != 0 ? args.devices : 254;
  constexpr int kRounds = 40;

  Table table({"loss rate", "plain false-alarm rate",
               "repoll false-alarm rate"});
  for (double loss : {0.0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02}) {
    table.add_row({Table::num(loss, 4),
                   Table::num(false_alarm_rate(loss, false, kDevices,
                                               kRounds, obs), 2),
                   Table::num(false_alarm_rate(loss, true, kDevices,
                                               kRounds, obs), 2)});
  }

  std::printf("Ablation - packet loss vs soundness (N=%u, %d rounds per "
              "cell, healthy swarm)\n\n", kDevices, kRounds);
  std::printf("%s", table.to_string().c_str());
  std::printf("\nwith ~2N messages per round, even 0.1%% loss hits ~40%% "
              "of rounds; repoll recovers\nthe report-path share. A "
              "deployment-grade fix needs chal-side redundancy or the\n"
              "relaxed soundness notion the paper sketches.\n");
  return 0;
}
