// Ablation: the TOCTOU window — how attestation frequency bounds what
// transient malware can get away with (§II: "estimating timeouts and
// vulnerability windows in case of TOCTOU attacks").
//
// SAP proves the swarm's state at t_att and says nothing about the gaps
// between rounds. Malware resident for a window of length D, placed at
// a random phase against rounds of period P, is caught iff some round's
// t_att lands inside the window — probability ≈ min(1, D/P). The sweep
// measures exactly that with live rounds: Equation 9 pins t_att before
// each round, so the victim's state at that instant is set precisely.
#include <cstdio>

#include "bench_args.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sap/analysis.hpp"
#include "sap/swarm.hpp"

namespace {

using namespace cra;

double detection_rate(double window_over_period, int trials,
                      benchargs::ObsSession& obs) {
  const sim::Duration period = sim::Duration::from_sec(2.0);
  const auto window =
      sim::Duration(static_cast<std::int64_t>(
          static_cast<double>(period.ns()) * window_over_period));
  int detected = 0;
  Rng rng(0xdecafu + static_cast<std::uint64_t>(window.ns()));

  for (int t = 0; t < trials; ++t) {
    sap::SapConfig cfg;
    cfg.pmem_size = 4 * 1024;
    auto swarm = sap::SapSimulation::balanced(
        cfg, 30, static_cast<std::uint64_t>(t) + 1);
    const auto victim = static_cast<net::NodeId>(1 + rng.next_below(30));

    // The malware window opens at a random phase within the first period.
    const auto phase = sim::Duration(static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(period.ns()))));
    const sim::SimTime t_infect = swarm.current_time() + phase;
    const sim::SimTime t_clean = t_infect + window;

    // What the round's measurement will see is the device state at
    // t_att, which Equation 9 pins down before the round starts; set the
    // victim's state for that instant exactly.
    bool caught = false;
    bool dirty = false;
    const sim::SimTime start = swarm.current_time();
    for (int round = 0; round < 4; ++round) {  // cover several periods
      const sim::SimTime boundary = start + period * round;
      if (boundary > swarm.current_time()) {
        swarm.advance_time(boundary - swarm.current_time());
      }
      const std::uint32_t tick = swarm.clock().time_to_tick_ceil(
          swarm.current_time() +
          sap::request_lead_time(cfg, swarm.tree().max_depth()));
      const sim::SimTime t_att = swarm.clock().tick_to_time(tick);
      const bool should_be_dirty = t_att >= t_infect && t_att < t_clean;
      if (should_be_dirty && !dirty) {
        swarm.compromise_device(victim);
        dirty = true;
      } else if (!should_be_dirty && dirty) {
        swarm.restore_device(victim);
        dirty = false;
      }
      if (!swarm.run_round().verified) caught = true;
      char prefix[48];
      std::snprintf(prefix, sizeof prefix, "window=%.2f/", window_over_period);
      obs.capture(swarm.metrics(), prefix);
    }
    if (caught) ++detected;
  }
  return static_cast<double>(detected) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  const benchargs::BenchArgs args = benchargs::parse(argc, argv);
  benchargs::ObsSession obs(args);
  constexpr int kTrials = 40;
  Table table({"window / period", "detection rate", "theory min(1, D/P)"});
  for (double ratio : {0.1, 0.25, 0.5, 0.75, 1.0, 1.5}) {
    table.add_row({Table::num(ratio, 2),
                   Table::num(detection_rate(ratio, kTrials, obs), 2),
                   Table::num(ratio >= 1.0 ? 1.0 : ratio, 2)});
  }
  std::printf("Ablation - TOCTOU window vs attestation period (N=30, "
              "%d trials/row, period 2 s)\n\n", kTrials);
  std::printf("%s", table.to_string().c_str());
  std::printf("\ntransient malware shorter than the attestation period "
              "escapes detection with\nprobability 1 - D/P: the "
              "vulnerability window is the deployment's choice of P.\n"
              "(DARPA-style heartbeats bound *absence*, not transient "
              "software state; closing\nthis gap needs runtime "
              "attestation, which the paper leaves as future work.)\n");
  return 0;
}
