// Figure 3(a): cRA execution time, SAP vs SEDA, N up to 10^6.
//
// Paper: both curves are a large constant (the PMEM measurement) plus a
// logarithmic term; SAP ≈ 0.6 s and SEDA ≈ 1.4 s at N = 10^6, SAP wins
// at every size. Every row below is a full simulated round (not the
// closed form); the last columns give the analytic predictions so model
// and simulation can be compared at a glance.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "sap/analysis.hpp"
#include "sap/swarm.hpp"
#include "seda/seda.hpp"

int main(int argc, char** argv) {
  using namespace cra;
  const benchargs::BenchArgs args = benchargs::parse(argc, argv);
  benchargs::ObsSession obs(args);

  sap::SapConfig sap_cfg;    // paper parameters
  seda::SedaConfig seda_cfg;
  sap_cfg.sim.threads = args.threads;
  seda_cfg.sim.threads = args.threads;

  Table table({"N", "depth", "SAP sim (s)", "SEDA sim (s)", "SEDA/SAP",
               "SAP model (s)", "SEDA model (s)"});

  std::vector<std::uint32_t> sizes = {10u,      100u,     1'000u,
                                      10'000u,  100'000u, 1'000'000u};
  if (args.devices != 0) sizes = {args.devices};

  // Wall time of one run_round() on an already constructed swarm:
  // construction is setup, not the round Fig. 3(a) plots.
  const auto timed_round = [](auto& sim) {
    const benchargs::WallTimer wall;
    auto round = sim.run_round();
    return std::pair{std::move(round), wall.sec()};
  };

  for (std::uint32_t n : sizes) {
    auto sap_sim = sap::SapSimulation::balanced(sap_cfg, n);
    const auto [sap_round, sap_wall] = timed_round(sap_sim);
    obs.capture(sap_sim.metrics(), "sap/n=" + std::to_string(n) + "/");

    auto seda_sim = seda::SedaSimulation::balanced(seda_cfg, n);
    const auto [seda_round, seda_wall] = timed_round(seda_sim);
    obs.capture(seda_sim.metrics(), "seda/n=" + std::to_string(n) + "/");

    if (!sap_round.verified || !seda_round.verified) {
      std::fprintf(stderr, "N=%u: round failed to verify!\n", n);
      return 1;
    }
    std::fprintf(stderr,
                 "wall: N=%u threads=%u round sap=%.3fs seda=%.3fs\n", n,
                 args.threads, sap_wall, seda_wall);
    if (args.threads > 1) {
      // Speedup vs one shard (the serial event loop) on the same swarm.
      sap::SapConfig serial_sap = sap_cfg;
      serial_sap.sim = sim::SimConfig{};
      seda::SedaConfig serial_seda = seda_cfg;
      serial_seda.sim = sim::SimConfig{};
      auto sap_serial = sap::SapSimulation::balanced(serial_sap, n);
      const double sap_serial_sec = timed_round(sap_serial).second;
      auto seda_serial = seda::SedaSimulation::balanced(serial_seda, n);
      const double seda_serial_sec = timed_round(seda_serial).second;
      std::fprintf(stderr,
                   "wall: N=%u threads=1 round sap=%.3fs seda=%.3fs "
                   "(speedup sap=%.2fx seda=%.2fx)\n",
                   n, sap_serial_sec, seda_serial_sec,
                   sap_serial_sec / sap_wall, seda_serial_sec / seda_wall);
    }
    const double sap_sec = sap_round.total().sec();
    const double seda_sec = seda_round.total_time().sec();
    table.add_row({Table::count(n),
                   std::to_string(sap_sim.tree().max_depth()),
                   Table::num(sap_sec), Table::num(seda_sec),
                   Table::num(seda_sec / sap_sec, 2),
                   Table::num(sap::predicted_total(
                                  sap_cfg, sap_sim.tree().max_depth())
                                  .sec()),
                   Table::num(seda_sim
                                  .predicted_total(
                                      seda_sim.tree().max_depth())
                                  .sec())});
  }

  std::printf("Figure 3(a) - cRA execution time vs swarm size\n");
  std::printf("(paper: SAP 0.6 s / SEDA 1.4 s at N=10^6; logarithmic "
              "growth; SAP always faster)\n\n");
  std::printf("%s", table.to_string().c_str());
  return 0;
}
