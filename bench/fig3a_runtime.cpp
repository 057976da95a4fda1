// Figure 3(a): cRA execution time, SAP vs SEDA, N up to 10^6.
//
// Paper: both curves are a large constant (the PMEM measurement) plus a
// logarithmic term; SAP ≈ 0.6 s and SEDA ≈ 1.4 s at N = 10^6, SAP wins
// at every size. Every row below is a full simulated round (not the
// closed form); the last columns give the analytic predictions so model
// and simulation can be compared at a glance.
#include <cstdio>
#include <string>
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

  // One round on a freshly built swarm: what a table row needs from it,
  // and the wall time of run_round() alone (construction is setup, not
  // the round Fig. 3(a) plots). The swarm dies on return, so one swarm
  // is alive at a time. An empty `prefix` captures no metrics.
  struct Point {
    bool verified = false;
    double sim_sec = 0;   // the simulated round
    double wall_sec = 0;  // run_round() on the host
    std::uint32_t depth = 0;
    double model_sec = 0;  // the analytic prediction at this depth
  };
  const auto sap_point = [&obs](const sap::SapConfig& cfg, std::uint32_t n,
                                const std::string& prefix) {
    auto sim = sap::SapSimulation::balanced(cfg, n);
    const benchargs::WallTimer wall;
    const sap::RoundReport round = sim.run_round();
    const double wall_sec = wall.sec();
    if (!prefix.empty()) obs.capture(sim.metrics(), prefix);
    const std::uint32_t depth = sim.tree().max_depth();
    return Point{round.verified, round.total().sec(), wall_sec, depth,
                 sap::predicted_total(cfg, depth).sec()};
  };
  const auto seda_point = [&obs](const seda::SedaConfig& cfg,
                                 std::uint32_t n, const std::string& prefix) {
    auto sim = seda::SedaSimulation::balanced(cfg, n);
    const benchargs::WallTimer wall;
    const seda::SedaRoundReport round = sim.run_round();
    const double wall_sec = wall.sec();
    if (!prefix.empty()) obs.capture(sim.metrics(), prefix);
    const std::uint32_t depth = sim.tree().max_depth();
    return Point{round.verified, round.total_time().sec(), wall_sec, depth,
                 sim.predicted_total(depth).sec()};
  };

  for (std::uint32_t n : sizes) {
    const Point sap_row =
        sap_point(sap_cfg, n, "sap/n=" + std::to_string(n) + "/");
    const Point seda_row =
        seda_point(seda_cfg, n, "seda/n=" + std::to_string(n) + "/");
    if (!sap_row.verified || !seda_row.verified) {
      std::fprintf(stderr, "N=%u: round failed to verify!\n", n);
      return 1;
    }
    std::fprintf(stderr,
                 "wall: N=%u threads=%u round sap=%.3fs seda=%.3fs\n", n,
                 args.threads, sap_row.wall_sec, seda_row.wall_sec);
    if (args.threads > 1) {
      // Speedup vs one shard (the serial event loop) on the same swarm.
      sap::SapConfig serial_sap = sap_cfg;
      serial_sap.sim = sim::SimConfig{};
      seda::SedaConfig serial_seda = seda_cfg;
      serial_seda.sim = sim::SimConfig{};
      const double sap_serial_sec = sap_point(serial_sap, n, "").wall_sec;
      const double seda_serial_sec = seda_point(serial_seda, n, "").wall_sec;
      std::fprintf(stderr,
                   "wall: N=%u threads=1 round sap=%.3fs seda=%.3fs "
                   "(speedup sap=%.2fx seda=%.2fx)\n",
                   n, sap_serial_sec, seda_serial_sec,
                   sap_serial_sec / sap_row.wall_sec,
                   seda_serial_sec / seda_row.wall_sec);
    }
    table.add_row({Table::count(n), std::to_string(sap_row.depth),
                   Table::num(sap_row.sim_sec), Table::num(seda_row.sim_sec),
                   Table::num(seda_row.sim_sec / sap_row.sim_sec, 2),
                   Table::num(sap_row.model_sec),
                   Table::num(seda_row.model_sec)});
  }

  std::printf("Figure 3(a) - cRA execution time vs swarm size\n");
  std::printf("(paper: SAP 0.6 s / SEDA 1.4 s at N=10^6; logarithmic "
              "growth; SAP always faster)\n\n");
  std::printf("%s", table.to_string().c_str());
  return 0;
}
