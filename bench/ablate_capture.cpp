// Ablation: physical-capture detection (§VIII) — what the heartbeat
// extension costs and what it buys.
//
// SAP alone cannot see a device that is captured, tampered offline, and
// returned with clean PMEM between rounds. The heartbeat plane detects
// any absence longer than its threshold, at the price of continuous
// traffic. The sweep shows the detection/overhead trade as the beat
// period varies.
#include <cstdio>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "sap/heartbeat.hpp"

namespace {

using namespace cra;

struct Cell {
  double detect_rate = 0;       // captures detected
  double bytes_per_dev_sec = 0; // monitoring overhead
};

Cell run_cell(sim::Duration period, sim::Duration capture_len,
              std::uint32_t devices, int trials,
              benchargs::ObsSession& obs) {
  int detected = 0;
  double overhead = 0;
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "period=%lldms/capture=%lldms/",
                static_cast<long long>(period.ms()),
                static_cast<long long>(capture_len.ms()));
  for (int t = 0; t < trials; ++t) {
    sap::HeartbeatConfig cfg;
    cfg.period = period;
    cfg.absence_threshold = sim::Duration(period.ns() * 5 / 2);  // 2.5 periods
    auto hb = sap::HeartbeatSimulation::balanced(
        cfg, devices, static_cast<std::uint64_t>(t) + 1);
    Rng rng(static_cast<std::uint64_t>(t) * 77 + 5);
    const auto victim =
        static_cast<net::NodeId>(1 + rng.next_below(devices));

    hb.run_monitoring(sim::Duration::from_ms(600));
    hb.capture_device(victim);
    hb.run_monitoring(capture_len);
    hb.release_device(victim);
    const auto report = hb.collect();
    for (const auto& e : report) {
      if (e.device == victim) {
        ++detected;
        break;
      }
    }
    const double sim_sec = 0.6 + capture_len.sec();
    overhead += static_cast<double>(hb.network().bytes_transmitted()) /
                devices / sim_sec;
    obs.capture(hb.metrics(), prefix);
  }
  return {static_cast<double>(detected) / trials,
          overhead / trials};
}

}  // namespace

int main(int argc, char** argv) {
  const benchargs::BenchArgs args = benchargs::parse(argc, argv);
  benchargs::ObsSession obs(args);
  const std::uint32_t kDevices = args.devices != 0 ? args.devices : 62;
  constexpr int kTrials = 10;

  Table table({"beat period (ms)", "capture 100 ms", "capture 500 ms",
               "capture 2 s", "overhead (B/dev/s)"});
  for (std::int64_t period_ms : {50, 100, 250, 1000}) {
    const auto period = sim::Duration::from_ms(period_ms);
    const Cell c100 =
        run_cell(period, sim::Duration::from_ms(100), kDevices, kTrials, obs);
    const Cell c500 =
        run_cell(period, sim::Duration::from_ms(500), kDevices, kTrials, obs);
    const Cell c2000 =
        run_cell(period, sim::Duration::from_sec(2.0), kDevices, kTrials, obs);
    table.add_row({std::to_string(period_ms),
                   Table::num(c100.detect_rate, 2),
                   Table::num(c500.detect_rate, 2),
                   Table::num(c2000.detect_rate, 2),
                   Table::num(c2000.bytes_per_dev_sec, 1)});
  }

  std::printf("Ablation - physical-capture detection vs heartbeat period "
              "(N=%u, %d trials/cell)\n", kDevices, kTrials);
  std::printf("(cells: fraction of captures detected; threshold = 2.5 "
              "periods)\n\n");
  std::printf("%s", table.to_string().c_str());
  std::printf("\ncaptures shorter than ~2.5 beat periods are invisible; "
              "faster beats widen\ncoverage linearly in bandwidth — the "
              "DARPA trade-off, quantified on this substrate.\n");
  return 0;
}
