// Ablation: why collective attestation at all?
//
// §IV-C: "one can simply design a secure cRA protocol by having Vrf
// individually attest each member in S" — if efficiency is ignored.
// This bench implements that naive protocol on the same simulator: Vrf
// unicasts a fresh challenge to every device over the routed tree path
// and each device replies with its token over the same path. No
// aggregation, no synchronization.
//
// The comparison shows exactly what Definition 2 buys:
//   * network: naive moves Θ(N·l·log N) bytes (every token crosses
//     depth(i) links) vs SAP's Θ(N·l);
//   * the root's two links carry Θ(N·l) each — a hotspot SAP's
//     aggregation removes entirely;
//   * runtime: even with fully parallel unicasts the naive verifier
//     serializes N receptions at its own radio, so its round time grows
//     linearly once N·l/µ dominates.
#include <cstdio>
#include <string>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "net/topology.hpp"
#include "sap/analysis.hpp"
#include "sap/swarm.hpp"
#include "swarm/runtime.hpp"

namespace {

using namespace cra;

struct NaiveResult {
  double total_sec = 0;
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t root_link_bytes = 0;
};

/// One naive round: per-device challenge out, per-device token back.
NaiveResult run_naive(std::uint32_t devices, const sap::SapConfig& cfg,
                      benchargs::ObsSession& obs) {
  const net::Tree tree = net::balanced_kary_tree(devices, cfg.tree_arity);

  const std::size_t msg_size = cfg.chal_size();  // chal and token: l bits
  const sim::Duration attest = sap::attest_time(cfg);

  NaiveResult result;
  std::uint32_t pending = devices;
  sim::SimTime last_resp;

  // The verifier's radio serializes its own transmissions/receptions:
  // model the uplink receptions as a queue draining at link rate.
  const sim::Duration per_msg =
      sim::transmission_delay(msg_size * 8, cfg.link.rate_bps);
  sim::SimTime vrf_radio_free;  // the runtime's clock starts at zero

  swarm::SwarmRuntime rt(
      tree, sim::SimConfig{}, cfg.link,
      [&](const net::Message& m) {
        if (m.dst != 0) {
          // Device m.dst: attest, then unicast the token home.
          const auto hops = tree.depth(m.dst);
          rt.sched(m.dst).schedule_after(attest, [&, id = m.dst, hops] {
            rt.net_of(id).send_multihop(id, 0, hops, 2,
                                        Bytes(msg_size, 0xbb));
            result.root_link_bytes += msg_size;  // last hop touches the root
          });
          return;
        }
        // Vrf receives a token; its radio handles one message at a time.
        const sim::SimTime now = rt.sched(0).now();
        vrf_radio_free = (vrf_radio_free > now ? vrf_radio_free : now) +
                         per_msg;
        last_resp = vrf_radio_free;
        --pending;
      },
      {});

  const auto window = rt.begin_window();
  // Vrf unicasts a fresh challenge to every device (its downlink also
  // serializes, the same per-message time each).
  sim::SimTime send_at = rt.now();
  for (net::NodeId id = 1; id <= devices; ++id) {
    const auto hops = tree.depth(id);
    rt.sched(0).schedule_at(send_at, [&, id, hops] {
      rt.net_of(0).send_multihop(0, id, hops, 1, Bytes(msg_size, 0xaa));
      result.root_link_bytes += msg_size;
    });
    send_at += per_msg;
  }

  rt.run_window();
  if (pending != 0) std::abort();
  result.total_sec = last_resp.sec();
  result.u_ca_bytes = rt.metrics().counter_value("net.bytes_transmitted");
  obs.capture(rt.metrics(), "naive/n=" + std::to_string(devices) + "/");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const benchargs::BenchArgs args = benchargs::parse(argc, argv);
  benchargs::ObsSession obs(args);
  sap::SapConfig cfg;  // paper parameters
  cfg.sim.threads = args.threads;

  Table table({"N", "naive time (s)", "SAP time (s)", "naive U_CA (B)",
               "SAP U_CA (B)", "naive root-link (B)", "SAP root-link (B)"});

  for (std::uint32_t n : {10u, 100u, 1'000u, 10'000u, 100'000u}) {
    const NaiveResult naive = run_naive(n, cfg, obs);
    auto sap_sim = sap::SapSimulation::balanced(cfg, n);
    const auto sap_round = sap_sim.run_round();
    obs.capture(sap_sim.metrics(), "sap/n=" + std::to_string(n) + "/");
    // SAP's root links carry one chal down + one token up, per child.
    const std::uint64_t sap_root_bytes =
        2ULL * cfg.chal_size() *
        static_cast<std::uint64_t>(sap_sim.tree().children(0).size());
    table.add_row({Table::count(n), Table::num(naive.total_sec),
                   Table::num(sap_round.total().sec()),
                   Table::count(naive.u_ca_bytes),
                   Table::count(sap_round.u_ca_bytes),
                   Table::count(naive.root_link_bytes),
                   Table::count(sap_root_bytes)});
  }

  std::printf("Ablation - naive per-device attestation vs SAP (why "
              "aggregation matters)\n\n");
  std::printf("%s", table.to_string().c_str());
  std::printf("\nnaive U_CA grows as Theta(N*l*logN) and the verifier's own "
              "links carry Theta(N*l);\nSAP keeps both at Theta(N*l) total "
              "and O(l) per link.\n");
  return 0;
}
