// LISA — the "two LISAs" from the paper's related work (Carpent et al.,
// AsiaCCS 2017), reproduced on the same substrate so the whole design
// space can be compared head-to-head (see bench/compare_protocols):
//
//   * LISAα (asynchronous): Vrf floods a nonce; every device attests on
//     receipt and emits its own full report (id || HMAC over nonce and
//     its measurement), which intermediate devices merely RELAY toward
//     Vrf (deduplicating). No aggregation at all: maximal QoA, O(N·depth)
//     transport, no clock needed, minimal device logic.
//   * LISAs (synchronous-ish): the tree variant — each device attests on
//     receipt, then waits for its children's bundles and submits the
//     concatenation. Same QoA, transport Θ(N·l·depth') where entries
//     cross each link once, plus parent bookkeeping.
//
// Both differ from SAP in the property TCA-Model makes central: devices
// attest at *different* times (whenever the request reaches them), so
// the verifier's verdict is a patchwork of per-device snapshots rather
// than one synchronized cut — roaming malware can, in principle, stay
// ahead of the measurement wave. SAP pays a secure synchronized clock
// for eliminating exactly that.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac_cache.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "swarm/runtime.hpp"

namespace cra::lisa {

enum class LisaVariant : std::uint8_t { kAlpha, kS };

const char* variant_name(LisaVariant variant) noexcept;

struct LisaConfig {
  LisaVariant variant = LisaVariant::kAlpha;
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  std::uint32_t pmem_size = 50 * 1024;
  std::uint64_t device_hz = 24'000'000;
  std::uint64_t attest_overhead_cycles = 5'000;
  std::uint64_t cycles_per_block = 14'400;
  std::uint64_t relay_cycles = 800;  // per relayed/merged report
  net::LinkParams link{};
  std::uint32_t tree_arity = 2;
  std::uint32_t nonce_size = 20;
  sim::Duration report_margin = sim::Duration::from_ms(20);

  std::size_t entry_size() const noexcept {
    return 4 + crypto::digest_size(alg);  // id || token
  }
};

struct LisaRoundReport {
  bool verified = false;
  std::uint32_t responded = 0;
  std::uint32_t devices = 0;
  sim::SimTime t_req;
  sim::SimTime t_resp;
  sim::Duration total_time() const noexcept { return t_resp - t_req; }
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t messages = 0;
  std::vector<net::NodeId> bad;      // reported, wrong token
  std::vector<net::NodeId> missing;  // never reported
};

class LisaSimulation {
 public:
  LisaSimulation(LisaConfig config, net::Tree tree, std::uint64_t seed = 1);
  LisaSimulation(const LisaSimulation&) = delete;
  LisaSimulation& operator=(const LisaSimulation&) = delete;

  static LisaSimulation balanced(LisaConfig config, std::uint32_t devices,
                                 std::uint64_t seed = 1);

  const LisaConfig& config() const noexcept { return config_; }
  const net::Tree& tree() const noexcept { return tree_; }
  std::uint32_t device_count() const noexcept { return tree_.device_count(); }

  /// Per-device hooks: device ids 1..device_count(), else
  /// std::out_of_range. A second compromise of an infected device
  /// changes nothing.
  void compromise_device(net::NodeId id);
  void restore_device(net::NodeId id);
  void set_device_unresponsive(net::NodeId id, bool unresponsive);

  LisaRoundReport run_round();
  void advance_time(sim::Duration d);

  sim::Duration attest_time() const;

 private:
  struct Dev {
    // Midstate cache over the device key, shared by the device's attest
    // MAC and Vrf's recomputation (both use the same enrolled key).
    crypto::PrecomputedMac mac;
    Bytes content;
    bool compromised = false;
    bool unresponsive = false;

    // Per-round state.
    bool got_request = false;
    bool self_done = false;   // kS: own measurement folded in
    bool sent = false;        // kS: bundle submitted
    std::uint32_t waiting = 0;
    Bytes bundle;  // kS: accumulated entries
    sim::EventHandle deadline;
  };

  Dev& dev(net::NodeId id) { return devices_[id - 1]; }

  Bytes make_entry(net::NodeId id) const;
  void on_message(const net::Message& msg);
  void handle_request(net::NodeId id, const net::Message& msg);
  void self_attested(net::NodeId id);
  void handle_report(net::NodeId id, const net::Message& msg);
  void try_submit(net::NodeId id);
  void flush(net::NodeId id);
  void root_receive(const net::Message& msg);
  void finish_round();

  LisaConfig config_;
  net::Tree tree_;
  swarm::SwarmRuntime rt_;  // one shard
  Bytes round_nonce_;
  std::vector<Dev> devices_;
  std::vector<Bytes> expected_;  // enrolled cfg_i per device
  std::vector<std::uint32_t> subtree_;  // per tree node, incl. itself

  sim::SimTime t_resp_;
  bool done_ = false;
  std::vector<std::uint8_t> root_seen_;
  std::vector<std::pair<net::NodeId, Bytes>> root_reports_;
  std::uint32_t root_waiting_bundles_ = 0;
  sim::EventHandle root_deadline_;
};

}  // namespace cra::lisa
