// SEDA baseline (Asokan et al., CCS 2015) — the state-of-the-art cRA
// protocol the paper's evaluation compares SAP against (Figure 3).
//
// We reproduce SEDA's attestation phase faithfully enough to preserve
// the comparison's shape; the mechanisms that differentiate it from SAP
// are exactly the ones the paper names (§VII-C):
//
//   * Public-key operation: Vrf signs the attestation request; every
//     device verifies the signature before attesting (DoS protection) —
//     an expensive asymmetric operation on a 24 MHz-class core, absent
//     from SAP entirely ("Unlike SEDA, SAP does not use public key
//     cryptography").
//   * No synchronized attestation: a device attests upon receipt of the
//     request (after signature verification), so the measurement phase
//     serializes with propagation instead of running at a common t_att.
//   * Hop-by-hop verification: each parent MAC-verifies every child's
//     report with their pairwise key before aggregating (counts of
//     total/passed devices), "compared to XOR-ing MACs" in SAP.
//   * Heavier wire format: request carries nonce + signature, reports
//     carry counts + MAC — about twice SAP's per-link bytes
//     ("Communication overhead of SAP is half that of SEDA").
//
// Pairwise keys come from the join phase: run_join() performs a real
// X25519 key agreement per tree edge (each endpoint derives its half of
// the MAC key from its own static secret and the peer's public key);
// without it, provisioning-time pre-shared keys are used. A device's
// static keypair is derived at its first join invite, so a swarm that
// never joins computes none.
//
// Vrf is node 0 of the tree: it runs the devices' join-ack and report
// handlers and keeps its aggregate instead of sending it up
// (docs/protocols.md lists where it differs from a device). The
// per-device hooks take device ids 1..device_count() and throw
// std::out_of_range for any other id.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"
#include "crypto/mac_cache.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "swarm/runtime.hpp"

namespace cra::obs {
class Span;
}  // namespace cra::obs

namespace cra::seda {

struct SedaConfig {
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  std::uint32_t pmem_size = 50 * 1024;
  std::uint64_t device_hz = 24'000'000;

  /// join phase: one X25519 shared-secret computation on a 24 MHz
  /// in-order core (Curve25519 on low-end MCUs measures ~14M cycles).
  std::uint64_t dh_cycles = 14'000'000;

  /// attdev cost model — same HMAC core as SAP's attest.
  std::uint64_t attest_overhead_cycles = 5'000;
  std::uint64_t cycles_per_block = 14'400;
  /// ECDSA-class verification of Vrf's request signature on a 24 MHz
  /// in-order core (the dominant extra serial cost vs SAP).
  std::uint64_t sig_verify_cycles = 18'000'000;
  /// Aggregating counts + building the outgoing report.
  std::uint64_t aggregate_cycles = 2'000;

  net::LinkParams link{};
  std::uint32_t tree_arity = 2;

  /// Wire format (bytes): request = nonce + signature; report =
  /// total(4) + passed(4) + truncated MAC.
  std::uint32_t nonce_size = 16;
  std::uint32_t sig_size = 44;
  std::uint32_t report_mac_size = 12;

  sim::Duration report_margin = sim::Duration::from_ms(20);

  /// Simulation engine knobs (same semantics as sap::SapConfig::sim):
  /// one shard runs the serial event loop; more shards run in parallel
  /// with conservative lookahead = link.per_hop_latency.
  sim::SimConfig sim{};

  std::size_t request_size() const noexcept { return nonce_size + sig_size; }
  std::size_t report_size() const noexcept { return 8 + report_mac_size; }
};

/// Outcome of the join phase (pairwise-key establishment, run once at
/// deployment or when a device is added).
struct SedaJoinReport {
  bool complete = false;       // every edge established both key halves
  std::uint32_t edges = 0;
  sim::Duration total_time;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

struct SedaRoundReport {
  bool verified = false;
  std::uint32_t total = 0;   // devices counted in the aggregate
  std::uint32_t passed = 0;  // devices whose self-measurement passed
  sim::SimTime t_req;        // Vrf issued the request
  sim::SimTime t_resp;       // Vrf holds the aggregate
  sim::Duration total_time() const noexcept { return t_resp - t_req; }
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t messages = 0;
  std::uint32_t devices = 0;
  std::uint32_t mac_failures = 0;  // child reports rejected by parents
};

class SedaSimulation {
 public:
  SedaSimulation(SedaConfig config, net::Tree tree, std::uint64_t seed = 1);

  // Pinned to its address (the runtime calls back into this object).
  SedaSimulation(const SedaSimulation&) = delete;
  SedaSimulation& operator=(const SedaSimulation&) = delete;

  static SedaSimulation balanced(SedaConfig config, std::uint32_t devices,
                                 std::uint64_t seed = 1);

  const SedaConfig& config() const noexcept { return config_; }
  const net::Tree& tree() const noexcept { return tree_; }
  /// The network configuration surface (see swarm/runtime.hpp).
  net::Network& network() noexcept { return rt_.network(); }
  std::uint32_t device_count() const noexcept { return tree_.device_count(); }

  /// The engine (never null); see sap::SapSimulation::engine().
  const sim::ParallelScheduler* engine() const noexcept {
    return &rt_.engine();
  }
  sim::SimTime current_time() const noexcept { return rt_.now(); }

  /// Merged metrics of the last run_join()/run_round(): net.* from the
  /// per-shard networks plus seda.mac_failures / seda.join_acks.
  /// Same determinism contract as sap::SapSimulation::metrics().
  const obs::MetricsRegistry& metrics() const noexcept { return rt_.metrics(); }

  void compromise_device(net::NodeId id);
  void restore_device(net::NodeId id);
  void set_device_unresponsive(net::NodeId id, bool unresponsive);

  /// --- Scripted fault injection (src/fault) ---
  /// Same replay contract as sap::SapSimulation::attach_fault_plan. SEDA
  /// has no secure clock, so kClockSkew events are accepted and ignored;
  /// reboots only clear the crash (there is no rebooted report status in
  /// SEDA's count-aggregate wire format).
  void attach_fault_plan(fault::FaultPlan plan) {
    rt_.attach_fault_plan(std::move(plan));
  }
  void clear_fault_plan() { rt_.clear_fault_plan(); }
  bool has_fault_plan() const noexcept { return rt_.has_fault_plan(); }
  const fault::FaultTally* fault_tally() const noexcept {
    return rt_.fault_tally();
  }

  /// SEDA's join phase: every tree edge runs an X25519 key agreement
  /// (child and parent each derive the pairwise MAC key from their own
  /// static secret and the peer's public key — real DH, both halves
  /// must agree for reports to verify). Without run_join() the swarm
  /// uses provisioning-time pre-shared keys.
  SedaJoinReport run_join();

  /// Test/adversary hook: corrupt one endpoint's half of the pairwise
  /// key for `child`'s uplink (models a botched join or an active MitM
  /// during key agreement — every report from that subtree then fails
  /// hop-by-hop verification).
  void corrupt_join_key(net::NodeId child);

  SedaRoundReport run_round();
  void advance_time(sim::Duration d);

  // Analytic predictions (for the tca fit checks and benches).
  sim::Duration attest_time() const;
  sim::Duration sig_verify_time() const;
  sim::Duration predicted_total(std::uint32_t depth) const;
  std::uint64_t predicted_u_ca_bytes(std::uint32_t edges) const;

 private:
  // The span times the whole construction (see sap::SapSimulation).
  SedaSimulation(const obs::Span& setup, SedaConfig config, net::Tree tree,
                 std::uint64_t seed);

  // One node's state, device or Vrf (node 0).
  struct Dev {
    // X25519 static keypair: a device's is derived at its first invite,
    // Vrf's at construction.
    Bytes static_sk;
    Bytes static_pk;
    Bytes parent_pk;        // learned during join
    bool joined = false;
    bool compromised = false;
    bool unresponsive = false;

    // Per-round state.
    bool got_request = false;
    bool self_done = false;
    bool sent = false;
    std::uint32_t waiting = 0;
    std::uint32_t total = 0;
    std::uint32_t passed = 0;
    std::vector<net::NodeId> got_children;
    sim::EventHandle deadline;
  };

  Dev& dev(net::NodeId id) { return devices_[id]; }

  // Per-shard round accounting: handlers update their shard's
  // instruments through cached handles — shard-confined, so no locks,
  // and merged deterministically after the run.
  struct ShardStats {
    obs::Counter* mac_failures;  // "seda.mac_failures"
    obs::Counter* join_acks;     // "seda.join_acks"
  };
  ShardStats& stats(net::NodeId id) noexcept {
    return stats_[rt_.shard_of(id)];
  }

  /// Device-fault hook of the runtime's fault replay; runs on the
  /// device's shard (SEDA's node ids are its tree positions).
  void apply_device_fault(const fault::FaultEvent& ev);

  void handle_join_invite(net::NodeId id, const net::Message& msg);
  void handle_join_ack(net::NodeId id, const net::Message& msg);
  Bytes report_payload(net::NodeId id, std::uint32_t total,
                       std::uint32_t passed) const;

  void on_message(const net::Message& msg);
  void handle_request(net::NodeId id, const net::Message& msg);
  void self_attested(net::NodeId id);
  void handle_report(net::NodeId id, const net::Message& msg);
  void check_report(net::NodeId id, net::NodeId child, BytesView payload);
  void try_forward(net::NodeId id);
  void flush(net::NodeId id);
  void send_report(net::NodeId id);

  SedaConfig config_;
  net::Tree tree_;
  swarm::SwarmRuntime rt_;  // entities are node ids (= tree positions)
  std::vector<ShardStats> stats_;  // indexed by shard
  crypto::Hkdf master_;  // provisioning and keypair derivation
  Bytes round_nonce_;
  std::vector<Dev> devices_;  // by node id; 0 is Vrf
  /// Midstate caches over the parent-side half of each child's uplink
  /// key (index: child id). Both ends MAC through it until run_join() or
  /// corrupt_join_key() lets the halves differ.
  std::vector<crypto::PrecomputedMac> mac_at_parent_;
  /// The child-side halves, copied from mac_at_parent_ by the first
  /// run_join() or corrupt_join_key(); empty until then.
  std::vector<crypto::PrecomputedMac> mac_at_child_;
  std::uint32_t join_acks_done_ = 0;

  sim::SimTime t_resp_;  // written only by node 0's shard
};

}  // namespace cra::seda
