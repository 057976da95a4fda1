// PADS — practical attestation for highly dynamic swarms (Ambrosin et
// al., arXiv 1806.05766) — as the repo's third full protocol.
//
// Where SAP and SEDA pull reports up a spanning tree that must hold
// still for a whole round, PADS is built for swarms whose topology
// churns mid-round: every device periodically *self-attests* (its
// secure hardware produces an unforgeable token bound to its current
// software state) and gossips its *knowledge* — a verdict bitset over
// the whole swarm — to whoever its neighbors happen to be right now.
// Verdicts merge by min-consensus: "untrusted" dominates "trusted"
// dominates "unknown", which for one attestation epoch is exactly a
// monotone bitwise OR over (known, bad) pairs. Because OR is
// commutative and associative, the converged state — and the round
// digest derived from it — is independent of message arrival order,
// which is what lets one round produce byte-identical results on the
// serial Scheduler and the sharded ParallelScheduler at any thread
// count.
//
// Dynamism enters three ways, all deterministic:
//   * a rewire schedule (net::mobility_schedule) swaps the neighbor
//     tree at fixed simulated times while the engine is quiescent;
//   * fault plans replay crash/sleep/loss exactly as for SAP/SEDA;
//   * kLeave/kJoin membership events shrink/grow the *present* set the
//     verifier must cover for consensus.
//
// Trust model: a receiver authenticates the sender's token against the
// expected healthy value before merging anything the sender claims. A
// compromised device therefore cannot poison knowledge — its gossip is
// rejected and it is marked untrusted by every neighbor that hears it —
// but it also relays nothing, so pockets behind compromised or absent
// devices only drain as mobility rewires routes around them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac_cache.hpp"
#include "fault/injector.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "swarm/runtime.hpp"

namespace cra::obs {
class Span;
}  // namespace cra::obs

namespace cra::pads {

struct PadsConfig {
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  std::uint32_t pmem_size = 50 * 1024;
  std::uint64_t device_hz = 24'000'000;

  /// Self-attestation cost model — the same HMAC core as SAP/SEDA.
  std::uint64_t attest_overhead_cycles = 5'000;
  std::uint64_t cycles_per_block = 14'400;

  net::LinkParams link{};
  std::uint32_t tree_arity = 2;

  /// Gossip cadence. Every present device pushes its knowledge to all
  /// current neighbors once per period; the simulation floors this at
  /// one link traversal of a full gossip message so information always
  /// advances at least one hop per epoch.
  sim::Duration gossip_period = sim::Duration::from_ms(100);
  /// Number of gossip epochs per round; 0 = auto (2 * initial tree
  /// depth + 6 — enough for knowledge to cross the swarm twice, with
  /// slack for rewires and losses).
  std::uint32_t gossip_epochs = 0;

  /// Self-attestation token bytes carried in every gossip message.
  std::uint32_t token_size = 12;

  /// Simulation engine knobs (same semantics as SapConfig::sim).
  sim::SimConfig sim{};
};

struct PadsRoundReport {
  std::uint32_t devices = 0;     // swarm size (verifier excluded)
  std::uint32_t present = 0;     // devices in the swarm at round end
  std::uint32_t known = 0;       // present devices with a verdict at Vrf
  std::uint32_t untrusted = 0;   // present devices marked bad at Vrf
  std::uint32_t false_untrusted = 0;  // of those, not actually compromised
  bool converged = false;        // Vrf covered every present device
  sim::SimTime t_start;
  sim::SimTime t_end;
  /// First simulated instant the verifier held a verdict for every
  /// present device (== t_end when the round never converged).
  sim::SimTime consensus_at;
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t messages = 0;
  std::uint32_t token_failures = 0;  // gossip rejected by token check
  std::uint32_t epochs = 0;          // gossip epochs executed
  /// SHA-256 over the round's canonical final state (membership, every
  /// device's knowledge vectors, consensus time, traffic counters) —
  /// the determinism probe the cross-engine tests compare.
  std::string digest;

  double completion() const noexcept {
    return present == 0 ? 1.0
                        : static_cast<double>(known) /
                              static_cast<double>(present);
  }
  sim::Duration time_to_consensus() const noexcept {
    return consensus_at - t_start;
  }
  sim::Duration total_time() const noexcept { return t_end - t_start; }
};

class PadsSimulation {
 public:
  PadsSimulation(PadsConfig config, net::Tree tree, std::uint64_t seed = 1);

  // Pinned to its address (the runtime calls back into this object).
  PadsSimulation(const PadsSimulation&) = delete;
  PadsSimulation& operator=(const PadsSimulation&) = delete;

  static PadsSimulation balanced(PadsConfig config, std::uint32_t devices,
                                 std::uint64_t seed = 1);

  const PadsConfig& config() const noexcept { return config_; }
  const net::Tree& tree() const noexcept { return tree_; }
  /// The network configuration surface (see swarm/runtime.hpp).
  net::Network& network() noexcept { return rt_.network(); }
  std::uint32_t device_count() const noexcept { return tree_.device_count(); }
  /// The engine (never null); see sap::SapSimulation::engine().
  const sim::ParallelScheduler* engine() const noexcept {
    return &rt_.engine();
  }
  sim::SimTime current_time() const noexcept { return rt_.now(); }

  /// Merged metrics of the last run_round(): net.* plus pads.*. Same
  /// determinism contract as the SAP/SEDA registries.
  const obs::MetricsRegistry& metrics() const noexcept { return rt_.metrics(); }

  /// Per-device hooks: device ids 1..device_count(), else
  /// std::out_of_range.
  void compromise_device(net::NodeId id);
  void restore_device(net::NodeId id);
  void set_device_unresponsive(net::NodeId id, bool unresponsive);
  bool device_present(net::NodeId id) const { return present_.at(id); }

  /// Replace the topology between rounds (same contract as
  /// sap::SapSimulation::rebuild_topology: position 0 is the verifier,
  /// `device_at_position` a permutation of the device ids).
  void rebuild_topology(net::Tree tree,
                        std::vector<net::NodeId> device_at_position);

  /// Mid-round mobility: apply each step's topology at its simulated
  /// time during the next run_round() (steps at or before round start
  /// apply immediately). The round that opens consumes the schedule,
  /// whether or not it completes.
  void set_rewire_schedule(std::vector<net::RewireStep> steps);

  /// --- Scripted fault injection (src/fault) ---
  /// Same replay contract as SAP/SEDA. PADS runs without a synchronized
  /// clock, so kClockSkew is accepted and ignored; kLeave/kJoin update
  /// swarm membership (absent devices are excluded from the consensus
  /// target).
  void attach_fault_plan(fault::FaultPlan plan) {
    rt_.attach_fault_plan(std::move(plan));
  }
  void clear_fault_plan() { rt_.clear_fault_plan(); }
  bool has_fault_plan() const noexcept { return rt_.has_fault_plan(); }
  const fault::FaultTally* fault_tally() const noexcept {
    return rt_.fault_tally();
  }

  PadsRoundReport run_round();
  void advance_time(sim::Duration d);

  /// Cost-model probes (for benches and analytic checks).
  sim::Duration attest_time() const;
  std::size_t gossip_wire_size() const noexcept;
  sim::Duration effective_gossip_period() const;
  std::uint32_t effective_gossip_epochs() const noexcept;

 private:
  // The span times the whole construction (see sap::SapSimulation).
  PadsSimulation(const obs::Span& setup, PadsConfig config, net::Tree tree,
                 std::uint64_t seed);

  // One node's state, device or Vrf (node 0).
  struct Dev {
    crypto::PrecomputedMac mac;  // midstate cache over the node's key
    bool compromised = false;
    bool unresponsive = false;
    // This round's self-attestation completed; Vrf has none to run, so
    // its flag is set at round start.
    bool attested = false;
  };

  Dev& dev(net::NodeId id) { return devices_[id]; }
  const Dev& dev(net::NodeId id) const { return devices_[id]; }

  struct ShardStats {
    obs::Counter* merges;   // "pads.merges"
    obs::Counter* rejects;  // "pads.token_failures"
  };
  ShardStats& stats(net::NodeId id) noexcept {
    return stats_[rt_.shard_of(id)];
  }

  /// Device-fault hook of the runtime's fault replay. Membership events
  /// update two views; every other event runs on the device's shard.
  void on_device_fault(const fault::FaultEvent& ev);
  void apply_device_fault(const fault::FaultEvent& ev);

  // Knowledge plumbing. Vectors are rows of `blocks_` 64-bit words per
  // node id (verifier = row 0); bit d-1 = device d.
  std::uint64_t* known_row(net::NodeId id) noexcept {
    return known_.data() + static_cast<std::size_t>(id) * blocks_;
  }
  std::uint64_t* bad_row(net::NodeId id) noexcept {
    return bad_.data() + static_cast<std::size_t>(id) * blocks_;
  }
  /// Node `id`'s row of a token table.
  BytesView token_row(const Bytes& table, net::NodeId id) const noexcept {
    return {table.data() + std::size_t{id} * config_.token_size,
            config_.token_size};
  }
  void mark(net::NodeId owner, net::NodeId subject, bool is_bad) noexcept;
  bool verifier_covered() const noexcept;
  void note_verifier_progress(sim::SimTime at) noexcept;

  /// begin_window's step for the ids shard `s` owns: zero their
  /// knowledge rows, reset `attested`, MAC both tokens under `nonce`.
  void open_shard(std::uint32_t s, std::uint32_t nonce);
  void self_attest(net::NodeId id);
  void gossip_tick(net::NodeId id, std::uint32_t epoch);
  void on_message(const net::Message& msg);
  std::string round_digest(const PadsRoundReport& report) const;

  PadsConfig config_;
  net::Tree tree_;
  std::vector<net::NodeId> dev_at_;  // position -> device id
  std::vector<net::NodeId> pos_of_;  // device id -> position
  // Entities are DEVICE IDS (0 = verifier), not tree positions: mobility
  // reassigns positions mid-round, and keying shards by device id keeps
  // every device's state on one shard regardless of where it wanders.
  // The tree is only a routing table consulted at send time.
  swarm::SwarmRuntime rt_;
  std::vector<ShardStats> stats_;  // indexed by shard

  std::vector<net::RewireStep> rewires_;

  std::vector<Dev> devices_;  // by device id; 0 is Vrf
  /// Membership by device id; index 0 (the verifier) is always true.
  /// Written by fault events on the owning device's shard.
  std::vector<std::uint8_t> present_;
  /// The verifier's copy of the membership view, written only on the
  /// verifier's shard (membership events are mirrored there) so the
  /// consensus check never reads cross-shard state.
  std::vector<std::uint8_t> vrf_present_;

  // Per-round state, sized once at construction; each shard's open step
  // rewrites its own nodes' rows.
  std::size_t blocks_ = 0;
  std::vector<std::uint64_t> known_;  // (devices+1) rows x blocks_
  std::vector<std::uint64_t> bad_;
  Bytes tokens_;           // (devices+1) rows: what each node sends
  Bytes expected_tokens_;  // the healthy values receivers check
  std::uint32_t epochs_total_ = 0;
  sim::Duration period_;
  sim::SimTime t_start_;
  sim::SimTime first_epoch_at_;
  bool consensus_reached_ = false;
  sim::SimTime consensus_at_;
};

}  // namespace cra::pads
