// SAP swarm simulation: verifier + N device agents on the discrete-event
// network.
//
// SapSimulation is the top-level object a user of the library touches:
// it performs setup (key provisioning, tree deployment, VS), then runs
// attestation rounds — request (challenge flooding with Equation 9's
// lead time), synchronous attest at t_att, report (XOR aggregation up
// the tree), verify — and returns a RoundReport with the exact phase
// timings and network utilization.
//
// Device agents come in two fidelities:
//   * synthetic (default): per-device state is a content buffer standing
//     in for PMEM; the device MACs it under its entry of the verifier's
//     key table, and attest cost is the analytic T_att. This is what
//     scales to the paper's 10^6-device sweeps.
//   * VM-backed: attach_vm() binds a node to a full device::Device; the
//     agent then drives the real machine — secure-clock check, MPU-
//     protected key, HMAC over actual PMEM — for end-to-end fidelity at
//     small N (integration tests and examples do this).
//
// Vrf is node 0 of the aggregation tree: it takes child reports through
// the devices' handlers and keeps the aggregate instead of sending it up
// (docs/protocols.md lists where it differs from a device).
//
// Adversary/fault hooks: compromise_device (malware in PMEM),
// set_device_unresponsive (crash/jam), set_clock_skew (broken sync),
// plus everything net::Network exposes (loss, tamper). The per-device
// hooks take device ids 1..device_count() and throw std::out_of_range
// for any other id.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "device/clock.hpp"
#include "device/device.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sap/config.hpp"
#include "sap/report.hpp"
#include "sap/verifier.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"
#include "swarm/runtime.hpp"

namespace cra::obs {
class Span;
}  // namespace cra::obs

namespace cra::sap {

class SapSimulation {
 public:
  SapSimulation(SapConfig config, net::Tree tree, std::uint64_t seed = 1);

  // The runtime's networks hold references to its schedulers and call
  // back into this object; it is pinned to its address (factory returns
  // rely on guaranteed elision).
  SapSimulation(const SapSimulation&) = delete;
  SapSimulation& operator=(const SapSimulation&) = delete;

  /// Convenience: the paper's deployment — balanced `arity`-ary tree.
  static SapSimulation balanced(SapConfig config, std::uint32_t devices,
                                std::uint64_t seed = 1);

  // --- Components ---
  const SapConfig& config() const noexcept { return config_; }
  const net::Tree& tree() const noexcept { return tree_; }
  Verifier& verifier() noexcept { return verifier_; }
  const Verifier& verifier() const noexcept { return verifier_; }
  /// The network configuration surface (loss, per-link accounting,
  /// tamper hook, adversary sends); see swarm/runtime.hpp.
  net::Network& network() noexcept { return rt_.network(); }
  const device::SecureClock& clock() const noexcept { return clock_; }
  std::uint32_t device_count() const noexcept { return tree_.device_count(); }

  /// The engine (never null): config().sim's shard count, or one shard
  /// when the link latency admits no lookahead.
  const sim::ParallelScheduler* engine() const noexcept {
    return &rt_.engine();
  }
  sim::SimTime current_time() const noexcept { return rt_.now(); }
  /// Schedule `cb` at `at` on the shard owning device `id` (0 = Vrf):
  /// a driver's own mid-round event, such as an adversary acting at a
  /// chosen instant. Call between rounds; `cb` runs on that shard's
  /// worker, so it may touch only that device's state.
  void schedule_at(net::NodeId id, sim::SimTime at,
                   sim::Scheduler::Callback cb) {
    rt_.post(pos_of_.at(id), at, std::move(cb));
  }

  /// The merged metrics view of the last round: net.* instruments from
  /// the per-shard networks plus the protocol's own sap.* instruments
  /// (sap.repolls counter, sap.inbound_end_ns gauge). Reset at every
  /// round start and reduced in shard order after the run, so its
  /// contents are independent of worker-thread count.
  const obs::MetricsRegistry& metrics() const noexcept { return rt_.metrics(); }

  // --- Adversary / fault injection (between rounds) ---
  /// Infect device `id`: its actual content diverges from cfg_i. A
  /// second call on an infected device changes nothing.
  void compromise_device(net::NodeId id);
  /// Disinfect: restore actual content to cfg_i.
  void restore_device(net::NodeId id);
  bool is_compromised(net::NodeId id) const;
  /// Crash/jam: the device neither forwards chal nor reports.
  void set_device_unresponsive(net::NodeId id, bool unresponsive);
  /// Clock-synchronization error: the device's secure clock reads
  /// `skew` ahead (+) or behind (−) of true time.
  void set_clock_skew(net::NodeId id, sim::Duration skew);

  /// --- Scripted fault injection (src/fault) ---
  /// Attach a deterministic fault timeline. Events are armed window by
  /// window (each run_round / advance_time hands over the events inside
  /// its horizon) and applied on the scheduler shard owning the touched
  /// state, so replay is byte-identical at any thread count. Crash/sleep
  /// events use *device ids*; link/partition events use *tree
  /// positions* (identical under the default deployment). Throws
  /// std::logic_error mid-round, and std::out_of_range for an event
  /// naming a device or position outside the swarm (see
  /// swarm::SwarmRuntime::attach_fault_plan).
  void attach_fault_plan(fault::FaultPlan plan) {
    rt_.attach_fault_plan(std::move(plan));
  }
  void clear_fault_plan() { rt_.clear_fault_plan(); }
  bool has_fault_plan() const noexcept { return rt_.has_fault_plan(); }
  /// Armed-event tally of the attached plan (nullptr without a plan).
  const fault::FaultTally* fault_tally() const noexcept {
    return rt_.fault_tally();
  }

  /// --- Heterogeneous swarms ---
  /// Assign device `id` to hardware class `cls` (0 = the base config;
  /// 1..k index config().extra_classes). Throws std::out_of_range for
  /// unknown classes.
  void assign_device_class(net::NodeId id, std::uint8_t cls);
  std::uint8_t device_class(net::NodeId id) const {
    return dev(rt_.device_id(id)).cls;
  }
  /// Attest duration of device `id` under its class.
  sim::Duration attest_time_for(net::NodeId id) const;
  /// The measurement phase of a heterogeneous round: slowest class wins.
  sim::Duration max_attest_time() const;

  /// Bind node `id` to a full VM; also registers the VM's current PMEM
  /// as cfg_i in VS and provisions the verifier's key into it is NOT
  /// done here — construct the Device with verifier().device_key(id).
  /// The caller keeps ownership; the Device must outlive the simulation.
  void attach_vm(net::NodeId id, device::Device* vm);

  /// --- Dynamic topologies (SALAD dimension, §II) ---
  /// Replace the deployment tree after mobility/churn. Device identities
  /// (keys, VS entries, compromise state, attached VMs) are stable; only
  /// who-talks-to-whom changes. `device_at_position[pos]` names the
  /// device occupying tree position `pos`; position 0 must hold the
  /// verifier (device id 0) and the rest must be a permutation of
  /// 1..device_count(). Throws std::invalid_argument otherwise.
  /// SAP needs no re-keying on topology change — K_{mi,Vrf} binds a
  /// device to Vrf, not to its neighbors — which this API demonstrates.
  void rebuild_topology(net::Tree tree,
                        std::vector<net::NodeId> device_at_position);
  /// Device occupying tree position `pos` (0 = verifier).
  net::NodeId device_at(net::NodeId pos) const { return dev_at_.at(pos); }
  /// Current tree position of device `id`.
  net::NodeId position_of(net::NodeId id) const { return pos_of_.at(id); }

  /// Switch the QoA mode between rounds (the escalation lever the
  /// AttestationService uses: cheap binary rounds in steady state,
  /// identify-mode localization after an alarm). Throws std::logic_error
  /// mid-round.
  void set_qoa(QoaMode mode);

  /// --- One full round: request → attest → report → verify ---
  RoundReport run_round();

  /// Idle the network: advance simulated time (e.g. between periodic
  /// rounds).
  void advance_time(sim::Duration d);

 private:
  // The span times the whole construction, member initializers included:
  // a temporary in a delegating mem-initializer lives until the target
  // constructor returns.
  SapSimulation(const obs::Span& setup, SapConfig config, net::Tree tree,
                std::uint64_t seed);

  // One node's state, device or Vrf. Keys are not here: a device MACs
  // through the verifier's table (verifier_.device_mac).
  struct Dev {
    Bytes content;      // actual "PMEM" (synthetic path)
    bool compromised = false;
    bool unresponsive = false;
    std::int64_t skew_ns = 0;
    std::uint8_t cls = 0;  // hardware class index
    device::Device* vm = nullptr;

    /// Crash/reboot bookkeeping: set by a reboot fault, cleared when the
    /// device next contributes evidence — the next report entry carries
    /// kEntryRebooted so the verifier can tell "restarted" from
    /// "healthy all along".
    bool rebooted = false;

    // Per-round state.
    std::uint32_t tick = 0;  // the chal this device actually received
    bool got_chal = false;
    bool responded_self = false;
    bool sent = false;
    std::uint32_t waiting = 0;
    std::uint32_t count = 0;  // kCount: tokens aggregated in subtree
    std::uint8_t retries = 0;  // adaptive: re-polls issued this round
    std::uint8_t self_grace = 0;  // adaptive: waits for own late token
    std::vector<net::NodeId> got_children;  // children whose token arrived
    Bytes agg_token;
    Bytes sent_payload;  // cache for repoll answers
    Bytes reports;  // kIdentify: the subtree's entries, as sent up
    sim::EventHandle deadline;
  };

  Dev& dev(net::NodeId id) { return devices_[id]; }
  const Dev& dev(net::NodeId id) const { return devices_[id]; }
  /// Device state of the occupant of tree position `pos`.
  Dev& dev_at_pos(net::NodeId pos) { return dev(dev_at_[pos]); }

  // Per-shard round accounting: handlers reach their shard's
  // instruments through cached handles, so the hot path is an increment
  // — no name lookups, no sharing across shards.
  struct ShardStats {
    obs::Counter* repolls;       // "sap.repolls"
    obs::Gauge* inbound_end;     // "sap.inbound_end_ns"
    obs::Counter* backoff_wait;  // "sap.backoff_wait_ns"
    obs::Counter* unreachable;   // "sap.unreachable_marks"
  };
  ShardStats& stats(net::NodeId pos) noexcept {
    return stats_[rt_.shard_of(pos)];
  }

  /// The per-shard step of begin_window: reset the round state of the
  /// nodes at shard `s`'s positions and fold the shard's share of RES_S
  /// into shares_[s]; identify rounds also fill the shard's rows of the
  /// appraisal's token table.
  void open_shard(std::uint32_t s);
  /// T_att of hardware class `cls`.
  sim::Duration class_attest_time(std::uint8_t cls) const;

  /// Device-fault hook of the runtime's fault replay; runs on the shard
  /// owning the device's tree position.
  void apply_device_fault(const fault::FaultEvent& ev);

  // Protocol handlers are keyed by tree *position*; identity-bound state
  // (keys, content) is reached through the position->device map.
  void on_message(const net::Message& msg);
  void handle_chal(net::NodeId pos, const net::Message& msg);
  void handle_token(net::NodeId pos, const net::Message& msg);
  void handle_repoll(net::NodeId pos, const net::Message& msg);
  /// Adaptive mode: a device that never saw the round's chal answers a
  /// chal-carrying re-poll with its own late evidence (kIdentify).
  void late_join(net::NodeId pos, const net::Message& msg);
  void run_attest(net::NodeId pos);
  void accumulate_self(net::NodeId pos, Bytes token);
  void try_forward(net::NodeId pos);
  void flush(net::NodeId pos);
  void send_report(net::NodeId pos);
  sim::SimTime node_deadline(net::NodeId pos) const;
  /// Adaptive mode: synthesize an unreachable entry for a silent child.
  void mark_unreachable(net::NodeId pos, net::NodeId child);
  void recompute_subtree_sizes();
  /// Worst-case time for the deepest descendant's report to climb into
  /// `id` after measurement ends (payload-size aware: kIdentify reports
  /// grow with the subtree).
  sim::Duration report_chain_time(net::NodeId id) const;

  Bytes compute_token(net::NodeId pos, std::uint32_t tick);

  SapConfig config_;
  // kIdentify entries: the legacy form, or the extended one when the
  // adaptive timeouts are on.
  const IdentifyCodec identify_;
  net::Tree tree_;
  // Engine, per-shard networks, merged metrics and network-level fault
  // replay. Entities are tree positions; position 0 is Vrf.
  swarm::SwarmRuntime rt_;
  std::vector<ShardStats> stats_;  // indexed by shard
  std::vector<Bytes> shares_;      // RES_S share, indexed by shard
  device::SecureClock clock_;
  Verifier verifier_;
  // Identify rounds' verdict: the open step sweeps each shard's rows of
  // its token table, and Vrf's entries are judged against it in place.
  Verifier::Appraisal appraisal_{verifier_, identify_.format()};
  Bytes auth_key_;
  std::vector<Dev> devices_;  // by device id; 0 is Vrf
  std::vector<std::uint32_t> subtree_size_;  // per tree position
  std::vector<net::NodeId> dev_at_;          // position -> device id
  std::vector<net::NodeId> pos_of_;          // device id -> position

  // Round bookkeeping. t_resp_ is only ever written by the shard owning
  // tree position 0; per-shard counters live in stats_.
  std::uint32_t round_tick_ = 0;
  Bytes round_chal_;  // adaptive: re-polls carry the challenge payload
  sim::SimTime t_att_time_;
  sim::SimTime t_resp_;
};

}  // namespace cra::sap
