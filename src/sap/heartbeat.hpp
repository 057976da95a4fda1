// Absence detection for physical-capture attacks (§VIII: "Mitigation of
// other types of attacks (e.g., physical...)"; the DARPA dimension of
// the design space in §II).
//
// SAP's security game quantifies over software state at t = chal: a
// device that is physically captured, tampered offline, and returned
// with its PMEM restored before the next round attests cleanly — the
// protocol is *blind* to the absence window. DARPA's countermeasure is
// periodic presence confirmation: every device emits authenticated
// heartbeats; a capture longer than the detection threshold leaves an
// unexplainable gap.
//
// This module implements that extension on the same substrate: devices
// beat up the deployment tree every `period` (MACed with a pairwise key,
// so absence cannot be faked away), parents track per-child gaps, and a
// collection sweep floods down / aggregates up exactly like a SAP report
// so the verifier learns every device whose silence exceeded
// `absence_threshold`. The security trade-off the paper predicts is
// measurable: detection needs continuous traffic (O(N) messages per
// period) versus SAP's O(N) per round — the ablate_capture bench
// quantifies it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac_cache.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "swarm/runtime.hpp"

namespace cra::sap {

struct HeartbeatConfig {
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  sim::Duration period = sim::Duration::from_ms(100);
  /// A gap longer than this is reported (must exceed one period plus
  /// network jitter; DARPA picks it from the minimum time a meaningful
  /// physical attack needs).
  sim::Duration absence_threshold = sim::Duration::from_ms(250);
  std::uint32_t mac_size = 12;  // truncated heartbeat authenticator
  net::LinkParams link{};
  std::uint32_t tree_arity = 2;

  std::size_t beat_size() const noexcept { return 8 + mac_size; }
};

struct AbsenceReport {
  net::NodeId device = 0;
  sim::Duration gap;  // observed silence at collection time
};

class HeartbeatSimulation {
 public:
  HeartbeatSimulation(HeartbeatConfig config, net::Tree tree,
                      std::uint64_t seed = 1);
  HeartbeatSimulation(const HeartbeatSimulation&) = delete;
  HeartbeatSimulation& operator=(const HeartbeatSimulation&) = delete;

  static HeartbeatSimulation balanced(HeartbeatConfig config,
                                      std::uint32_t devices,
                                      std::uint64_t seed = 1);

  const HeartbeatConfig& config() const noexcept { return config_; }
  const net::Tree& tree() const noexcept { return tree_; }
  net::Network& network() noexcept { return rt_.network(); }
  /// Network instruments (net.*), accumulated since construction or the
  /// last network().reset_accounting().
  const obs::MetricsRegistry& metrics() const noexcept { return rt_.metrics(); }
  std::uint32_t device_count() const noexcept { return tree_.device_count(); }

  /// --- Adversary actions (device ids 1..device_count(), else
  /// std::out_of_range) ---
  /// Physically capture `id`: it stops beating and stops relaying (its
  /// subtree goes dark through it, which the report honestly reflects).
  void capture_device(net::NodeId id);
  /// Return the device to the network (e.g. after offline tampering).
  void release_device(net::NodeId id);
  bool is_captured(net::NodeId id) const;

  /// Run the monitoring plane for `duration` of simulated time. A call
  /// right after another continues its beats, so slicing a span into
  /// several calls sends the beats one call would.
  void run_monitoring(sim::Duration duration);

  /// Collection sweep: flood a request down, aggregate per-parent
  /// absence logs up, with Vrf as node 0 of the sweep. A node that asked
  /// its children forwards what it gathered once every answer is in or
  /// its deadline passes, whichever comes first: a child captured after
  /// its last beat never answers. Returns every device whose observed
  /// gap exceeded the threshold at sweep time, sorted by id.
  std::vector<AbsenceReport> collect();

  /// Heartbeats rejected as forgeries: a bad MAC, or a replay whose
  /// sequence number is not above the last one accepted from its device.
  std::uint64_t forged_beats() const noexcept { return forged_; }

 private:
  // One node's state, device or Vrf (node 0, which only collects).
  struct Dev {
    // Midstate cache over the pairwise key with the parent; beats are
    // emitted every period per device, so the cached pads pay off
    // immediately.
    crypto::PrecomputedMac beat_mac;
    bool captured = false;
    // A beat is pending: run_monitoring() starts no second chain.
    bool beating = false;
    std::uint32_t seq = 0;
    // Parent-side: the highest beat sequence number the parent accepted
    // from this device; a beat at or below it is a replay.
    std::uint32_t heard_seq = 0;
    // Collection state: `waiting` counts the children asked for a log,
    // and `deadline` is the timer that forwards without the missing ones.
    bool collecting = false;
    std::uint32_t waiting = 0;
    sim::EventHandle deadline;
    std::vector<AbsenceReport> gathered;
  };

  Dev& dev(net::NodeId id) { return devices_[id]; }
  const Dev& dev(net::NodeId id) const { return devices_[id]; }

  void schedule_beat(net::NodeId id);
  void on_message(const net::Message& msg);
  void handle_beat(net::NodeId parent, const net::Message& msg);
  void handle_collect(net::NodeId id);
  void handle_log(net::NodeId id, const net::Message& msg);
  void forward_log(net::NodeId id);
  sim::Duration sweep_deadline(net::NodeId id, std::uint32_t asked_size) const;
  Bytes encode_log(const std::vector<AbsenceReport>& entries) const;
  void decode_log(BytesView payload,
                  std::vector<AbsenceReport>* out) const;

  HeartbeatConfig config_;
  net::Tree tree_;
  swarm::SwarmRuntime rt_;  // one shard
  std::vector<Dev> devices_;  // by node id; 0 is Vrf
  std::vector<sim::SimTime> last_seen_;  // indexed by child id
  // Devices in each node's subtree, itself included: they bound the
  // size of the log it sends up, so they size the sweep's deadlines.
  std::vector<std::uint32_t> subtree_size_;
  std::uint64_t forged_ = 0;
  sim::SimTime monitor_until_;
};

}  // namespace cra::sap
