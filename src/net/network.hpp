// Message-passing network on top of the discrete-event scheduler.
//
// Implements the TCA network model (paper §IV-B): constant transmission
// rate µ on every link, per-hop delay dominated by transmission
// (propagation/queuing negligible — we optionally add the fixed 1 ms/hop
// processing latency the paper's evaluation uses in τ(N)). The network
// keeps per-window byte accounting so the driver can measure network
// utilization U_CA exactly as Equation 7 defines it: total bits crossing
// all links between t_chal and t_resp.
//
// Fault and adversary injection live here too: probabilistic loss
// (the §VIII lossy-network extension) and a tamper hook that lets the
// TCA-Security game mutate, drop, or duplicate any in-flight message
// (Adv controls network communication).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace cra::net {

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::uint32_t kind = 0;   // protocol-defined discriminator
  Bytes payload;
};

/// Per-link parameters of the TCA network model.
struct LinkParams {
  std::uint64_t rate_bps = 250'000;       // µ — IEEE 802.15.4 class
  sim::Duration per_hop_latency = sim::Duration::from_ms(1);
  std::uint32_t header_bytes = 0;         // optional per-message framing

  /// TCA-Model fidelity knob. The paper's model (Equation 5) has no
  /// contention: every link transmits independently. Real motes have
  /// one radio — with this on, a node's transmissions serialize on its
  /// own transmitter (back-to-back sends queue). Off by default so the
  /// paper's analysis holds exactly; bench/ablate_contention measures
  /// what the assumption hides (it flatters relay-heavy protocols like
  /// LISAα far more than aggregate-and-forward ones like SAP).
  bool serialize_tx = false;
};

/// What the tamper hook decided to do with a message.
enum class TamperAction { kDeliver, kDrop, kDeliverModified };

struct TamperResult {
  TamperAction action = TamperAction::kDeliver;
  Bytes modified_payload;  // used iff action == kDeliverModified
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using TamperHook = std::function<TamperResult(const Message&)>;
  /// Delivery override for the sharded engine: receives the message and
  /// its absolute arrival time instead of the default schedule-on-own-
  /// scheduler path. The router owns getting the message to the
  /// destination's shard (sim::ParallelScheduler::post) and invoking the
  /// protocol handler there.
  using Router = std::function<void(Message msg, sim::SimTime deliver_at)>;

  Network(sim::Scheduler& scheduler, LinkParams params);

  const LinkParams& params() const noexcept { return params_; }

  /// Deliver callback for all nodes; the protocol driver dispatches on
  /// Message::dst. Must be set before any send().
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Route deliveries through the sharded engine instead of this
  /// network's own scheduler (loss, tamper and accounting still happen
  /// here, on the sending side). Unset = delivery on this network's own
  /// scheduler.
  void set_router(Router router) { router_ = std::move(router); }

  /// Send over one direct link (src and dst adjacent). Delay is
  /// transmission (size/µ) + per-hop latency; bytes are charged to the
  /// accounting window.
  void send(NodeId src, NodeId dst, std::uint32_t kind, Bytes payload);

  /// Multi-hop unicast through `hops` links (used by the naive baseline
  /// where Vrf talks to each device over the routed shortest path).
  /// Charges `hops` × size bytes and `hops` × per-link delay.
  void send_multihop(NodeId src, NodeId dst, std::uint32_t hops,
                     std::uint32_t kind, Bytes payload);

  /// --- Accounting (Equation 7) ---
  /// Clears the byte/message ledgers, the per-link map, AND the
  /// radio-contention backlog (serialize_tx reservations) — a reset
  /// starts the next measurement window from a quiet network, so
  /// benchmark repetitions don't inherit queued radios.
  void reset_accounting() noexcept;
  std::uint64_t bytes_transmitted() const noexcept { return bytes_transmitted_; }
  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  /// Every send attempt lands in exactly one ledger:
  /// messages_sent() + messages_dropped() == messages_attempted().
  std::uint64_t messages_attempted() const noexcept {
    return messages_sent_ + messages_dropped_;
  }

  /// Per-link byte counts (keyed by directed (src,dst)); only recorded
  /// when enabled — the map is too heavy for million-node sweeps.
  /// Dropped/tampered messages still burn air time, so they are charged
  /// here exactly as they are to bytes_transmitted(): with accounting
  /// enabled for a whole window, sum(per-link) == total.
  void enable_per_link_accounting(bool on) { per_link_accounting_ = on; }
  std::uint64_t bytes_on_link(NodeId src, NodeId dst) const;
  /// Sum of the per-link ledger.
  std::uint64_t per_link_total() const noexcept;
  /// Throws std::logic_error if per-link accounting is on and the two
  /// byte ledgers disagree (they cannot, unless accounting was toggled
  /// mid-window); cheap no-op when per-link accounting is off.
  void assert_ledgers_consistent() const;

  /// --- Metrics (obs layer) ---
  /// Register this network's instruments in `reg` (names below) and
  /// mirror all subsequent accounting into them; the registry must
  /// outlive the network (or be unbound with nullptr first). Counters:
  /// net.bytes_transmitted, net.messages_sent, net.messages_dropped,
  /// net.messages_attempted, net.per_link_bytes (per-link mode only).
  /// Histogram: net.payload_bytes (log2 buckets of payload sizes).
  /// reset_accounting() zeroes the bound instruments too, keeping both
  /// views of the window in lock-step.
  void bind_metrics(obs::MetricsRegistry* reg);

  /// --- Fault / adversary injection ---
  /// Directed link outage (fault-injection layer): while (src,dst) is
  /// down, every send over it still burns air time — charged to the
  /// dropped ledger, same as probabilistic loss — but never arrives.
  /// Partition events expand to sets of directed links; take both
  /// directions down for a bidirectional cut.
  void set_link_down(NodeId src, NodeId dst, bool down);
  bool link_is_down(NodeId src, NodeId dst) const;
  std::size_t links_down() const noexcept { return down_links_.size(); }
  void clear_link_faults() { down_links_.clear(); }
  void set_loss_rate(double p, std::uint64_t seed = 0);
  void set_tamper_hook(TamperHook hook) { tamper_ = std::move(hook); }
  double loss_rate() const noexcept { return loss_rate_; }
  std::uint64_t loss_seed() const noexcept { return loss_seed_; }
  bool has_tamper_hook() const noexcept { return static_cast<bool>(tamper_); }
  bool per_link_accounting() const noexcept { return per_link_accounting_; }

  /// Delay model exposed for analytical checks: time for one message of
  /// `payload_bytes` to cross one link.
  sim::Duration link_delay(std::size_t payload_bytes) const noexcept;

  /// --- Payload pooling ---
  /// A delivered message's payload buffer is recycled into a per-network
  /// freelist once the handler returns; acquire_payload() hands the
  /// capacity back to the next sender instead of the allocator. The pool
  /// is confined to this network (one network per shard), so it needs no
  /// synchronization, and hit/miss counts are as deterministic as the
  /// message trace itself. The tallies are exposed as accessors, NOT as
  /// bound metrics: recycling is shard-local, so the counts are a
  /// function of the shard layout, and folding them into the registry
  /// would break the engine-invariance of the merged metrics view
  /// (serial and sharded runs must export identical registries).
  /// Returns an empty buffer, with recycled capacity when available.
  Bytes acquire_payload();
  /// Return a spent buffer to the freelist (clears it; keeps capacity).
  void recycle_payload(Bytes&& b) noexcept;
  std::uint64_t payload_pool_hits() const noexcept { return pool_hits_; }
  std::uint64_t payload_pool_misses() const noexcept { return pool_misses_; }
  /// Capacity bytes handed out from the pool instead of the allocator.
  std::uint64_t payload_bytes_pooled() const noexcept { return pool_bytes_; }

 private:
  /// Freelist depth cap: beyond this, recycled buffers are released to
  /// the allocator (bounds idle memory after report-heavy rounds).
  static constexpr std::size_t kMaxPooledBuffers = 1024;

  void deliver(Message msg, sim::Duration delay, std::uint32_t charged_hops);
  /// One send attempt hit the air: charge every ledger (total bytes,
  /// per-link bytes, sent-or-dropped message count) and the bound
  /// metrics in one place, so the ledgers cannot diverge.
  void charge(const Message& msg, std::uint64_t wire_bytes, bool delivered);
  /// With serialize_tx: when src's radio can start this transmission
  /// (and reserve it). Returns the extra queueing delay.
  sim::Duration reserve_radio(NodeId src, sim::Duration tx_time);

  sim::Scheduler& scheduler_;
  LinkParams params_;
  Handler handler_;
  Router router_;
  TamperHook tamper_;
  double loss_rate_ = 0.0;
  std::uint64_t loss_seed_ = 0;
  Rng loss_rng_{0};
  bool per_link_accounting_ = false;
  std::uint64_t bytes_transmitted_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> per_link_bytes_;
  std::unordered_set<std::uint64_t> down_links_;  // directed (src,dst)
  std::unordered_map<NodeId, sim::SimTime> radio_free_;  // serialize_tx

  std::vector<Bytes> payload_pool_;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t pool_bytes_ = 0;

  // Bound metric handles (null when no registry is attached). Resolved
  // once in bind_metrics(); hot-path updates are plain increments.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_attempts_ = nullptr;
  obs::Counter* m_link_bytes_ = nullptr;
  obs::Histogram* m_payload_ = nullptr;
};

}  // namespace cra::net
