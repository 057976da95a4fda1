// Deterministic fault timelines for attestation-under-failure runs.
//
// A FaultPlan is a seeded, reproducible schedule of fault events —
// device crash/reboot, sleep/wake, directed link outages, tree
// partitions, transient loss-rate spikes, and secure-clock skew — that a
// simulation replays with identical semantics on the sequential
// Scheduler and the sharded ParallelScheduler at any thread count.
//
// Determinism is by construction, not by discipline:
//   * every event carries pre-drawn randomness (`draw`), assigned from a
//     SplitMix64 stream at build time, so nothing about a fault's effect
//     depends on shard execution order or OS scheduling;
//   * events are totally ordered by (time, insertion sequence), and the
//     injector hands them to the simulation before the affected window
//     runs — each lands on the scheduler shard that owns the touched
//     state, exactly like ordinary protocol events.
//
// Plans are built three ways: programmatically (the fluent builders),
// from text (parse() — the grammar docs/robustness.md specifies), or
// randomly (churn() — a seeded churn generator the chaos bench sweeps).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace cra::fault {

enum class FaultKind : std::uint8_t {
  kCrash,      // device loses power: volatile round state is gone
  kReboot,     // crashed device comes back (flagged `rebooted`)
  kSleep,      // radio off, state retained
  kWake,       // radio back on
  kLinkDown,   // one tree edge stops carrying traffic (both directions)
  kLinkUp,     // the edge heals
  kPartition,  // an island of positions is cut off from the rest
  kHeal,       // the island rejoins
  kLossSpike,  // network-wide loss rate jumps to `rate`
  kLossClear,  // loss rate returns to the configured baseline
  kClockSkew,  // a device's secure clock drifts by `skew_ns`
  kLeave,      // device departs the swarm (mobility churn; excluded from
               // membership until it joins again)
  kJoin,       // the device (re)joins the swarm
  kProcKill,   // process-level chaos (bench/wire_chaos): SIGKILL the
               // process at index `device` (0 = verifier, 1.. = agents);
               // `duration` = downtime before the supervisor restarts it.
               // A no-op for in-simulator runs — only the wire-chaos
               // supervisor interprets it.
};

const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultEvent {
  sim::SimTime at;
  FaultKind kind = FaultKind::kCrash;
  net::NodeId device = 0;  // device events; link events: endpoint a
  net::NodeId peer = 0;    // link events: endpoint b
  std::vector<net::NodeId> island;  // kPartition/kHeal: cut-off positions
  double rate = 0.0;                // kLossSpike
  std::int64_t skew_ns = 0;         // kClockSkew
  /// Paired-builder duration (crash_for/partition_for/...): how long the
  /// fault lasts before its matching recovery event; the text form
  /// carries it as the event's optional last argument. Zero for
  /// unpaired events; used for trace spans only.
  sim::Duration duration = sim::Duration::zero();
  /// Pre-drawn per-event randomness: any stochastic consequence of the
  /// fault (e.g. per-shard loss sub-streams) derives from this value, so
  /// replay cannot depend on execution order.
  std::uint64_t draw = 0;
  std::uint32_t seq = 0;  // insertion order; breaks same-time ties
};

/// All tree positions in the subtree rooted at `root` (including it).
std::vector<net::NodeId> subtree_positions(const net::Tree& tree,
                                           net::NodeId root);

class FaultPlan {
 public:
  /// `draw_seed` seeds the pre-drawn randomness stream; two plans built
  /// by the same call sequence from the same seed are identical.
  explicit FaultPlan(std::uint64_t draw_seed = 0x6661756c74ULL);  // "fault"

  // --- Fluent builders (times are absolute simulation times) ---
  FaultPlan& crash(sim::SimTime at, net::NodeId device);
  FaultPlan& reboot(sim::SimTime at, net::NodeId device);
  /// crash + reboot `downtime` later.
  FaultPlan& crash_for(sim::SimTime at, net::NodeId device,
                       sim::Duration downtime);
  FaultPlan& sleep(sim::SimTime at, net::NodeId device);
  FaultPlan& wake(sim::SimTime at, net::NodeId device);
  FaultPlan& sleep_for(sim::SimTime at, net::NodeId device,
                       sim::Duration downtime);
  FaultPlan& link_down(sim::SimTime at, net::NodeId a, net::NodeId b);
  FaultPlan& link_up(sim::SimTime at, net::NodeId a, net::NodeId b);
  FaultPlan& link_down_for(sim::SimTime at, net::NodeId a, net::NodeId b,
                           sim::Duration downtime);
  FaultPlan& partition(sim::SimTime at, std::vector<net::NodeId> island);
  FaultPlan& heal(sim::SimTime at, std::vector<net::NodeId> island);
  FaultPlan& partition_for(sim::SimTime at, std::vector<net::NodeId> island,
                           sim::Duration downtime);
  /// Cut off the whole subtree under `root` (positions from `tree`).
  FaultPlan& partition_subtree(sim::SimTime at, const net::Tree& tree,
                               net::NodeId root, sim::Duration downtime);
  FaultPlan& loss_spike(sim::SimTime at, double rate);
  FaultPlan& loss_clear(sim::SimTime at);
  FaultPlan& loss_spike_for(sim::SimTime at, double rate,
                            sim::Duration downtime);
  FaultPlan& clock_skew(sim::SimTime at, net::NodeId device,
                        sim::Duration skew);
  FaultPlan& leave(sim::SimTime at, net::NodeId device);
  FaultPlan& join(sim::SimTime at, net::NodeId device);
  /// leave + join `absence` later.
  FaultPlan& leave_for(sim::SimTime at, net::NodeId device,
                       sim::Duration absence);
  /// SIGKILL process `proc` (0 = verifier, 1.. = agents); the wire-chaos
  /// supervisor restarts it after `downtime` (zero = its default).
  FaultPlan& proc_kill(sim::SimTime at, net::NodeId proc);
  FaultPlan& proc_kill_for(sim::SimTime at, net::NodeId proc,
                           sim::Duration downtime);

  /// Events sorted by (time, insertion order).
  const std::vector<FaultEvent>& events() const;
  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }

  /// Canonical text form (one event per line); parse(format()) is the
  /// identity on each event's time, kind, targets, loss rate (printed in
  /// the shortest form that reads back to the same double), skew and
  /// span `duration` (a paired builder's span, proc-kill's downtime).
  /// Islands print ascending. The text carries no pre-drawn `draw`.
  std::string format() const;
  /// Parse the text grammar (see docs/robustness.md). Throws
  /// std::invalid_argument with a line number on malformed input.
  static FaultPlan parse(std::string_view text);

  /// Random-churn generator knobs: expected fault load per `period` of
  /// simulated time over [start, end).
  struct ChurnProfile {
    /// Fraction of the swarm crashed per period (fractional remainders
    /// resolve by Bernoulli draw).
    double crash_rate = 0.01;
    sim::Duration period = sim::Duration::from_ms(500);
    sim::Duration min_downtime = sim::Duration::from_ms(100);
    sim::Duration max_downtime = sim::Duration::from_ms(400);
    /// Fraction of the swarm put to sleep per period.
    double sleep_rate = 0.0;
    /// Probability (per period) of partitioning one random subtree.
    double partition_rate = 0.0;
    sim::Duration partition_duration = sim::Duration::from_ms(200);
    /// Probability (per period) of a transient loss spike.
    double loss_spike_rate = 0.0;
    double loss_spike = 0.2;
    sim::Duration loss_spike_duration = sim::Duration::from_ms(150);
    /// Membership churn (mobility): expected fraction of the swarm
    /// leaving per period. Unlike crash_rate's floor-plus-Bernoulli
    /// resolution, the per-period event count is Poisson-distributed
    /// with mean leave_rate * devices — departures are independent
    /// arrivals, the textbook mobility model. Each leave pairs with a
    /// join after a downtime drawn from [min_downtime, max_downtime].
    double leave_rate = 0.0;
    /// Expected fraction of the swarm (re)joining per period, also
    /// Poisson-sampled. Standalone joins are idempotent on present
    /// devices, so this models devices wandering back into radio range.
    double join_rate = 0.0;
  };

  /// Generate a random churn timeline over `tree` for [start, end).
  /// A pure function of (seed, tree shape, profile).
  static FaultPlan churn(std::uint64_t seed, const net::Tree& tree,
                         sim::SimTime start, sim::SimTime end,
                         const ChurnProfile& profile);

 private:
  FaultEvent& add(sim::SimTime at, FaultKind kind);

  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
  SplitMix64 draws_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace cra::fault
