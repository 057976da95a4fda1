// Replays a FaultPlan onto a running simulation.
//
// The injector is engine-agnostic by design: it owns only the windowing
// cursor (which events have been handed over) and the tally. The swarm
// runtime (swarm/runtime.hpp) passes a callback to arm_until(); for
// every not-yet-armed event inside the horizon the callback either
// applies the fault immediately (event time already in the past — e.g.
// a plan attached mid-run) or schedules it on the scheduler shard that
// owns the touched state. Because arming happens on the driver thread
// between runs, and every event carries pre-drawn randomness, replay is
// byte-identical at any shard placement and thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace cra::fault {

/// Cumulative count of armed events by kind.
struct FaultTally {
  std::uint64_t crashes = 0;
  std::uint64_t reboots = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t links_down = 0;
  std::uint64_t links_up = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t loss_spikes = 0;
  std::uint64_t loss_clears = 0;
  std::uint64_t clock_skews = 0;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;
  std::uint64_t proc_kills = 0;

  void count(FaultKind kind) noexcept;
  std::uint64_t total() const noexcept {
    return crashes + reboots + sleeps + wakes + links_down + links_up +
           partitions + heals + loss_spikes + loss_clears + clock_skews +
           leaves + joins + proc_kills;
  }
};

/// Metric name an armed event of this kind increments ("fault.crashes",
/// "fault.partitions", ...).
const char* fault_metric_name(FaultKind kind) noexcept;

/// Record one armed event: bump the matching fault.* counter in `reg`
/// and, for paired events with a known duration, emit a simulated-time
/// span on the global trace sink (fault.partition, fault.crash, ...).
void observe_event(obs::MetricsRegistry& reg, const FaultEvent& ev);

/// The directed tree edges a partition island severs: every (inside,
/// outside) pair where exactly one endpoint is in `island`. The caller
/// takes each pair down in both directions.
std::vector<std::pair<net::NodeId, net::NodeId>> partition_cut(
    const net::Tree& tree, const std::vector<net::NodeId>& island);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Hand every not-yet-armed event with time <= `horizon` to `arm`, in
  /// (time, insertion) order. Returns how many events were armed. The
  /// cursor only moves forward: each event is armed exactly once over
  /// the injector's lifetime.
  std::size_t arm_until(sim::SimTime horizon,
                        const std::function<void(const FaultEvent&)>& arm);

  bool exhausted() const { return cursor_ >= plan_.events().size(); }
  const FaultTally& tally() const noexcept { return tally_; }

 private:
  FaultPlan plan_;
  std::size_t cursor_ = 0;
  FaultTally tally_;
};

}  // namespace cra::fault
