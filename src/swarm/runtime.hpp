// One swarm runtime for every simulation: SAP, SEDA and PADS at any
// shard count; LISA, the Heartbeat monitor and the naive baseline of
// bench/ablate_naive at one shard.
//
// A protocol simulation is a set of message handlers over a simulated
// network. Everything underneath the handlers is shared and lives here:
//
//   * the engine — always a sim::ParallelScheduler. With one shard it
//     forwards run() to its single Scheduler, so a one-shard swarm is
//     the serial event loop, event for event;
//   * one net::Network per shard, bound to that shard's scheduler, plus
//     the router and message sinks that carry deliveries across shards;
//   * the merged metrics registry and the per-shard ones;
//   * network-level fault replay: link outages, partitions, loss spikes
//     and clears. Device faults go to the protocol's hook.
//
// Every rule that depends on the shard count lives in this module:
//
//   * One shard. No router: the single network delivers on the single
//     scheduler, is itself network(), and writes its instruments
//     straight into metrics(). Loss draws stay on the user's stream, and
//     a scripted loss spike switches that stream at event time.
//   * More shards. network() is a separate configuration surface. It is
//     bound to shard 0's clock and routed into the engine, so a
//     driver-thread send lands on the destination's shard. Each window
//     mirrors it onto the shard networks: per-link accounting, and loss
//     drawn from per-shard substreams seeded by (loss seed, shard,
//     windows run). Tamper hooks are rejected: they would run
//     concurrently on every worker.
//   * Zero-latency links admit no lookahead and force one shard.
//
// A window is one run to quiescence: a protocol round, SEDA's join or
// the Heartbeat monitor's collect sweep; advance_time() and run_until()
// slices are not windows. A round's window has one lifecycle:
// begin_window() zeroes the instruments and runs the protocol's
// per-shard step on the shard workers (reset of the shard's nodes, plus
// whatever the protocol precomputes per shard), the driver starts the
// round, run_window() runs it to quiescence, and the driver reads the
// verdict. At most one window is open (the one round flag); the
// between-round setters ask require_idle().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel.hpp"

namespace cra::swarm {

class SwarmRuntime {
 public:
  using Handler = net::Network::Handler;
  /// Applies one device fault (crash, reboot, sleep, wake, leave, join,
  /// clock skew). Called on the driver thread when the event is armed,
  /// with the device id range-checked when the plan was attached; the
  /// protocol places the change on the owning shard, usually through
  /// apply_at().
  using DeviceFaultHook = std::function<void(const fault::FaultEvent&)>;

  /// Entities are the protocol's wire addresses: tree positions for SAP
  /// and SEDA, device ids for PADS. Link and partition events name tree
  /// positions; `entity_at` maps a position to its entity (nullptr: the
  /// identity). `tree` and `entity_at` are read whenever a fault is
  /// armed and must outlive the runtime.
  SwarmRuntime(const net::Tree& tree, const sim::SimConfig& sim,
               const net::LinkParams& link, Handler on_message,
               DeviceFaultHook on_device_fault,
               const std::vector<net::NodeId>* entity_at = nullptr);

  SwarmRuntime(const SwarmRuntime&) = delete;
  SwarmRuntime& operator=(const SwarmRuntime&) = delete;

  // --- Hot path: every handler reaches its shard through these ---
  std::uint32_t shard_of(std::uint32_t entity) const noexcept {
    return engine_->shard_of(entity);
  }
  sim::Scheduler& sched(std::uint32_t entity) noexcept {
    return engine_->shard_for(entity);
  }
  net::Network& net_of(std::uint32_t entity) noexcept {
    return *nets_[shard_of(entity)];
  }

  const sim::ParallelScheduler& engine() const noexcept { return *engine_; }
  sim::SimTime now() const noexcept { return engine_->now(); }
  /// The configuration surface: loss rate, per-link accounting, tamper
  /// hook, driver-thread sends (see the file comment).
  net::Network& network() noexcept { return *surface_; }
  const net::Network& network() const noexcept { return *surface_; }
  /// Metrics of the last window, merged over shards in shard order.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// One `make(registry)` per shard, in shard order: the protocol
  /// registers its instruments once per shard and indexes the result
  /// with shard_of(). The names are registered in metrics() too, so the
  /// merged view lists them at any shard count, set or not.
  template <typename Make>
  auto per_shard(Make make) {
    std::vector<std::invoke_result_t<Make&, obs::MetricsRegistry&>> out;
    out.reserve(nets_.size());
    for (std::uint32_t s = 0; s < nets_.size(); ++s) {
      out.push_back(make(registry(s)));
    }
    if (!one_shard()) (void)make(metrics_);
    return out;
  }

  /// Call fn(s) once for every shard s: the per-shard work of setup,
  /// such as provisioning the devices a shard owns, and of opening a
  /// round (begin_window). Shard s runs on worker s mod threads, as in
  /// a run, on min(threads, shards) threads started by
  /// sim::run_workers; worker 0 is the caller, so with one of either it
  /// runs inline. Every thread is joined before this returns, which
  /// rethrows the first exception (processes > 1 construct before
  /// ProcessGroup::spawn, so no thread may be live at the fork). Every
  /// process covers every shard, as the constructing one does. fn(s) may
  /// write only state of shard s's entities, and may not post or send.
  /// Driver thread, engine idle.
  void for_each_shard(const std::function<void(std::uint32_t)>& fn);
  /// The entities from `first` up to the tree size that shard `s` owns,
  /// ascending: the shard's run of the placement, bucketed once at
  /// construction.
  std::span<const std::uint32_t> entities_of(std::uint32_t s,
                                             std::uint32_t first = 0) const;
  /// `id` when it names a device, 1..device_count(); otherwise throws
  /// std::out_of_range. Fault replay and the protocols' public
  /// per-device hooks take device ids, and id 0 is Vrf.
  net::NodeId device_id(net::NodeId id) const;

  /// Run `fn` now when `at` is not in the future, else at `at` on the
  /// shard owning `entity`. Driver thread, engine idle.
  template <typename F>
  void apply_at(std::uint32_t entity, sim::SimTime at, F&& fn) {
    on_shard(shard_of(entity), at, std::forward<F>(fn));
  }
  /// Schedule `cb` at `at` on the shard owning `entity` (contract of
  /// sim::ParallelScheduler::post).
  void post(std::uint32_t entity, sim::SimTime at,
            sim::Scheduler::Callback cb) {
    engine_->post(entity, at, std::move(cb));
  }

  // --- Windows ---
  /// The guard of an open window, held by the scope that opened it.
  /// Destroyed while the window is open (an exception unwinding the
  /// round), it drops every event pending on every shard, the armed
  /// faults included, brings every shard clock to now() and closes it.
  class [[nodiscard]] Window {
   public:
    Window(Window&& other) noexcept : rt_(std::exchange(other.rt_, nullptr)) {}
    ~Window() {
      if (rt_ != nullptr) rt_->abort_window();
    }

   private:
    friend class SwarmRuntime;
    explicit Window(SwarmRuntime& rt) noexcept : rt_(&rt) {}
    SwarmRuntime* rt_;
  };

  /// Open a round's window: zero every instrument and ledger, mirror
  /// the configuration surface onto the shard networks, then run
  /// `open_shard(s)` for every shard through for_each_shard (its
  /// contract applies), inside one "swarm.round_open" span. A round's
  /// step resets the round state of the shard's nodes. Throws
  /// std::logic_error, before anything changes, for a tamper hook under
  /// more than one shard or while another window is open.
  Window begin_window(
      const std::function<void(std::uint32_t)>& open_shard = nullptr);
  /// Open a window that keeps every instrument and ledger (the
  /// Heartbeat monitor's collect sweep). Throws as begin_window does.
  Window open_window();
  /// Run to quiescence, close the window, merge the shard registries
  /// into metrics() and check the byte ledgers. Requires an open window.
  void run_window();
  /// Throws std::logic_error naming `caller` while a window is open:
  /// the between-round setters call it first. Any thread.
  void require_idle(const char* caller) const;
  /// Run events up to `t` (a slice of the open window).
  void run_until(sim::SimTime t) { engine_->run_until(t); }
  /// Arm the faults up to now + d, then run to that time.
  void advance_time(sim::Duration d);
  std::uint64_t windows() const noexcept { return windows_; }

  // --- Scripted faults ---
  /// Both between windows only. attach_fault_plan throws
  /// std::out_of_range, before anything changes, for a device event
  /// outside 1..device_count() or a position outside the tree.
  void attach_fault_plan(fault::FaultPlan plan);
  void clear_fault_plan();
  bool has_fault_plan() const noexcept { return faults_ != nullptr; }
  const fault::FaultTally* fault_tally() const noexcept {
    return faults_ ? &faults_->tally() : nullptr;
  }
  /// Hand every not-yet-armed event up to `horizon` to its shard.
  void arm_faults(sim::SimTime horizon);

 private:
  bool one_shard() const noexcept { return engine_->shard_count() == 1; }
  template <typename F>
  void on_shard(std::uint32_t s, sim::SimTime at, F&& fn) {
    if (at <= now()) {
      fn();
      return;
    }
    engine_->shard(s).schedule_at(at, std::forward<F>(fn));
  }
  /// The Window guard's unwind path: no-op unless a window is open.
  void abort_window() noexcept;
  /// The range checks of attach_fault_plan for one event.
  void check_fault(const fault::FaultEvent& ev) const;
  obs::MetricsRegistry& registry(std::uint32_t s) noexcept;
  net::Network::Router route_from(net::Network& sender);
  std::uint64_t shard_loss_seed(std::uint64_t seed,
                                std::uint32_t s) const noexcept;
  void replay(const fault::FaultEvent& ev);
  void set_link(net::NodeId src_pos, net::NodeId dst_pos, bool down,
                sim::SimTime at);
  void set_loss(double rate, std::uint64_t seed, sim::SimTime at);

  const net::Tree& tree_;
  const std::vector<net::NodeId>* entity_at_;
  Handler on_message_;
  DeviceFaultHook on_device_fault_;
  std::unique_ptr<sim::ParallelScheduler> engine_;
  // Every entity, grouped by owning shard and ascending within a shard;
  // shard s's run starts at run_begin_[s].
  std::vector<std::uint32_t> entities_;
  std::vector<std::uint32_t> run_begin_;  // shard count + 1 entries
  obs::MetricsRegistry metrics_;
  // A shard's network on cache lines of its own: its worker writes the
  // ledgers and the payload pool on every send, next to data that other
  // workers read.
  struct alignas(64) ShardNetwork : net::Network {
    using net::Network::Network;
  };
  std::vector<std::unique_ptr<ShardNetwork>> nets_;  // one per shard
  std::unique_ptr<net::Network> config_net_;  // more than one shard only
  net::Network* surface_ = nullptr;
  std::uint64_t windows_ = 0;
  bool window_open_ = false;  // written only while the engine is idle
  std::unique_ptr<fault::FaultInjector> faults_;
  // The loss baseline is captured when a spike first fires so a later
  // clear can restore the user's configuration.
  bool loss_spiked_ = false;
  double baseline_loss_rate_ = 0.0;
  std::uint64_t baseline_loss_seed_ = 0;
};

}  // namespace cra::swarm
