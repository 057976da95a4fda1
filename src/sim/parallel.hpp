// Sharded parallel discrete-event engine (conservative PDES).
//
// The single-threaded Scheduler dispatches a global event queue in time
// order; a million-device SAP round schedules a few million events on
// one core. This engine partitions simulation endpoints ("entities" —
// for the protocol layers, tree positions) into shards, one serial
// Scheduler per shard, and runs the shards concurrently over a worker
// pool. Correctness rests on the classic conservative-lookahead
// argument (Chandy/Misra/Bryant):
//
//   every cross-shard interaction is a message with latency >= L
//   (the network's minimum link latency), so if no shard holds an
//   event earlier than T, no cross-shard event can arrive before
//   T + L — and every shard may safely execute its local events in
//   [T, T + L) without hearing from anyone.
//
// Execution proceeds in epochs, and every engine with more than one
// shard runs them through one loop, at any thread count, transport and
// process count. Each epoch has two phases separated by barriers: (A)
// every shard drains its inbound channel and writes the time of its
// earliest event to its cell; a reduction folds the cells to the global
// minimum T and publishes the horizon T + L; (B) every shard runs
// run_before(horizon). Within one process the reduction runs in place,
// in the completion step of the workers' std::barrier; between processes
// that step also meets the peers at a futex barrier whose last arriver
// reduces. Messages posted across shards during (B) go through an
// explicit ChannelTransport (sim/channel.hpp) — each directed (source,
// destination) lane has exactly one writer and one reader, and the
// phases alternate under barriers, so the in-process lanes need no locks
// and the shared-memory rings need only their SPSC ordering.
//
// Only ShardMessages cross a shard boundary; a closure never does. Two
// transports carry them (SimConfig::transport / CRA_SHARD_TRANSPORT):
//
//   * inproc — per-lane vectors of owned messages, zero-copy, one
//     process.
//   * shm    — per-lane SPSC rings in a MAP_SHARED arena; shard groups
//     may live in separate forked processes (SimConfig::processes +
//     sim::ProcessGroup).
//
// Placement: the caller hands the constructor an entity order, and the
// engine cuts it into equal contiguous runs, one per shard. The protocol
// layers pass the DFS preorder of their deployment tree
// (net::dfs_preorder), in which every subtree is one contiguous run. A
// shard then owns whole subtrees, so the only tree edges that cross
// shards hang off the ancestors of the run boundaries — at most
// (shards − 1) × depth × degree of them — and every tree level, hence
// every epoch of a flood down or a report climb up the tree, is spread
// over all shards instead of sitting on one or two of them.
//
// Determinism: each shard is a deterministic Scheduler (FIFO among
// same-time events), channel lanes are drained in fixed source-shard
// order, and the horizon sequence depends only on event timestamps —
// so a run is a pure function of (inputs, shard count), independent of
// the number of worker threads, the transport, and the shard-to-process
// placement. With one shard the engine *is* a serial Scheduler: run()
// forwards directly, so one shard reproduces the serial event order
// bit-for-bit.
//
// Threading contract for post() and post_message(): safe from any of
// THIS engine's shard workers while the engine runs, and from the driver
// thread while the engine is idle (round setup). Any other thread
// posting into a running engine throws std::logic_error instead of
// racing a live shard queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace cra::sim {

class SharedArena;
struct ShmBarrierCell;
struct ShmHorizonCell;

/// Which channel implementation carries the shard boundary.
enum class ShardTransport : std::uint8_t {
  kAuto = 0,    // CRA_SHARD_TRANSPORT env if set, else inproc (shm when
                // processes > 1)
  kInproc = 1,  // in-process lanes (owned messages; zero-copy)
  kShm = 2,     // shared-memory SPSC rings (serialized messages)
};

/// Execution knobs for the simulation engine, carried by protocol
/// configs (sap::SapConfig::sim, seda::SedaConfig::sim).
struct SimConfig {
  /// Worker threads (per process). 1 = run on the calling thread (with
  /// shards=0 that is one shard: the serial event loop).
  std::uint32_t threads = 1;
  /// Shard count; 0 = one shard per thread. Results are a function of
  /// the shard count, not the thread count: fix `shards` and any
  /// `threads` value reproduces the same run (see docs/simulation.md).
  std::uint32_t shards = 0;
  /// Shard-boundary transport. kAuto resolves via CRA_SHARD_TRANSPORT
  /// ("inproc" / "shm") and defaults to inproc (shm when processes > 1).
  ShardTransport transport = ShardTransport::kAuto;
  /// Shard processes (shm transport only). Shards split into
  /// `processes` contiguous groups; rank r of the ProcessGroup owns
  /// group r. Construct the simulation FIRST (the shared arena must
  /// predate the fork), then ProcessGroup::spawn(processes), then run.
  std::uint32_t processes = 1;
  /// Pin workers to CPUs, NUMA-aware when sysfs exposes node topology
  /// (see sim/affinity.hpp). Placement-neutral: affects wall clock only.
  bool pin = false;

  std::uint32_t effective_shards() const noexcept {
    return shards != 0 ? shards : threads;
  }
  bool sharded() const noexcept { return effective_shards() > 1; }
  /// Resolve kAuto against the environment. Stable for a given
  /// (config, environment) pair.
  ShardTransport resolved_transport() const noexcept;
};

class ParallelScheduler {
 public:
  using Callback = Scheduler::Callback;
  /// The protocol's delivery sink for messages sent with post_message.
  /// It runs on the destination shard's worker at the message's time and
  /// owns the message, payload buffer included.
  using MessageSink = std::function<void(ShardMessage&&)>;

  /// Places entities 0..order.size()-1 by cutting `order` — a
  /// permutation of them — into equal contiguous runs, one per shard:
  /// run sizes differ by at most one, and order[0] lands on shard 0.
  /// Throws std::invalid_argument when `order` is not a permutation.
  /// `lookahead` is the minimum cross-shard event latency and must be
  /// positive when more than one shard is configured.
  ParallelScheduler(std::span<const std::uint32_t> order, SimConfig config,
                    Duration lookahead);
  ~ParallelScheduler();

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  std::uint32_t shard_count() const noexcept { return shard_count_; }
  std::uint32_t threads() const noexcept { return threads_; }
  Duration lookahead() const noexcept { return lookahead_; }
  /// Resolved transport actually in use ("inproc" for 1 shard).
  ShardTransport transport() const noexcept { return transport_; }
  const char* transport_name() const noexcept;
  std::uint32_t processes() const noexcept { return processes_; }

  /// Owning shard of `entity`; entities past the placed range map to
  /// the last shard.
  std::uint32_t shard_of(std::uint32_t entity) const noexcept {
    return entity < shard_of_.size() ? shard_of_[entity] : shard_count_ - 1;
  }
  Scheduler& shard(std::uint32_t s) noexcept { return shards_[s]->sched; }
  Scheduler& shard_for(std::uint32_t entity) noexcept {
    return shard(shard_of(entity));
  }
  /// Contiguous shard range owned by process `rank` (all shards when
  /// single-process).
  std::pair<std::uint32_t, std::uint32_t> owned_shards(
      std::uint32_t rank) const noexcept;

  /// Global clock: the maximum of the shard clocks. run()/run_until()
  /// synchronize every shard to this value on completion — across
  /// processes too (a shared-memory max-reduction) — so between runs
  /// all shards in all ranks agree on the time.
  SimTime now() const noexcept;

  /// Schedule `cb` at absolute time `at` on `entity`'s shard.
  ///
  /// Contract: callable (a) from this engine's shard workers while the
  /// engine runs, for the worker's own shard — scheduled directly,
  /// preserving local FIFO order — and (b) from any thread while the
  /// engine is idle (setup between runs). A closure posted to another
  /// shard from a running worker, or from a foreign thread into a
  /// running engine, throws std::logic_error: only messages cross
  /// shards (post_message).
  void post(std::uint32_t entity, SimTime at, Callback cb);

  /// Schedule delivery of a message to `entity`'s shard at `at`, where
  /// the sink (set_message_sink) runs it. Same threading contract as
  /// post(), except that a running worker may target any shard:
  /// cross-shard messages ride the channel and must respect the
  /// lookahead (`at` >= the current epoch horizon), which holds by
  /// construction for any message of latency >= lookahead. Returns the
  /// spent payload buffer when the transport serialized it out (caller
  /// recycles the capacity into its shard-local pool); returns an empty
  /// buffer when the payload moved onward intact.
  Bytes post_message(std::uint32_t entity, SimTime at, std::uint32_t src,
                     std::uint32_t kind, Bytes&& payload);

  /// Install the sink post_message delivers to. Call at setup, before
  /// any run with message traffic.
  void set_message_sink(MessageSink deliver) { sink_ = std::move(deliver); }

  /// Run all shards to global quiescence; returns events dispatched
  /// (across ALL processes in multi-process mode — every rank returns
  /// the same total).
  std::size_t run();

  /// Run events with time <= `until`; every shard clock advances to
  /// `until`. Runs the same epoch loop as run(), so drivers can slice a
  /// round at topology-rewire points without giving up parallelism.
  std::size_t run_until(SimTime until);

  /// Total events dispatched over the engine's lifetime (global across
  /// processes in multi-process mode).
  std::uint64_t dispatched() const noexcept;
  /// Barrier windows executed (observability: epochs × 2 barrier waits).
  std::uint64_t epochs() const noexcept { return epochs_; }
  /// Events that crossed a shard boundary through the channel (global
  /// across processes in multi-process mode).
  std::uint64_t cross_shard_posts() const noexcept;
  /// Lane-capacity growth events in the channel (0 for shm rings, and 0
  /// steady-state for warm inproc lanes — the recycling guarantee).
  std::uint64_t lane_reallocs() const noexcept;

  /// Write the engine's own counters (pdes.events_dispatched,
  /// pdes.cross_posts, pdes.lane_reallocs, pdes.epochs) into `reg`.
  /// Deliberately NOT folded into the per-shard registries: those merge
  /// into the protocol metrics view, which must stay engine-invariant
  /// (a serial run and a sharded run export identical registries) —
  /// benches export these into their own bench-level registry instead.
  void export_pdes_metrics(obs::MetricsRegistry& reg) const;

  /// --- Per-shard metrics (obs layer) ---
  /// Each shard carries its own MetricsRegistry, written only by the
  /// worker that owns the shard (same confinement as the shard's
  /// Scheduler), so instrument updates need no locks or atomics. The
  /// registries are reduced with merge_metrics_into() on the caller's
  /// thread once run() has returned — i.e. at the final barrier, when
  /// every worker is quiescent — always in ascending shard order, so
  /// the merged view is a deterministic function of the run itself, not
  /// of thread interleaving.
  obs::MetricsRegistry& shard_metrics(std::uint32_t s) noexcept {
    return shards_[s]->metrics;
  }
  const obs::MetricsRegistry& shard_metrics(std::uint32_t s) const noexcept {
    return shards_[s]->metrics;
  }
  /// Fold every shard registry into `out` in shard order (deterministic;
  /// see shard_metrics). Call only while the engine is idle. In
  /// multi-process mode, non-owned shards merge from the binary images
  /// their owners published to shared memory at the end of the last run
  /// — every rank reduces the same global view.
  void merge_metrics_into(obs::MetricsRegistry& out) const;
  /// Zero every shard registry's instruments (round boundary).
  void reset_shard_metrics() noexcept;

 private:
  // Shards are heap-allocated and cacheline-aligned so that workers
  // hammering their own shard never share a line.
  struct alignas(64) Shard {
    Scheduler sched;
    std::size_t dispatched_run = 0;  // events run in the current run()
    std::uint64_t cross_posts = 0;   // channel posts originated here
    obs::MetricsRegistry metrics;    // written only by the owning worker
  };

  /// Per-shard cell of the control plane: the owner writes its
  /// earliest-event time each phase A and its clock and counters at the
  /// end of a run (plus its metrics image when processes > 1); the
  /// reductions read every cell.
  struct alignas(64) ShardCell {
    std::atomic<std::int64_t> next_ns;
    std::atomic<std::int64_t> clock_ns;
    std::atomic<std::uint64_t> dispatched_run;
    std::atomic<std::uint64_t> dispatched_total;
    std::atomic<std::uint64_t> cross_posts;
    std::atomic<std::uint32_t> metrics_len;
  };

  bool owns_shard(std::uint32_t s) const noexcept;
  /// True when a post from this thread to shard `to` must cross the
  /// channel; throws std::logic_error for a foreign thread posting into
  /// a running engine.
  bool crossing(std::uint32_t to) const;
  void schedule_message(std::uint32_t s, ShardMessage&& m);
  /// Move every channel lane targeting shard `s` into its scheduler, in
  /// fixed source-shard order (this is what keeps drains deterministic).
  void drain_into(std::uint32_t s);
  void publish_shard_outputs(std::uint32_t s);
  /// The epoch loop of every engine with more than one shard.
  std::size_t run_epochs(std::optional<SimTime> until);
  void maybe_pin(std::uint32_t worker, std::uint32_t workers) const;

  std::uint32_t shard_count_;
  std::uint32_t threads_;
  std::vector<std::uint32_t> shard_of_;  // entity -> owning shard
  Duration lookahead_;
  ShardTransport transport_ = ShardTransport::kInproc;
  std::uint32_t processes_ = 1;
  bool pin_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ChannelTransport> channel_;
  MessageSink sink_;

  // Control plane (more than one shard): the barrier and horizon cells,
  // the abort word, one cell per shard, and the metrics windows when
  // processes > 1. It lives in a shared arena created at construction —
  // i.e. before any ProcessGroup::spawn() — so all ranks map it at the
  // same address; the shm rings come from the same arena.
  std::unique_ptr<SharedArena> arena_;
  ShmBarrierCell* barrier_ = nullptr;
  ShmHorizonCell* control_ = nullptr;
  std::atomic<std::uint32_t>* abort_ = nullptr;
  ShardCell* cells_ = nullptr;
  std::uint8_t* metrics_blobs_ = nullptr;

  // The epoch horizon: written only while every worker is parked at a
  // barrier (completion step); the barrier provides the happens-before
  // for workers reading it.
  SimTime horizon_;
  std::atomic<bool> running_{false};
  std::uint64_t epochs_ = 0;
};

/// Run worker(w) for every w in [0, workers): worker 0 on the calling
/// thread, the others on threads of their own. Every thread is joined
/// before this returns; then the first exception a worker threw is
/// rethrown.
void run_workers(std::uint32_t workers,
                 const std::function<void(std::uint32_t)>& worker);

}  // namespace cra::sim
