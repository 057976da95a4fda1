#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "sim/affinity.hpp"
#include "sim/process_group.hpp"
#include "sim/shm_sync.hpp"
#include "sim/spsc_ring.hpp"

namespace cra::sim {
namespace {

// Identifies the engine (and shard) the current thread is executing for,
// so post() can tell same-shard scheduling from cross-shard channel
// traffic. Thread-locals rather than members: workers of nested or
// concurrent engines must not observe each other.
thread_local const ParallelScheduler* tls_engine = nullptr;
thread_local std::uint32_t tls_shard = 0;

/// Per-shard shared-memory window for the end-of-run metrics image.
constexpr std::uint32_t kMetricsBlobCap = 256 * 1024;

/// A shard cell's earliest-event time when its queue is empty.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// Per-lane shm ring capacity in 64-byte slots. Sized for a burst where
/// a sizable fraction of one shard's entities post to a single peer
/// shard within one lookahead window (synchronized attestation responses
/// do exactly this): ~3 slots per message, 4 per entity is generous.
/// Heavier epochs spill past the ring (see make_shm_channel).
std::uint32_t ring_slots_for(std::uint32_t shard_entities) noexcept {
  const std::uint64_t slots = std::min<std::uint64_t>(
      std::max<std::uint64_t>(4096, 4ull * shard_entities), 1u << 16);
  return std::bit_ceil(static_cast<std::uint32_t>(slots));
}

/// Start of run `k` when `n` items are cut into `parts` equal contiguous
/// runs (the first n % parts runs take one item more).
std::uint32_t run_start(std::uint32_t n, std::uint32_t parts,
                        std::uint32_t k) noexcept {
  return k * (n / parts) + std::min(k, n % parts);
}

}  // namespace

ShardTransport SimConfig::resolved_transport() const noexcept {
  if (transport != ShardTransport::kAuto) return transport;
  if (const char* env = std::getenv("CRA_SHARD_TRANSPORT")) {
    if (std::strcmp(env, "shm") == 0) return ShardTransport::kShm;
    if (std::strcmp(env, "inproc") == 0) return ShardTransport::kInproc;
  }
  return processes > 1 ? ShardTransport::kShm : ShardTransport::kInproc;
}

ParallelScheduler::ParallelScheduler(std::span<const std::uint32_t> order,
                                     SimConfig config, Duration lookahead)
    : lookahead_(lookahead) {
  const auto entities = static_cast<std::uint32_t>(order.size());
  std::uint32_t shards = config.effective_shards();
  if (shards == 0) shards = 1;
  shard_count_ = std::max<std::uint32_t>(1, std::min(shards, entities));
  threads_ = std::max<std::uint32_t>(1, std::min(config.threads, shard_count_));
  if (shard_count_ > 1 && lookahead_ <= Duration::zero()) {
    throw std::invalid_argument(
        "ParallelScheduler: sharding requires positive lookahead");
  }
  constexpr std::uint32_t kUnplaced =
      std::numeric_limits<std::uint32_t>::max();
  shard_of_.assign(entities, kUnplaced);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    const std::uint32_t begin = run_start(entities, shard_count_, s);
    const std::uint32_t end = run_start(entities, shard_count_, s + 1);
    for (std::uint32_t i = begin; i < end; ++i) {
      if (order[i] >= entities || shard_of_[order[i]] != kUnplaced) {
        throw std::invalid_argument(
            "ParallelScheduler: entity order is not a permutation");
      }
      shard_of_[order[i]] = s;
    }
  }
  pin_ = config.pin;
  processes_ = std::max<std::uint32_t>(1, config.processes);
  if (processes_ > shard_count_) processes_ = shard_count_;
  transport_ = shard_count_ > 1 ? config.resolved_transport()
                                : ShardTransport::kInproc;
  if (processes_ > 1 && transport_ != ShardTransport::kShm) {
    throw std::invalid_argument(
        "ParallelScheduler: multi-process placement requires the shm "
        "transport (SimConfig::transport / CRA_SHARD_TRANSPORT)");
  }
  shards_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (shard_count_ == 1) return;

  const bool shm = transport_ == ShardTransport::kShm;
  const std::uint32_t ring_slots =
      ring_slots_for(run_start(entities, shard_count_, 1));
  const std::size_t blob_bytes = processes_ > 1 ? kMetricsBlobCap : 0;
  std::size_t bytes = 0;
  bytes += sizeof(ShmBarrierCell) + 64;
  bytes += sizeof(ShmHorizonCell) + 64;
  bytes += 64 + 64;  // abort word
  bytes += static_cast<std::size_t>(shard_count_) * sizeof(ShardCell) + 64;
  bytes += static_cast<std::size_t>(shard_count_) * blob_bytes + 64;
  if (shm) {
    bytes += static_cast<std::size_t>(shard_count_) * (shard_count_ - 1) *
             (SpscRing::region_bytes(ring_slots) + 64);
  }
  arena_ = std::make_unique<SharedArena>(bytes);
  barrier_ = ::new (arena_->alloc(sizeof(ShmBarrierCell))) ShmBarrierCell();
  control_ = ::new (arena_->alloc(sizeof(ShmHorizonCell))) ShmHorizonCell();
  abort_ = ::new (arena_->alloc(sizeof(std::atomic<std::uint32_t>)))
      std::atomic<std::uint32_t>(0);
  cells_ = static_cast<ShardCell*>(arena_->alloc(
      static_cast<std::size_t>(shard_count_) * sizeof(ShardCell)));
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    ::new (&cells_[s]) ShardCell();
  }
  if (processes_ > 1) {
    metrics_blobs_ = static_cast<std::uint8_t*>(
        arena_->alloc(static_cast<std::size_t>(shard_count_) * blob_bytes));
  }
  if (!shm) {
    channel_ = make_inproc_channel(shard_count_);
    return;
  }
  std::vector<std::uint32_t> rank_of(shard_count_);
  for (std::uint32_t r = 0; r < processes_; ++r) {
    const auto [lo, hi] = owned_shards(r);
    std::fill(rank_of.begin() + lo, rank_of.begin() + hi, r);
  }
  channel_ = make_shm_channel(shard_count_, ring_slots, *arena_, rank_of);
}

ParallelScheduler::~ParallelScheduler() = default;

const char* ParallelScheduler::transport_name() const noexcept {
  return transport_ == ShardTransport::kShm ? "shm" : "inproc";
}

std::pair<std::uint32_t, std::uint32_t> ParallelScheduler::owned_shards(
    std::uint32_t rank) const noexcept {
  return {run_start(shard_count_, processes_, rank),
          run_start(shard_count_, processes_, rank + 1)};
}

bool ParallelScheduler::owns_shard(std::uint32_t s) const noexcept {
  if (processes_ == 1) return true;
  const auto [lo, hi] = owned_shards(ProcessGroup::instance().rank());
  return s >= lo && s < hi;
}

SimTime ParallelScheduler::now() const noexcept {
  SimTime t = SimTime::zero();
  for (const auto& s : shards_) {
    if (s->sched.now() > t) t = s->sched.now();
  }
  return t;
}

std::uint64_t ParallelScheduler::dispatched() const noexcept {
  if (processes_ > 1) {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      n += cells_[s].dispatched_total.load(std::memory_order_acquire);
    }
    return n;
  }
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->sched.dispatched();
  return n;
}

std::uint64_t ParallelScheduler::cross_shard_posts() const noexcept {
  if (processes_ > 1) {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      n += cells_[s].cross_posts.load(std::memory_order_acquire);
    }
    return n;
  }
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->cross_posts;
  return n;
}

std::uint64_t ParallelScheduler::lane_reallocs() const noexcept {
  return channel_ ? channel_->lane_reallocs() : 0;
}

void ParallelScheduler::export_pdes_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("pdes.events_dispatched").inc(dispatched());
  reg.counter("pdes.cross_posts").inc(cross_shard_posts());
  reg.counter("pdes.lane_reallocs").inc(lane_reallocs());
  reg.counter("pdes.epochs").inc(epochs_);
}

void ParallelScheduler::merge_metrics_into(obs::MetricsRegistry& out) const {
  if (processes_ > 1) {
    // Ascending shard order, exactly like the local path: owned shards
    // merge live registries, peer shards merge the binary images their
    // owners published at the end of the last run.
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      if (owns_shard(s)) {
        out.merge_from(shards_[s]->metrics);
        continue;
      }
      const std::uint32_t len =
          cells_[s].metrics_len.load(std::memory_order_acquire);
      if (len != 0) {
        out.merge_binary(BytesView(
            metrics_blobs_ + static_cast<std::size_t>(s) * kMetricsBlobCap,
            len));
      }
    }
    return;
  }
  for (const auto& s : shards_) out.merge_from(s->metrics);
}

void ParallelScheduler::reset_shard_metrics() noexcept {
  for (auto& s : shards_) s->metrics.reset_values();
}

bool ParallelScheduler::crossing(std::uint32_t to) const {
  if (!running_.load(std::memory_order_acquire)) return false;
  if (tls_engine != this) {
    throw std::logic_error(
        "ParallelScheduler: post from a foreign thread while the engine is "
        "running — posting is setup-only outside the engine's own workers "
        "(see the contract in sim/parallel.hpp)");
  }
  return tls_shard != to;
}

void ParallelScheduler::post(std::uint32_t entity, SimTime at, Callback cb) {
  const std::uint32_t to = shard_of(entity);
  if (crossing(to)) {
    throw std::logic_error(
        "ParallelScheduler: a closure cannot cross shards — route "
        "cross-shard traffic through post_message()");
  }
  // Engine idle (round setup), or the worker's own shard: schedule
  // directly, preserving the scheduler's local FIFO order.
  shard(to).schedule_at(at, std::move(cb));
}

Bytes ParallelScheduler::post_message(std::uint32_t entity, SimTime at,
                                      std::uint32_t src, std::uint32_t kind,
                                      Bytes&& payload) {
  const std::uint32_t to = shard_of(entity);
  ShardMessage m{at, entity, src, kind, std::move(payload)};
  if (!crossing(to)) {
    schedule_message(to, std::move(m));
    return {};
  }
  if (at < horizon_) {
    throw std::logic_error(
        "ParallelScheduler: cross-shard message inside the lookahead "
        "window — source latency is below the configured lookahead");
  }
  ++shards_[tls_shard]->cross_posts;
  return channel_->post_message(tls_shard, to, std::move(m));
}

void ParallelScheduler::schedule_message(std::uint32_t s, ShardMessage&& m) {
  const SimTime at = m.at;
  shards_[s]->sched.schedule_at(
      at, [this, sm = std::move(m)]() mutable { sink_(std::move(sm)); });
}

void ParallelScheduler::drain_into(std::uint32_t s) {
  channel_->drain(
      s, [this, s](ShardMessage&& m) { schedule_message(s, std::move(m)); });
}

void ParallelScheduler::maybe_pin(std::uint32_t worker,
                                  std::uint32_t workers) const {
  if (!pin_) return;
  static const CpuPlan plan = detect_cpu_plan();
  const std::uint32_t rank =
      processes_ > 1 ? ProcessGroup::instance().rank() : 0;
  pin_current_thread(pick_cpu(plan, rank, processes_, worker, workers));
}

std::size_t ParallelScheduler::run() {
  if (shard_count_ == 1) return shards_[0]->sched.run();
  return run_epochs(std::nullopt);
}

std::size_t ParallelScheduler::run_until(SimTime until) {
  if (shard_count_ == 1) return shards_[0]->sched.run_until(until);
  return run_epochs(until);
}

void ParallelScheduler::publish_shard_outputs(std::uint32_t s) {
  Shard& sh = *shards_[s];
  cells_[s].clock_ns.store(sh.sched.now().ns(), std::memory_order_relaxed);
  cells_[s].dispatched_run.store(sh.dispatched_run,
                                 std::memory_order_relaxed);
  cells_[s].dispatched_total.store(sh.sched.dispatched(),
                                   std::memory_order_relaxed);
  cells_[s].cross_posts.store(sh.cross_posts, std::memory_order_relaxed);
  if (processes_ > 1) {
    Bytes image;
    sh.metrics.encode_binary(image);
    if (image.size() > kMetricsBlobCap) {
      throw std::runtime_error(
          "ParallelScheduler: shard metrics image exceeds the shared "
          "window — too many distinct instruments for multi-process mode");
    }
    std::memcpy(
        metrics_blobs_ + static_cast<std::size_t>(s) * kMetricsBlobCap,
        image.data(), image.size());
    cells_[s].metrics_len.store(static_cast<std::uint32_t>(image.size()),
                                std::memory_order_release);
  }
}

std::size_t ParallelScheduler::run_epochs(std::optional<SimTime> until) {
  ProcessGroup& pg = ProcessGroup::instance();
  if (processes_ > 1 && pg.size() != processes_) {
    throw std::logic_error(
        "ParallelScheduler: SimConfig::processes = " +
        std::to_string(processes_) +
        " but the ProcessGroup has not been spawned — construct the "
        "simulation first, then ProcessGroup::spawn(processes), then run");
  }
  const std::uint32_t rank = processes_ > 1 ? pg.rank() : 0;
  const auto [lo, hi] = owned_shards(rank);
  if (processes_ > 1) {
    // Every rank scheduled the same SPMD setup events into every shard;
    // drop the copies on shards this rank does not own — their owners
    // run the authoritative ones.
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      if (s < lo || s >= hi) shards_[s]->sched.clear_pending();
    }
  }
  for (auto& s : shards_) s->dispatched_run = 0;
  const std::uint32_t workers =
      std::max<std::uint32_t>(1, std::min(threads_, hi - lo));
  abort_->store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);

  std::mutex error_mu;
  std::exception_ptr error;
  bool done = false;
  bool barrier_failed = false;

  auto record_error = [&]() noexcept {
    const std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    // Graceful abort: this rank keeps participating in barriers; the
    // next phase-A reduction sees the flag and publishes done for all.
    abort_->store(1, std::memory_order_release);
  };
  // Meet every process and run `on_last` once, with every worker of
  // every rank parked. One process runs it in place: no futex, no
  // liveness probe. False when a peer process died.
  auto across_processes = [this](auto&& on_last) noexcept {
    if (processes_ == 1) {
      on_last();
      return true;
    }
    return barrier_->wait(processes_, on_last, []() noexcept {
      return ProcessGroup::instance().peers_alive();
    });
  };
  const bool has_until = until.has_value();
  const std::int64_t until_ns = has_until ? until->ns() : 0;

  // The epoch decision: fold every shard's earliest-event time into the
  // global minimum and publish the horizon.
  auto reduce = [this, has_until, until_ns]() noexcept {
    std::int64_t min_next = kNever;
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      min_next = std::min(
          min_next, cells_[s].next_ns.load(std::memory_order_acquire));
    }
    const bool is_done = abort_->load(std::memory_order_acquire) != 0 ||
                         min_next == kNever ||
                         (has_until && min_next > until_ns);
    std::int64_t horizon = 0;
    if (!is_done) {
      horizon = min_next + lookahead_.ns();
      if (has_until && horizon > until_ns + 1) {
        horizon = until_ns + 1;  // run_before is exclusive
      }
    }
    control_->publish(horizon, is_done,
                      control_->epoch.load(std::memory_order_relaxed) + 1);
  };

  // Completion step: runs on exactly one worker while every worker of
  // this process is parked. std::barrier invokes it at BOTH the phase-A
  // and phase-B barriers; only the phase-A one (when fresh earliest-event
  // times were just written) decides the epoch.
  bool phase_a = true;
  auto completion = [&]() noexcept {
    if (!phase_a) {
      phase_a = true;
      if (!across_processes([]() noexcept {})) {
        barrier_failed = true;
        done = true;
      }
      return;
    }
    phase_a = false;
    if (!across_processes(reduce)) {
      barrier_failed = true;
      done = true;
      return;
    }
    std::int64_t horizon;
    std::uint64_t epoch;
    control_->read(horizon, done, epoch);
    if (!done) {
      horizon_ = SimTime(horizon);
      ++epochs_;
    }
  };
  std::barrier sync(workers, completion);

  // Worker 0 is the calling thread, so one worker runs the shards in the
  // same order on the caller.
  auto worker_loop = [&](std::uint32_t w) {
    tls_engine = this;
    maybe_pin(w, workers);
    for (;;) {
      // Phase A: drain the inbound channel, write the earliest local
      // event time to this shard's cell.
      for (std::uint32_t s = lo + w; s < hi; s += workers) {
        tls_shard = s;
        try {
          drain_into(s);
        } catch (...) {
          record_error();
        }
        const auto next = shards_[s]->sched.peek_next_time();
        cells_[s].next_ns.store(next ? next->ns() : kNever,
                                std::memory_order_release);
      }
      sync.arrive_and_wait();
      if (done) break;
      // Phase B: execute one lookahead window on each owned shard.
      for (std::uint32_t s = lo + w; s < hi; s += workers) {
        tls_shard = s;
        try {
          shards_[s]->dispatched_run += shards_[s]->sched.run_before(horizon_);
        } catch (...) {
          record_error();
        }
      }
      sync.arrive_and_wait();
    }
    tls_engine = nullptr;
  };

  run_workers(workers, worker_loop);

  running_.store(false, std::memory_order_release);

  // End-of-run publication runs even when this rank captured an error:
  // peers are parked at the final barrier and must be released before
  // anyone throws (a graceful abort is globally visible by now, so every
  // rank throws right after this barrier).
  if (!barrier_failed) {
    try {
      for (std::uint32_t s = lo; s < hi; ++s) publish_shard_outputs(s);
    } catch (...) {
      record_error();
    }
    if (!across_processes([this]() noexcept {
          std::int64_t now_max = 0;
          for (std::uint32_t s = 0; s < shard_count_; ++s) {
            now_max = std::max(
                now_max, cells_[s].clock_ns.load(std::memory_order_acquire));
          }
          control_->global_now_ns.store(now_max, std::memory_order_release);
        })) {
      barrier_failed = true;
    }
  }
  if (error) std::rethrow_exception(error);
  if (barrier_failed) {
    throw std::runtime_error(
        "ParallelScheduler: a peer shard process died mid-run (epoch "
        "barrier abandoned)");
  }
  if (abort_->load(std::memory_order_acquire) != 0) {
    throw std::runtime_error(
        "ParallelScheduler: a peer shard process aborted the run");
  }

  // Global clock sync: every rank advances every local shard — owned or
  // not — to the same reduced target, so between runs all ranks agree
  // on now().
  const SimTime target =
      has_until ? *until
                : SimTime(control_->global_now_ns.load(
                      std::memory_order_acquire));
  for (auto& s : shards_) {
    if (s->sched.now() < target) s->sched.run_until(target);
  }

  std::size_t n = 0;
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    n += cells_[s].dispatched_run.load(std::memory_order_acquire);
  }
  return n;
}

void run_workers(std::uint32_t workers,
                 const std::function<void(std::uint32_t)>& worker) {
  if (workers == 0) return;
  std::mutex error_mu;
  std::exception_ptr error;
  auto guarded = [&](std::uint32_t w) {
    try {
      worker(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (std::uint32_t w = 1; w < workers; ++w) pool.emplace_back(guarded, w);
    guarded(0);
  }  // jthread joins here
  if (error) std::rethrow_exception(error);
}

}  // namespace cra::sim
