// Shared-memory synchronization primitives for the multi-process engine.
//
// The sharded engine's cross-process epoch protocol (sim/parallel.cpp)
// and the SPSC rings (sim/spsc_ring.hpp) coordinate through 32-bit words
// in MAP_SHARED memory. Everything here is built on the two Linux futex
// operations that work across processes (FUTEX_WAIT / FUTEX_WAKE on a
// non-private futex):
//
//   * futex_wait / futex_wake — thin syscall wrappers.
//   * ShmBarrierCell — a sense-reversing barrier for P processes: the
//     last arriver runs a reduction closure while every peer is parked,
//     then bumps the generation word and wakes the futex. Waits are
//     time-bounded so a crashed peer turns into a liveness-callback
//     failure instead of a hang.
//   * ShmHorizonCell — a seqlock-published {horizon, done, epoch}
//     triple: the barrier's last arriver writes it (seq odd while
//     writing), every process re-reads until it observes a stable even
//     sequence. The barrier already orders the write before the reads;
//     the seqlock additionally makes the cell safe to sample from
//     outside the barrier (watchdogs, debuggers) and keeps the publish
//     protocol explicit.
//
// All waits spin briefly before sleeping. The spin budget is tiny on
// purpose: shard processes are frequently co-scheduled on fewer cores
// than there are waiters, and a long spin there is pure waste.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <ctime>

namespace cra::sim {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// FUTEX_WAIT on `word` while it equals `expected`; returns once woken,
/// on timeout, on EINTR, or immediately if the value already changed.
/// `timeout_ns < 0` waits forever (the engine never does).
inline void futex_wait(const std::atomic<std::uint32_t>* word,
                       std::uint32_t expected,
                       std::int64_t timeout_ns) noexcept {
  timespec ts;
  timespec* tsp = nullptr;
  if (timeout_ns >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    tsp = &ts;
  }
  // Non-private futex: the word lives in MAP_SHARED memory and peers are
  // separate processes.
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word),
          FUTEX_WAIT, expected, tsp, nullptr, 0);
}

inline void futex_wake(std::atomic<std::uint32_t>* word, int waiters) noexcept {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
          waiters, nullptr, nullptr, 0);
}

inline void futex_wake_all(std::atomic<std::uint32_t>* word) noexcept {
  futex_wake(word, 0x7fffffff);
}

/// Sense-reversing barrier for `nprocs` processes (one leader thread
/// each). Lives in shared memory; zero-initialized is ready to use.
struct alignas(64) ShmBarrierCell {
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> generation{0};  // the futex word
  /// Sticky catastrophic-failure flag: set by the first waiter whose
  /// liveness probe fails (a peer process died mid-epoch), broadcast so
  /// every OTHER waiter gives up too instead of parking forever on a
  /// barrier the dead peer can never complete. Distinct from a graceful
  /// abort (a captured exception), which still participates in barriers
  /// and drains through the normal done-publication.
  std::atomic<std::uint32_t> failed{0};

  /// Enter the barrier. The last arriver runs `on_last` (with every
  /// peer parked), then releases the generation. Waiters poll `alive`
  /// roughly every 10 ms; if it returns false — or another waiter has
  /// already flagged failure — the wait gives up and wait() returns
  /// false (the caller aborts the run). on_last must not throw — it
  /// runs inside the barrier, where an unwind would strand every peer.
  template <typename OnLast, typename Liveness>
  bool wait(std::uint32_t nprocs, OnLast&& on_last, Liveness&& alive) noexcept {
    if (failed.load(std::memory_order_acquire) != 0) return false;
    const std::uint32_t gen = generation.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == nprocs) {
      on_last();
      arrived.store(0, std::memory_order_relaxed);
      generation.store(gen + 1, std::memory_order_release);
      futex_wake_all(&generation);
      return true;
    }
    // Short spin (peers on other cores release in nanoseconds), then
    // sleep in 10 ms slices so a dead peer is noticed promptly.
    for (int i = 0; i < 128; ++i) {
      if (generation.load(std::memory_order_acquire) != gen) return true;
      cpu_relax();
    }
    while (generation.load(std::memory_order_acquire) == gen) {
      if (failed.load(std::memory_order_acquire) != 0) return false;
      if (!alive()) {
        failed.store(1, std::memory_order_release);
        futex_wake_all(&generation);
        return false;
      }
      futex_wait(&generation, gen, 10'000'000);
    }
    return true;
  }
};

/// Seqlock-published epoch decision: {horizon_ns, done, epoch}. One
/// writer (the barrier's last arriver), many readers. The fields are
/// written with release and read with acquire, so a reader that sees any
/// field of a write in progress also sees its odd sequence number on the
/// re-check; no standalone fences (ThreadSanitizer does not model them).
struct alignas(64) ShmHorizonCell {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::int64_t> horizon_ns{0};
  std::atomic<std::uint32_t> done{0};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::int64_t> global_now_ns{0};  // end-of-run clock reduction

  void publish(std::int64_t horizon, bool is_done, std::uint64_t e) noexcept {
    const std::uint32_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_release);  // odd: write in progress
    horizon_ns.store(horizon, std::memory_order_release);
    done.store(is_done ? 1 : 0, std::memory_order_release);
    epoch.store(e, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

  void read(std::int64_t& horizon, bool& is_done,
            std::uint64_t& e) const noexcept {
    for (;;) {
      const std::uint32_t s0 = seq.load(std::memory_order_acquire);
      if (s0 & 1u) {
        cpu_relax();
        continue;
      }
      horizon = horizon_ns.load(std::memory_order_acquire);
      is_done = done.load(std::memory_order_acquire) != 0;
      e = epoch.load(std::memory_order_acquire);
      if (seq.load(std::memory_order_relaxed) == s0) return;
      cpu_relax();
    }
  }
};

}  // namespace cra::sim
