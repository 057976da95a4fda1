// Discrete-event simulation core.
//
// A single-threaded event scheduler: events are (time, callback) pairs
// executed in non-decreasing time order, FIFO among ties (a strictly
// increasing sequence number breaks them), which makes every run
// deterministic. Protocol agents (sap/, seda/) and the network layer
// (net/) are written against this interface; a million-device SAP round
// schedules a few million events, so both scheduling and dispatch are
// allocation-lean.
//
// Event bookkeeping is hash-free. A pending event's callback waits in a
// slot of a recycled slot table; the time-ordered heap holds only
// (time, seq, slot) entries. Each slot carries a generation, bumped
// whenever the slot is released, and a cancelled flag — so cancel() is
// one index plus a generation compare, and a handle whose event already
// ran (or was dropped) is inert even after its slot has been reused.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cra::sim {

/// Handle for cancelling a scheduled event. Default-constructed handles
/// are inert.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const noexcept { return gen_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(std::uint32_t slot, std::uint32_t gen) noexcept
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // 0 = inert; live generations start at 1
};

class Scheduler {
 public:
  // Small-buffer-optimized: the typical event capture (a network
  // message) stays inline; see sim/callback.hpp.
  using Callback = InlineCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (time of the event being dispatched, or the
  /// last dispatched event once run() returns).
  SimTime now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `at`; throws std::invalid_argument if
  /// `at` is in the simulated past.
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` `delay` after now().
  EventHandle schedule_after(Duration delay, Callback cb);

  /// Cancel a pending event; returns false if it already ran, was already
  /// cancelled, or the handle is inert.
  bool cancel(EventHandle handle);

  /// Run events until the queue is empty. Returns the number dispatched.
  std::size_t run();

  /// Run events with time <= `until` (events after it stay queued; now()
  /// advances to `until`). Returns the number dispatched.
  std::size_t run_until(SimTime until);

  /// Run events with time strictly < `limit`. Unlike run_until(), now()
  /// is NOT dragged to the horizon — it stays at the last dispatched
  /// event — so a later event may still be scheduled anywhere in
  /// [now(), limit). This is the epoch step of the conservative parallel
  /// engine (see sim/parallel.hpp): each shard executes one lookahead
  /// window, and cross-shard messages land exactly at the horizon.
  std::size_t run_before(SimTime limit);

  /// Time of the earliest live (non-cancelled) event, or nullopt when
  /// the queue is empty. Purges cancelled head events as a side effect.
  std::optional<SimTime> peek_next_time();

  /// Dispatch exactly one event if available; returns false on empty.
  bool step();

  /// Drop every pending event, cancelled or not; now() and dispatched()
  /// are untouched, and cancel() on a handle of a dropped event safely
  /// returns false. The multi-process engine uses this to discard a
  /// non-owned shard's local copy of the SPMD setup events — the shard's
  /// owning process runs the authoritative copy (see sim/parallel.cpp).
  void clear_pending() noexcept;

  /// Number of events that would still dispatch: queued events minus
  /// the queued ones flagged cancelled.
  std::size_t pending() const noexcept { return queue_.size() - cancelled_; }

  /// Total events dispatched over the scheduler's lifetime.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  // Heap entries stay small and trivially movable; the callback waits in
  // slots_[slot] until dispatch.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;              // matches live handles only
    std::uint32_t next_free = kNoSlot;  // intrusive free list
    bool cancelled = false;
  };

  bool dispatch_next();
  void purge_cancelled();
  /// Remove the earliest entry from the heap and return it.
  Entry pop_earliest() noexcept;
  std::uint32_t acquire_slot();
  /// Destroy the slot's callback, clear its flag, bump its generation
  /// (stale handles go inert) and put it on the free list.
  void release_slot(std::uint32_t slot) noexcept;

  std::vector<Entry> queue_;  // binary min-heap on (at, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t cancelled_ = 0;  // queued events flagged cancelled
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace cra::sim
