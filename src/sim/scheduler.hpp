// Discrete-event simulation core.
//
// A single-threaded event scheduler: events are (time, callback) pairs
// executed in non-decreasing time order, FIFO among ties (push order
// breaks them), which makes every run deterministic. Protocol agents
// (sap/, seda/) and the network layer (net/) are written against this
// interface; a million-device SAP round schedules a few million events,
// so both scheduling and dispatch are allocation-lean.
//
// Event bookkeeping allocates nothing per event. A pending event's
// callback waits in a slot of a recycled slot table. Each slot carries a
// generation, bumped whenever the slot is released, and a cancelled flag
// — so cancel() is one index plus a generation compare, and a handle
// whose event already ran (or was dropped) is inert even after its slot
// has been reused.
//
// Pending events wait in one FIFO ("bucket") per pending timestamp,
// linked through their slots' free-list field, which a queued slot does
// not use. SAP's attestation instant and PADS's epochs put nearly every
// event on a time that already has events pending, so a push is an
// append and a pop takes the head of the front bucket; only opening and
// draining a bucket touch the min-heap that orders the buckets by
// (time, opening order). A heap entry holds its bucket's head. A push
// finds the tail of its time's newest bucket in a fixed direct-mapped
// index keyed by time. On a miss — a new time, or two pending times that
// share an index entry — it opens a new bucket, and the index forgets
// the older one: that bucket takes no more events, so every event in it
// precedes every event of a newer bucket of the same time, and ordering
// equal times by opening order keeps dispatch in exact (time, push)
// order.
//
// Slots are handed out in slot order again whenever the queue drains:
// at that point every slot is free, so the free list is dropped and a
// fresh-slot cursor restarts at slot 0. A LIFO free list alone would
// scatter each round's callbacks further across the table, round after
// round. Generations are never reset, so a stale handle stays inert.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cra::sim {

/// Scheduler's bucket index has 2^kTimeIndexBits entries, and events at
/// `at` share entry time_index_of(at). Public so that tests can pick
/// distinct times that collide in the index.
inline constexpr unsigned kTimeIndexBits = 12;
constexpr std::size_t time_index_of(SimTime at) noexcept {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(at.ns()) * 0x9E3779B97F4A7C15ULL) >>
      (64 - kTimeIndexBits));
}

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
  std::size_t pending() const noexcept { return queued_ - cancelled_; }

  /// Total events dispatched over the scheduler's lifetime.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;  // matches live handles only
    // The free list while the slot is free; the next event of its
    // bucket while it is queued.
    std::uint32_t next_free = kNoSlot;
    bool cancelled = false;
  };
  // One open bucket. Heap entries stay small and trivially movable; only
  // the front entry's head changes while it is in the heap.
  struct Bucket {
    SimTime at;
    std::uint64_t seq;   // opening order
    std::uint32_t head;  // oldest event
  };
  struct Later {
    bool operator()(const Bucket& a, const Bucket& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // Time and tail of the newest bucket opened at one index entry; a time
  // no event can have (times are never negative) marks an empty entry.
  struct Newest {
    SimTime at{-1};
    std::uint32_t tail = kNoSlot;
  };

  Newest& newest_for(SimTime at) noexcept {
    return index_[time_index_of(at)];
  }
  bool dispatch_next();
  void purge_cancelled();
  /// Unlink the front bucket's oldest event and return its slot; a
  /// drained bucket leaves the heap and the index.
  std::uint32_t pop_earliest() noexcept;
  std::uint32_t acquire_slot();
  /// Destroy the slot's callback, clear its flag, bump its generation
  /// (stale handles go inert) and put it on the free list; once the
  /// queue is empty, restart the fresh-slot cursor at slot 0 instead.
  void release_slot(std::uint32_t slot) noexcept;

  std::vector<Bucket> heap_;  // binary min-heap on (at, seq)
  std::vector<Newest> index_ =
      std::vector<Newest>(std::size_t{1} << kTimeIndexBits);
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  // Slots at and above the cursor are free and on no list.
  std::uint32_t fresh_ = 0;
  std::size_t queued_ = 0;     // events in buckets, cancelled included
  std::size_t cancelled_ = 0;  // queued events flagged cancelled
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace cra::sim
