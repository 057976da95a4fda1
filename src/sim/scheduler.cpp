#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace cra::sim {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  if (at < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.next_free = kNoSlot;
  Newest& newest = newest_for(at);
  if (newest.at == at) {
    slots_[newest.tail].next_free = slot;
  } else {
    heap_.push_back(Bucket{at, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    newest.at = at;
  }
  newest.tail = slot;
  ++queued_;
  return EventHandle(slot, s.gen);
}

EventHandle Scheduler::schedule_after(Duration delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  Slot& s = slots_[handle.slot_];
  if (s.gen != handle.gen_ || s.cancelled) return false;
  s.cancelled = true;
  ++cancelled_;
  return true;
}

std::uint32_t Scheduler::pop_earliest() noexcept {
  Bucket& front = heap_.front();
  const std::uint32_t slot = front.head;
  front.head = slots_[slot].next_free;
  --queued_;
  if (front.head == kNoSlot) {
    // The slot was the tail, so the index still names this bucket only
    // if it names that slot at this time.
    Newest& newest = newest_for(front.at);
    if (newest.at == front.at && newest.tail == slot) newest = Newest{};
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return slot;
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  if (fresh_ == slots_.size()) slots_.emplace_back();
  return fresh_++;
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.cb = Callback();
  if (s.cancelled) {
    s.cancelled = false;
    --cancelled_;
  }
  if (++s.gen == 0) s.gen = 1;  // 0 marks the inert handle
  if (queued_ == 0) {
    // Quiescence: no slot is in use, so drop the free list.
    free_head_ = kNoSlot;
    fresh_ = 0;
    return;
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::dispatch_next() {
  while (!heap_.empty()) {
    const SimTime at = heap_.front().at;
    const std::uint32_t slot = pop_earliest();
    const bool cancelled = slots_[slot].cancelled;
    // Move the callback out before releasing the slot: the callback may
    // schedule events that reuse the slot or grow the table.
    Callback cb = std::move(slots_[slot].cb);
    release_slot(slot);
    if (cancelled) continue;
    now_ = at;
    ++dispatched_;
    cb();
    return true;
  }
  return false;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (dispatch_next()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime until) {
  std::size_t n = 0;
  purge_cancelled();
  while (!heap_.empty() && heap_.front().at <= until) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  if (now_ < until) now_ = until;
  return n;
}

std::size_t Scheduler::run_before(SimTime limit) {
  std::size_t n = 0;
  purge_cancelled();
  while (!heap_.empty() && heap_.front().at < limit) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  return n;
}

std::optional<SimTime> Scheduler::peek_next_time() {
  purge_cancelled();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

void Scheduler::purge_cancelled() {
  while (!heap_.empty() && slots_[heap_.front().head].cancelled) {
    release_slot(pop_earliest());
  }
}

bool Scheduler::step() { return dispatch_next(); }

void Scheduler::clear_pending() noexcept {
  for (const Bucket& b : heap_) {
    newest_for(b.at) = Newest{};
    for (std::uint32_t slot = b.head; slot != kNoSlot;) {
      // Read the link first: the release reuses it for the free list.
      const std::uint32_t next = slots_[slot].next_free;
      --queued_;
      release_slot(slot);
      slot = next;
    }
  }
  heap_.clear();
}

}  // namespace cra::sim
