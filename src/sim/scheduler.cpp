#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace cra::sim {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  if (at < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  queue_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return EventHandle(slot, slots_[slot].gen);
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

Scheduler::Entry Scheduler::pop_earliest() noexcept {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Entry e = queue_.back();
  queue_.pop_back();
  return e;
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.cb = Callback();
  if (s.cancelled) {
    s.cancelled = false;
    --cancelled_;
  }
  if (++s.gen == 0) s.gen = 1;  // 0 marks the inert handle
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::dispatch_next() {
  while (!queue_.empty()) {
    const Entry e = pop_earliest();
    const bool cancelled = slots_[e.slot].cancelled;
    // Move the callback out before releasing the slot: the callback may
    // schedule events that reuse the slot or grow the table.
    Callback cb = std::move(slots_[e.slot].cb);
    release_slot(e.slot);
    if (cancelled) continue;
    now_ = e.at;
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
  while (!queue_.empty() && queue_.front().at <= until) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  if (now_ < until) now_ = until;
  return n;
}

std::size_t Scheduler::run_before(SimTime limit) {
  std::size_t n = 0;
  purge_cancelled();
  while (!queue_.empty() && queue_.front().at < limit) {
    if (dispatch_next()) ++n;
    purge_cancelled();
  }
  return n;
}

std::optional<SimTime> Scheduler::peek_next_time() {
  purge_cancelled();
  if (queue_.empty()) return std::nullopt;
  return queue_.front().at;
}

void Scheduler::purge_cancelled() {
  while (!queue_.empty() && slots_[queue_.front().slot].cancelled) {
    release_slot(pop_earliest().slot);
  }
}

bool Scheduler::step() { return dispatch_next(); }

void Scheduler::clear_pending() noexcept {
  for (const Entry& e : queue_) release_slot(e.slot);
  queue_.clear();
}

}  // namespace cra::sim
