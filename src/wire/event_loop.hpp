// Single-threaded epoll event loop and its timer queue.
//
// The daemon and the agent are both one loop around three sources:
// readable sockets, a deadline-ordered timer queue (round periods, the
// adaptive re-poll ladder, hello retries, shaper-delayed datagrams), and
// out-of-band pokes (a signal's EINTR, or a cross-thread stop() through
// an eventfd). The loop computes its epoll_wait timeout from the queue's
// earliest deadline, so an idle daemon sleeps in the kernel instead of
// spinning.
//
// Threading: everything except stop() must be called from the loop
// thread. stop() is safe from any thread and from signal handlers'
// perspective unnecessary — signals interrupt epoll_wait on their own
// and the wakeup hook runs on every iteration.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

namespace cra::wire {

/// CLOCK_MONOTONIC in nanoseconds.
std::uint64_t monotonic_ns() noexcept;

/// One-shot timers ordered by absolute deadline. The wire loops hold
/// few at once (a daemon: its period tick and one re-poll; an agent:
/// its hello retry plus one per shaper-delayed datagram), so schedule
/// is O(log n), next_deadline O(1), and cancel scans the live entries.
/// Clock-agnostic: the event loop feeds it CLOCK_MONOTONIC, the unit
/// tests a hand-rolled clock.
class TimerQueue {
 public:
  using Callback = std::function<void()>;
  /// 0 is never a live timer id.
  using TimerId = std::uint64_t;

  /// Arm a timer for absolute time `deadline_ns`. Deadlines in the past
  /// fire on the next advance().
  TimerId schedule(std::uint64_t deadline_ns, Callback cb);

  /// Disarm. Returns false if the id already fired or was cancelled.
  bool cancel(TimerId id);

  /// Fire every timer with deadline <= now_ns, earliest first and ties
  /// in arming order. Returns the number fired. Callbacks may freely
  /// schedule() and cancel(), including re-arming themselves; a timer a
  /// callback arms already due fires in this same call.
  std::size_t advance(std::uint64_t now_ns);

  /// Earliest pending deadline, or UINT64_MAX when idle — the event
  /// loop's epoll_wait timeout.
  std::uint64_t next_deadline() const noexcept;

  std::size_t pending() const noexcept { return timers_.size(); }

 private:
  struct Timer {
    TimerId id = 0;
    Callback cb;
  };

  // Equal keys keep insertion order, which gives ties their arming order.
  std::multimap<std::uint64_t, Timer> timers_;
  TimerId next_id_ = 1;
};

class EventLoop {
 public:
  using IoCallback = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watch `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback runs
  /// on the loop thread with the ready event mask.
  void add_fd(int fd, std::uint32_t events, IoCallback cb);
  void remove_fd(int fd);

  /// Arm a one-shot timer `delay_ns` from now.
  TimerQueue::TimerId schedule_after(std::uint64_t delay_ns,
                                     TimerQueue::Callback cb);
  bool cancel(TimerQueue::TimerId id) { return timers_.cancel(id); }

  /// Hook invoked once per loop iteration, after epoll_wait returns
  /// (including EINTR returns) and before IO/timer dispatch — the place
  /// to check the flags signal handlers set.
  void set_wakeup_hook(std::function<void()> hook) {
    wakeup_hook_ = std::move(hook);
  }

  /// Run until stop(). Dispatch order per iteration: wakeup hook, IO
  /// callbacks, due timers.
  void run();

  /// End run() after the current iteration. Callable from any thread
  /// (writes an eventfd to interrupt a sleeping epoll_wait).
  void stop() noexcept;

  bool running() const noexcept { return running_; }

  /// Monotonic now, cached once per loop iteration so a burst of
  /// callbacks sees one consistent timestamp.
  std::uint64_t now_ns() const noexcept { return now_ns_; }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd for cross-thread stop()
  // shared_ptr so a handler that remove_fd()s itself mid-dispatch is
  // kept alive until its invocation returns.
  std::unordered_map<int, std::shared_ptr<IoCallback>> io_;
  TimerQueue timers_;
  std::function<void()> wakeup_hook_;
  std::uint64_t now_ns_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace cra::wire
