#include "wire/event_loop.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <system_error>
#include <vector>

namespace cra::wire {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  add_fd(wake_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t drain = 0;
    while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
    }
  });
  now_ns_ = monotonic_ns();
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD)");
  }
  io_[fd] = std::make_shared<IoCallback>(std::move(cb));
}

void EventLoop::remove_fd(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  io_.erase(fd);
}

TimerQueue::TimerId TimerQueue::schedule(std::uint64_t deadline_ns,
                                         Callback cb) {
  const TimerId id = next_id_++;
  timers_.emplace(deadline_ns, Timer{id, std::move(cb)});
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.id == id) {
      timers_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t TimerQueue::advance(std::uint64_t now_ns) {
  std::size_t fired = 0;
  // Re-read the front each time: a callback may arm or cancel timers,
  // and erasing before the call keeps cancel() of a running id false.
  while (!timers_.empty() && timers_.begin()->first <= now_ns) {
    const Callback cb = std::move(timers_.begin()->second.cb);
    timers_.erase(timers_.begin());
    ++fired;
    cb();
  }
  return fired;
}

std::uint64_t TimerQueue::next_deadline() const noexcept {
  return timers_.empty() ? std::numeric_limits<std::uint64_t>::max()
                         : timers_.begin()->first;
}

TimerQueue::TimerId EventLoop::schedule_after(std::uint64_t delay_ns,
                                              TimerQueue::Callback cb) {
  return timers_.schedule(now_ns_ + delay_ns, std::move(cb));
}

void EventLoop::run() {
  running_ = true;
  stop_requested_ = false;
  std::vector<epoll_event> events(64);
  while (!stop_requested_) {
    now_ns_ = monotonic_ns();
    const std::uint64_t deadline = timers_.next_deadline();
    int timeout_ms = -1;  // idle: sleep until IO or a stop() poke
    if (deadline != std::numeric_limits<std::uint64_t>::max()) {
      const std::uint64_t gap = deadline > now_ns_ ? deadline - now_ns_ : 0;
      // Round up so we never spin on a deadline under 1 ms away; cap to
      // keep the loop responsive to timers armed from other callbacks'
      // perspective.
      timeout_ms = static_cast<int>(
          std::min<std::uint64_t>((gap + 999'999) / 1'000'000, 1000));
    }

    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) throw_errno("epoll_wait");

    now_ns_ = monotonic_ns();
    if (wakeup_hook_) wakeup_hook_();

    for (int i = 0; i < std::max(n, 0); ++i) {
      const auto it = io_.find(events[static_cast<std::size_t>(i)].data.fd);
      if (it != io_.end()) {
        // Pin the handler for the duration of the call: a callback that
        // remove_fd()s its own fd erases the map entry, and destroying a
        // std::function mid-execution frees the closure under our feet.
        const std::shared_ptr<IoCallback> cb = it->second;
        (*cb)(events[static_cast<std::size_t>(i)].events);
      }
    }
    timers_.advance(now_ns_);

    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
  running_ = false;
}

void EventLoop::stop() noexcept {
  stop_requested_ = true;
  const std::uint64_t one = 1;
  // Poke a possibly sleeping epoll_wait; best effort by design.
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace cra::wire
