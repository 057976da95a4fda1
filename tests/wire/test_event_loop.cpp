// TimerQueue under a hand-rolled clock (the queue is clock-agnostic,
// so every schedule/cancel/re-arm behaviour is testable with plain
// integers), then EventLoop against real fds: pipe IO dispatch, timers
// on the monotonic clock, the wakeup hook, and cross-thread stop().
#include "wire/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <numeric>
#include <thread>
#include <vector>

namespace cra::wire {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

TEST(TimerQueue, FiresAtDeadlineNotBefore) {
  TimerQueue timers;
  int fired = 0;
  timers.schedule(10 * kMs, [&] { ++fired; });
  EXPECT_EQ(timers.advance(9 * kMs), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.advance(10 * kMs), 1u);
  EXPECT_EQ(fired, 1);
  // One-shot: advancing further never re-fires.
  EXPECT_EQ(timers.advance(500 * kMs), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueue, PastDeadlineFiresOnNextAdvance) {
  TimerQueue timers;
  (void)timers.advance(50 * kMs);
  int fired = 0;
  timers.schedule(1 * kMs, [&] { ++fired; });  // already in the past
  EXPECT_EQ(timers.advance(50 * kMs), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue timers;
  int fired = 0;
  const auto id = timers.schedule(5 * kMs, [&] { ++fired; });
  EXPECT_EQ(timers.pending(), 1u);
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_EQ(timers.pending(), 0u);
  EXPECT_FALSE(timers.cancel(id));  // second cancel: already gone
  EXPECT_EQ(timers.advance(100 * kMs), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(TimerQueue, CancelAfterFireReturnsFalse) {
  TimerQueue timers;
  const auto id = timers.schedule(2 * kMs, [] {});
  EXPECT_EQ(timers.advance(2 * kMs), 1u);
  EXPECT_FALSE(timers.cancel(id));
}

TEST(TimerQueue, CallbackMayRearmItself) {
  TimerQueue timers;
  // The adaptive re-poll pattern: each firing schedules the next step.
  std::vector<std::uint64_t> fire_times;
  std::uint64_t next_delay = 25 * kMs;
  std::function<void()> rearm;
  std::uint64_t now = 0;
  rearm = [&] {
    fire_times.push_back(now);
    if (fire_times.size() < 4) {
      next_delay *= 2;
      timers.schedule(now + next_delay, rearm);
    }
  };
  timers.schedule(25 * kMs, rearm);
  for (now = 0; now <= 1000 * kMs; now += kMs) timers.advance(now);
  ASSERT_EQ(fire_times.size(), 4u);
  EXPECT_EQ(fire_times[0], 25 * kMs);
  EXPECT_EQ(fire_times[1], 75 * kMs);   // +50
  EXPECT_EQ(fire_times[2], 175 * kMs);  // +100
  EXPECT_EQ(fire_times[3], 375 * kMs);  // +200
}

TEST(TimerQueue, FarDeadlineFiresOnlyWhenDue) {
  // A deadline far beyond the ones around it waits through every
  // earlier advance and fires on the first one that reaches it.
  TimerQueue timers;
  int fired = 0;
  timers.schedule(300 * kMs, [&] { ++fired; });
  for (std::uint64_t t = 0; t < 300; ++t) {
    timers.advance(t * kMs);
    ASSERT_EQ(fired, 0) << "fired early at t=" << t << "ms";
  }
  timers.advance(300 * kMs);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueue, NextDeadlineTracksEarliestPending) {
  TimerQueue timers;
  EXPECT_EQ(timers.next_deadline(), UINT64_MAX);
  timers.schedule(40 * kMs, [] {});
  const auto early = timers.schedule(10 * kMs, [] {});
  EXPECT_LE(timers.next_deadline(), 10 * kMs);
  EXPECT_GT(timers.next_deadline(), 0u);
  timers.cancel(early);
  const std::uint64_t after = timers.next_deadline();
  EXPECT_GT(after, 10 * kMs);
  EXPECT_LE(after, 40 * kMs);
  timers.advance(40 * kMs);
  EXPECT_EQ(timers.next_deadline(), UINT64_MAX);
}

TEST(TimerQueue, ManyTimersOneDeadlineFireTogether) {
  TimerQueue timers;
  std::vector<int> order;
  // One deadline, all due at once, in the order they were armed.
  for (int i = 0; i < 1000; ++i) {
    timers.schedule(7 * kMs, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(timers.pending(), 1000u);
  EXPECT_EQ(timers.advance(7 * kMs), 1000u);
  std::vector<int> armed(1000);
  std::iota(armed.begin(), armed.end(), 0);
  EXPECT_EQ(order, armed);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, IdsAreNeverReusedOrZero) {
  TimerQueue timers;
  std::vector<TimerQueue::TimerId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(timers.schedule(kMs, [] {}));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 0u);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
}

TEST(TimerQueue, EarliestFirstAndDueArmsFireInTheSameAdvance) {
  TimerQueue timers;
  std::vector<int> order;
  timers.schedule(30 * kMs, [&] { order.push_back(3); });
  timers.schedule(10 * kMs, [&] {
    order.push_back(1);
    // Armed by a callback and already due: fires before this advance
    // returns, ahead of the later deadline.
    timers.schedule(5 * kMs, [&] { order.push_back(2); });
  });
  EXPECT_EQ(timers.advance(30 * kMs), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
};

TEST(EventLoop, DispatchesReadableFd) {
  EventLoop loop;
  Pipe pipe;
  std::string got;
  loop.add_fd(pipe.reader(), EPOLLIN, [&](std::uint32_t events) {
    EXPECT_TRUE(events & EPOLLIN);
    char buf[16];
    const ssize_t n = ::read(pipe.reader(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    got.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  ASSERT_EQ(::write(pipe.writer(), "ping", 4), 4);
  loop.run();
  EXPECT_EQ(got, "ping");
}

TEST(EventLoop, TimerFiresAfterDelay) {
  EventLoop loop;
  const std::uint64_t t0 = monotonic_ns();
  std::uint64_t fired_at = 0;
  loop.schedule_after(5'000'000, [&] {  // 5 ms
    fired_at = monotonic_ns();
    loop.stop();
  });
  loop.run();
  ASSERT_NE(fired_at, 0u);
  // Never early; epoll_wait's 1 ms timeout granularity plus scheduling
  // jitter bounds lateness loosely.
  EXPECT_GE(fired_at - t0, 4'000'000u);
  EXPECT_LT(fired_at - t0, 500'000'000u);
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool cancelled_fired = false;
  const auto id = loop.schedule_after(1'000'000,
                                      [&] { cancelled_fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.schedule_after(10'000'000, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(cancelled_fired);
}

TEST(EventLoop, StopFromAnotherThreadWakesIdleLoop) {
  // No fds, no timers: the loop would sleep in epoll_wait forever
  // without the eventfd poke.
  EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  loop.run();  // must return promptly after stop()
  stopper.join();
  EXPECT_FALSE(loop.running());
}

TEST(EventLoop, WakeupHookRunsBeforeDispatch) {
  EventLoop loop;
  Pipe pipe;
  std::vector<int> order;
  loop.set_wakeup_hook([&] {
    if (order.empty()) order.push_back(1);
  });
  loop.add_fd(pipe.reader(), EPOLLIN, [&](std::uint32_t) {
    char buf[8];
    (void)::read(pipe.reader(), buf, sizeof buf);
    order.push_back(2);
    loop.stop();
  });
  ASSERT_EQ(::write(pipe.writer(), "x", 1), 1);
  loop.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // hook saw the iteration before the IO
  EXPECT_EQ(order[1], 2);
}

TEST(EventLoop, RemoveFdStopsDispatch) {
  EventLoop loop;
  Pipe pipe;
  int calls = 0;
  loop.add_fd(pipe.reader(), EPOLLIN, [&](std::uint32_t) {
    ++calls;
    char buf[8];
    (void)::read(pipe.reader(), buf, sizeof buf);
    loop.remove_fd(pipe.reader());
    // New data on the removed fd must not dispatch; a timer ends the
    // test instead.
    ASSERT_EQ(::write(pipe.writer(), "y", 1), 1);
    loop.schedule_after(10'000'000, [&] { loop.stop(); });
  });
  ASSERT_EQ(::write(pipe.writer(), "x", 1), 1);
  loop.run();
  EXPECT_EQ(calls, 1);
}

TEST(EventLoop, NowNsIsMonotonicAcrossCallbacks) {
  EventLoop loop;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  // The second timer is armed from the first one's callback, so it is
  // due after this iteration's now and fires in a later iteration, even
  // when a stalled loop thread finds both delays elapsed at once.
  loop.schedule_after(1'000'000, [&] {
    first = loop.now_ns();
    loop.schedule_after(7'000'000, [&] {
      second = loop.now_ns();
      loop.stop();
    });
  });
  loop.run();
  ASSERT_NE(first, 0u);
  EXPECT_GT(second, first);
}

}  // namespace
}  // namespace cra::wire
