#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace cra::sim {
namespace {

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ms(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_ms(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_ms(20), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_ms(30));
}

TEST(Scheduler, FifoAmongTies) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(SimTime::from_ms(7), [&, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  SimTime inner_seen;
  s.schedule_at(SimTime::from_ms(5), [&] {
    s.schedule_after(Duration::from_ms(10),
                     [&] { inner_seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(inner_seen, SimTime::from_ms(15));
}

TEST(Scheduler, RejectsPastScheduling) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::from_ms(5), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool ran = false;
  const EventHandle h =
      s.schedule_at(SimTime::from_ms(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler s;
  const EventHandle h = s.schedule_at(SimTime::from_ms(1), [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
}

TEST(Scheduler, CancelAfterDispatchFails) {
  Scheduler s;
  const EventHandle h = s.schedule_at(SimTime::from_ms(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(h));
}

TEST(Scheduler, InertHandleCancelFails) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(EventHandle{}));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  int count = 0;
  s.schedule_at(SimTime::from_ms(1), [&] { ++count; });
  s.schedule_at(SimTime::from_ms(2), [&] { ++count; });
  s.schedule_at(SimTime::from_ms(3), [&] { ++count; });
  EXPECT_EQ(s.run_until(SimTime::from_ms(2)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), SimTime::from_ms(2));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunUntilSkipsCancelledHead) {
  Scheduler s;
  bool late_ran = false;
  const EventHandle h = s.schedule_at(SimTime::from_ms(5), [] {});
  s.schedule_at(SimTime::from_ms(20), [&] { late_ran = true; });
  s.cancel(h);
  // The cancelled event at t=5 must not cause the t=20 event to run
  // inside run_until(10).
  EXPECT_EQ(s.run_until(SimTime::from_ms(10)), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), SimTime::from_ms(10));
}

TEST(Scheduler, StepDispatchesOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(SimTime::from_ms(1), [&] { ++count; });
  s.schedule_at(SimTime::from_ms(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      s.schedule_after(Duration::from_us(1), recurse);
    }
  };
  s.schedule_at(SimTime::zero(), recurse);
  EXPECT_EQ(s.run(), 100u);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), SimTime::from_us(99));
}

TEST(Scheduler, DispatchedCounterAccumulates) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(1), [] {});
  s.run();
  s.schedule_at(SimTime::from_ms(2), [] {});
  s.run();
  EXPECT_EQ(s.dispatched(), 2u);
}

TEST(Scheduler, PendingCountsLiveMinusCancelled) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(1), [] {});
  const EventHandle h = s.schedule_at(SimTime::from_ms(2), [] {});
  s.schedule_at(SimTime::from_ms(3), [] {});
  EXPECT_EQ(s.pending(), 3u);
  s.cancel(h);
  EXPECT_EQ(s.pending(), 2u);
}

TEST(Scheduler, PendingNoUnderflowAfterCancelledHeadPurged) {
  // Regression: pending() used to subtract the raw cancelled-id count,
  // which underflowed to a huge value once a cancelled event had been
  // purged from the queue while bookkeeping lagged.
  Scheduler s;
  const EventHandle h = s.schedule_at(SimTime::from_ms(5), [] {});
  s.schedule_at(SimTime::from_ms(20), [] {});
  s.cancel(h);
  s.run_until(SimTime::from_ms(10));  // purges the cancelled head
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, PendingZeroAfterRunConsumesCancellations) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(1), [] {});
  const EventHandle h = s.schedule_at(SimTime::from_ms(2), [] {});
  s.cancel(h);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  s.schedule_at(SimTime::from_ms(9), [] {});
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunBeforeLimitIsExclusive) {
  Scheduler s;
  int count = 0;
  s.schedule_at(SimTime::from_ms(1), [&] { ++count; });
  s.schedule_at(SimTime::from_ms(2), [&] { ++count; });
  s.schedule_at(SimTime::from_ms(3), [&] { ++count; });
  EXPECT_EQ(s.run_before(SimTime::from_ms(3)), 2u);
  EXPECT_EQ(count, 2);
  // Unlike run_until, now() stays at the last dispatched event: a
  // cross-shard arrival may still land anywhere in [now, limit).
  EXPECT_EQ(s.now(), SimTime::from_ms(2));
  EXPECT_NO_THROW(s.schedule_at(SimTime::from_ms(2), [] {}));
  EXPECT_EQ(s.pending(), 2u);
}

TEST(Scheduler, RunBeforeOnEmptyQueueIsNoop) {
  Scheduler s;
  EXPECT_EQ(s.run_before(SimTime::from_ms(100)), 0u);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(Scheduler, PeekNextTimeSkipsCancelled) {
  Scheduler s;
  EXPECT_FALSE(s.peek_next_time().has_value());
  const EventHandle h = s.schedule_at(SimTime::from_ms(5), [] {});
  s.schedule_at(SimTime::from_ms(7), [] {});
  EXPECT_EQ(s.peek_next_time(), SimTime::from_ms(5));
  s.cancel(h);
  EXPECT_EQ(s.peek_next_time(), SimTime::from_ms(7));
}

TEST(Scheduler, StaleHandleInertAfterSlotReuse) {
  // The first event's slot is recycled for the second one; the first
  // handle must not reach (and cancel) its successor.
  Scheduler s;
  const EventHandle first = s.schedule_at(SimTime::from_ms(1), [] {});
  s.run();
  bool second_ran = false;
  s.schedule_at(SimTime::from_ms(2), [&] { second_ran = true; });
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, StaleHandlesInertAfterQuiescentRepack) {
  // A drained queue hands out slots from slot 0 again, so the second
  // wave reuses every slot of the first. No handle of the first wave —
  // run or cancelled — may reach its slot's new event, and the second
  // wave still runs in (time, seq) order.
  Scheduler s;
  std::vector<EventHandle> first;
  for (int i = 0; i < 1'000; ++i) {
    first.push_back(s.schedule_at(SimTime::from_us(1'000 - i), [] {}));
  }
  for (std::size_t i = 0; i < first.size(); i += 3) {
    EXPECT_TRUE(s.cancel(first[i]));
  }
  EXPECT_EQ(s.run(), 666u);
  EXPECT_EQ(s.pending(), 0u);

  std::vector<int> ran;
  for (int i = 0; i < 1'000; ++i) {
    s.schedule_at(s.now() + Duration::from_us(i % 7),
                  [&ran, i] { ran.push_back(i); });
  }
  for (const EventHandle& h : first) EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.pending(), 1'000u);
  EXPECT_EQ(s.run(), 1'000u);
  std::vector<int> want(1'000);
  std::iota(want.begin(), want.end(), 0);
  std::stable_sort(want.begin(), want.end(),
                   [](int a, int b) { return a % 7 < b % 7; });
  EXPECT_EQ(ran, want);
}

// --- Randomized equivalence against a plain reference model ----------

/// Where a model run puts its times. `near(rng, now, span)` draws an
/// event time or a run horizon in [now, now + span] units of the
/// regime; `child(v)` turns a plan's draw into a child's delay.
struct TimeRegime {
  SimTime (*near)(Rng& rng, SimTime now, std::uint64_t span);
  Duration (*child)(std::uint64_t v);
};

/// Near-future milliseconds: many ties, a few distinct times pending.
constexpr TimeRegime kMilliseconds{
    [](Rng& rng, SimTime now, std::uint64_t span) {
      return now + Duration::from_ms(
                       static_cast<std::int64_t>(rng.next_below(span + 1)));
    },
    [](std::uint64_t v) {
      return Duration::from_ms(static_cast<std::int64_t>(v % 3));
    }};

/// At most two distinct times pending, now() and 1 ms later, so buckets
/// grow long and every child lands at now(), behind its parent's bucket.
constexpr TimeRegime kTwoTimes{
    [](Rng& rng, SimTime now, std::uint64_t) {
      return now + Duration::from_ms(
                       static_cast<std::int64_t>(rng.next_below(2)));
    },
    [](std::uint64_t) { return Duration::zero(); }};

/// The smallest stride whose first 16 multiples share the index entry of
/// time zero: times a few strides apart then collide in the index.
Duration colliding_stride() {
  for (std::int64_t d = 1;; ++d) {
    bool shared = true;
    for (std::int64_t j = 1; j <= 16 && shared; ++j) {
      shared = time_index_of(SimTime(j * d)) == time_index_of(SimTime(0));
    }
    if (shared) return Duration::from_ns(d);
  }
}

/// Times spread over nanoseconds: most buckets hold one event. Half the
/// draws fall on a grid of colliding_stride(), so distinct pending times
/// often share an index entry.
constexpr TimeRegime kNanoseconds{
    [](Rng& rng, SimTime now, std::uint64_t span) {
      static const Duration stride = colliding_stride();
      const auto ns = static_cast<std::int64_t>(span) * 1'000'000;
      if (rng.next_below(2) == 0) {
        return now + Duration::from_ns(static_cast<std::int64_t>(
                         rng.next_below(static_cast<std::uint64_t>(ns) + 1)));
      }
      return now + stride * static_cast<std::int64_t>(rng.next_below(
                                static_cast<std::uint64_t>(ns / stride.ns()) +
                                1));
    },
    [](std::uint64_t v) {
      return Duration::from_ns(static_cast<std::int64_t>(v % 3'000'000));
    }};

/// What an event does when it runs: it logs its id and, per a plan
/// drawn from the id alone (so both sides agree), schedules one child.
struct Plan {
  bool spawn;
  Duration child_delay;
};

Plan plan_for(const TimeRegime& regime, std::uint64_t seed,
              std::uint32_t id) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + id);
  const std::uint64_t v = mix.next();
  return {v % 4 == 0, regime.child(v / 4)};
}

/// The reference: pending events in a flat list, dispatch by linear
/// scan for the smallest (time, seq); cancellation removes the event.
class ReferenceScheduler {
 public:
  ReferenceScheduler(const TimeRegime& regime, std::uint64_t seed,
                     std::vector<std::uint32_t>& log)
      : regime_(regime), seed_(seed), log_(log) {}

  SimTime now() const { return now_; }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }
  std::uint32_t issued() const { return next_id_; }
  /// Most events ever pending at one time.
  std::size_t longest_tie() const { return longest_tie_; }
  /// Pushes made while another time sharing their index entry was
  /// pending.
  std::uint64_t index_collisions() const { return index_collisions_; }

  /// Returns the new event's id, or nullopt when `at` is in the past.
  std::optional<std::uint32_t> schedule_at(SimTime at) {
    if (at < now_) return std::nullopt;
    std::size_t tie = 1;
    bool collides = false;
    for (const Event& e : events_) {
      if (e.at == at) ++tie;
      collides |= e.at != at && time_index_of(e.at) == time_index_of(at);
    }
    longest_tie_ = std::max(longest_tie_, tie);
    index_collisions_ += collides;
    events_.push_back({at, next_seq_++, next_id_});
    return next_id_++;
  }
  bool cancel(std::uint32_t id) {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].id == id) {
        events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  std::optional<SimTime> peek_next_time() const {
    const auto i = earliest();
    if (!i) return std::nullopt;
    return events_[*i].at;
  }
  std::size_t run_while(bool (*keep)(SimTime, SimTime), SimTime bound) {
    std::size_t n = 0;
    for (auto i = earliest(); i && keep(events_[*i].at, bound);
         i = earliest()) {
      dispatch(*i);
      ++n;
    }
    return n;
  }
  std::size_t run_until(SimTime until) {
    const std::size_t n = run_while(
        [](SimTime at, SimTime b) { return at <= b; }, until);
    if (now_ < until) now_ = until;
    return n;
  }
  std::size_t run_before(SimTime limit) {
    return run_while([](SimTime at, SimTime b) { return at < b; }, limit);
  }
  std::size_t run() {
    return run_while([](SimTime, SimTime) { return true; }, SimTime::zero());
  }
  bool step() {
    const auto i = earliest();
    if (!i) return false;
    dispatch(*i);
    return true;
  }
  void clear_pending() { events_.clear(); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t id;
  };

  std::optional<std::size_t> earliest() const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (!best || e.at < events_[*best].at ||
          (e.at == events_[*best].at && e.seq < events_[*best].seq)) {
        best = i;
      }
    }
    return best;
  }
  void dispatch(std::size_t i) {
    const Event e = events_[i];
    events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(i));
    now_ = e.at;
    ++dispatched_;
    log_.push_back(e.id);
    const Plan plan = plan_for(regime_, seed_, e.id);
    if (plan.spawn) schedule_at(now_ + plan.child_delay);
  }

  const TimeRegime& regime_;
  std::uint64_t seed_;
  std::vector<std::uint32_t>& log_;
  std::vector<Event> events_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint32_t next_id_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t longest_tie_ = 0;
  std::uint64_t index_collisions_ = 0;
};

/// The scheduler under test, driven with the same ids and plans.
class Subject {
 public:
  Subject(const TimeRegime& regime, std::uint64_t seed,
          std::vector<std::uint32_t>& log)
      : regime_(regime), seed_(seed), log_(log) {}

  Scheduler& sched() { return s_; }

  std::optional<std::uint32_t> schedule_at(SimTime at) {
    const std::uint32_t id = static_cast<std::uint32_t>(handles_.size());
    try {
      handles_.push_back(s_.schedule_at(at, [this, id] { ran(id); }));
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
    return id;
  }
  bool cancel(std::uint32_t id) { return s_.cancel(handles_.at(id)); }

 private:
  void ran(std::uint32_t id) {
    log_.push_back(id);
    const Plan plan = plan_for(regime_, seed_, id);
    if (plan.spawn) schedule_at(s_.now() + plan.child_delay);
  }

  const TimeRegime& regime_;
  std::uint64_t seed_;
  std::vector<std::uint32_t>& log_;
  Scheduler s_;
  std::vector<EventHandle> handles_;  // index = event id
};

/// What the reference model saw over every seed of one regime.
struct ModelStats {
  std::size_t longest_tie = 0;
  std::uint64_t index_collisions = 0;
};

/// Drive the scheduler and the reference model with one seeded stream of
/// random operations, times drawn per `regime`, and compare every
/// dispatch, every cancel result, pending(), now() and dispatched().
/// `stats` gathers what the model saw.
void expect_matches_reference_model(const TimeRegime& regime,
                                    ModelStats& stats) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<std::uint32_t> want_log, got_log;
    ReferenceScheduler ref(regime, seed, want_log);
    Subject sub(regime, seed, got_log);
    Scheduler& s = sub.sched();
    Rng rng(seed);
    std::uint64_t stale_cancels = 0;
    std::uint64_t drains = 0;  // ops that left no event pending
    auto near = [&](std::uint64_t span) {
      return regime.near(rng, ref.now(), span);
    };
    for (int op = 0; op < 4'000; ++op) {
      const std::size_t queued = ref.pending();
      const std::uint64_t pick = rng.next_below(100);
      if (pick < 40) {
        // Near-future times; 1 in 16 in the past.
        SimTime at = near(5);
        if (rng.next_below(16) == 0 && ref.now() > SimTime::zero()) {
          at = ref.now() - Duration::from_ms(1);
        }
        const auto want = ref.schedule_at(at);
        ASSERT_EQ(sub.schedule_at(at), want) << "op " << op;
      } else if (pick < 62) {
        if (ref.issued() == 0) continue;
        // Any id ever issued: live, cancelled, dispatched or dropped —
        // most of the latter have had their slots reused since.
        const auto id =
            static_cast<std::uint32_t>(rng.next_below(ref.issued()));
        const bool want = ref.cancel(id);
        ASSERT_EQ(sub.cancel(id), want) << "op " << op << " id " << id;
        if (!want) ++stale_cancels;
      } else if (pick < 72) {
        const SimTime limit = near(4);
        ASSERT_EQ(s.run_before(limit), ref.run_before(limit)) << "op " << op;
      } else if (pick < 80) {
        const SimTime until = near(4);
        ASSERT_EQ(s.run_until(until), ref.run_until(until)) << "op " << op;
      } else if (pick < 86) {
        ASSERT_EQ(s.peek_next_time(), ref.peek_next_time()) << "op " << op;
      } else if (pick < 90) {
        ASSERT_EQ(s.step(), ref.step()) << "op " << op;
      } else if (pick < 93) {
        s.clear_pending();
        ref.clear_pending();
      } else {
        ASSERT_EQ(s.run(), ref.run()) << "op " << op;
      }
      if (queued != 0 && ref.pending() == 0) ++drains;
      ASSERT_EQ(got_log, want_log) << "op " << op;
      ASSERT_EQ(s.pending(), ref.pending()) << "op " << op;
      ASSERT_EQ(s.now(), ref.now()) << "op " << op;
      ASSERT_EQ(s.dispatched(), ref.dispatched()) << "op " << op;
    }
    EXPECT_GT(want_log.size(), 500u);
    EXPECT_GT(stale_cancels, 100u);
    EXPECT_GT(drains, 300u);
    stats.longest_tie = std::max(stats.longest_tie, ref.longest_tie());
    stats.index_collisions += ref.index_collisions();
  }
}

TEST(Scheduler, MatchesReferenceModelUnderRandomOperations) {
  ModelStats stats;
  expect_matches_reference_model(kMilliseconds, stats);
}

TEST(Scheduler, MatchesReferenceModelWithTwoPendingTimes) {
  ModelStats stats;
  expect_matches_reference_model(kTwoTimes, stats);
  EXPECT_GE(stats.longest_tie, 12u);  // 7 with kMilliseconds
}

TEST(Scheduler, MatchesReferenceModelWithNanosecondTimes) {
  ModelStats stats;
  expect_matches_reference_model(kNanoseconds, stats);
  EXPECT_LE(stats.longest_tie, 3u);
  EXPECT_GT(stats.index_collisions, 500u);  // 0 with kMilliseconds
}

TEST(Scheduler, BucketsKeepTimeThenPushOrder) {
  // An event scheduled at now() by the last event of now()'s bucket, and
  // by an earlier one, runs before anything later.
  {
    Scheduler s;
    std::vector<int> order;
    const SimTime t = SimTime::from_us(5);
    s.schedule_at(t + Duration::from_ns(1), [&] { order.push_back(9); });
    s.schedule_at(t, [&] {
      order.push_back(1);
      s.schedule_at(s.now(), [&] { order.push_back(3); });
    });
    s.schedule_at(t, [&] {
      order.push_back(2);
      s.schedule_at(s.now(), [&] {
        order.push_back(4);
        s.schedule_at(s.now(), [&] { order.push_back(5); });
      });
    });
    EXPECT_EQ(s.run(), 6u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 9}));
  }
  // Two distinct times that share an index entry: alternating pushes
  // each open a new bucket, so each time gets many buckets, and those
  // must still dispatch in (time, push) order.
  const SimTime t1 = SimTime::from_us(7);
  SimTime t2 = t1 + Duration::from_ns(1);
  while (time_index_of(t2) != time_index_of(t1)) t2 += Duration::from_ns(1);
  for (const bool later_first : {false, true}) {
    SCOPED_TRACE(later_first ? "t2 pushed first" : "t1 pushed first");
    Scheduler s;
    std::vector<int> ran;
    std::vector<int> want_t1, want_t2;
    for (int i = 0; i < 400; ++i) {
      const bool at_t1 = (i % 2 == 0) != later_first;
      s.schedule_at(at_t1 ? t1 : t2, [&ran, i] { ran.push_back(i); });
      (at_t1 ? want_t1 : want_t2).push_back(i);
    }
    // Half of t1's events run; later pushes at t1 (now()) must queue
    // behind the other half, spread over buckets opened before them.
    for (int k = 0; k < 100; ++k) ASSERT_TRUE(s.step());
    EXPECT_EQ(s.now(), t1);
    for (int i = 400; i < 600; ++i) {
      const bool at_t1 = i % 2 == 0;
      s.schedule_at(at_t1 ? t1 : t2, [&ran, i] { ran.push_back(i); });
      (at_t1 ? want_t1 : want_t2).push_back(i);
    }
    EXPECT_EQ(s.run(), 500u);
    std::vector<int> want = want_t1;
    want.insert(want.end(), want_t2.begin(), want_t2.end());
    EXPECT_EQ(ran, want);
  }
}

}  // namespace
}  // namespace cra::sim
