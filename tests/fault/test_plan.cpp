// FaultPlan: ordering, pairing, text round-trip, and the churn
// generator's purity (same seed + tree + profile => identical plan).
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "../common/fuzz_mutate.hpp"

namespace cra::fault {
namespace {

using sim::Duration;
using sim::SimTime;

TEST(FaultPlan, EventsSortedByTimeThenInsertion) {
  FaultPlan plan;
  plan.crash(SimTime::from_ms(30), 5)
      .reboot(SimTime::from_ms(10), 5)
      .sleep(SimTime::from_ms(10), 7)  // same time: insertion order wins
      .wake(SimTime::from_ms(20), 7);
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, FaultKind::kReboot);
  EXPECT_EQ(ev[1].kind, FaultKind::kSleep);
  EXPECT_EQ(ev[2].kind, FaultKind::kWake);
  EXPECT_EQ(ev[3].kind, FaultKind::kCrash);
}

TEST(FaultPlan, PairedBuildersEmitBothHalves) {
  FaultPlan plan;
  plan.crash_for(SimTime::from_ms(100), 3, Duration::from_ms(50));
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, FaultKind::kCrash);
  EXPECT_EQ(ev[0].device, 3u);
  EXPECT_EQ(ev[0].duration.ms(), 50.0);  // span length for tracing
  EXPECT_EQ(ev[1].kind, FaultKind::kReboot);
  EXPECT_EQ(ev[1].at, SimTime::from_ms(150));
}

TEST(FaultPlan, PartitionSubtreeCutsWholeSubtree) {
  // Balanced binary tree over 14 devices: node 1's subtree is
  // {1,3,4,7,8,9,10} in heap layout.
  const net::Tree tree = net::balanced_kary_tree(14, 2);
  const auto sub = subtree_positions(tree, 1);
  EXPECT_EQ(sub, (std::vector<net::NodeId>{1, 3, 4, 7, 8, 9, 10}));

  FaultPlan plan;
  plan.partition_subtree(SimTime::from_ms(10), tree, 1, Duration::from_ms(5));
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, FaultKind::kPartition);
  EXPECT_EQ(ev[0].island, sub);
  EXPECT_EQ(ev[1].kind, FaultKind::kHeal);
  EXPECT_EQ(ev[1].island, sub);
}

TEST(FaultPlan, EveryEventCarriesAFreshDraw) {
  FaultPlan plan(42);
  plan.loss_spike(SimTime::from_ms(1), 0.3)
      .loss_clear(SimTime::from_ms(2))
      .crash(SimTime::from_ms(3), 1);
  const auto& ev = plan.events();
  // Draws come from a SplitMix64 stream: nonzero and pairwise distinct
  // (astronomically unlikely otherwise).
  EXPECT_NE(ev[0].draw, 0u);
  EXPECT_NE(ev[0].draw, ev[1].draw);
  EXPECT_NE(ev[1].draw, ev[2].draw);

  FaultPlan again(42);
  again.loss_spike(SimTime::from_ms(1), 0.3)
      .loss_clear(SimTime::from_ms(2))
      .crash(SimTime::from_ms(3), 1);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].draw, again.events()[i].draw) << i;
  }
}

/// parse(format(p)) must give p's events back: time, kind, device,
/// peer, island (the text lists it ascending), the rate bit for bit,
/// skew and the span `duration` (the paired builders' and proc-kill's
/// downtime). The text form has no pre-drawn `draw`.
void expect_text_round_trip(const FaultPlan& p) {
  const std::string text = p.format();
  const FaultPlan q = FaultPlan::parse(text);
  ASSERT_EQ(q.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const FaultEvent& a = p.events()[i];
    const FaultEvent& b = q.events()[i];
    std::vector<net::NodeId> island = a.island;
    std::sort(island.begin(), island.end());
    EXPECT_EQ(a.at, b.at) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.device, b.device) << "event " << i;
    EXPECT_EQ(a.peer, b.peer) << "event " << i;
    EXPECT_EQ(island, b.island) << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rate),
              std::bit_cast<std::uint64_t>(b.rate))
        << "event " << i << ": rate " << a.rate << " read back as "
        << b.rate;
    EXPECT_EQ(a.skew_ns, b.skew_ns) << "event " << i;
    EXPECT_EQ(a.duration, b.duration) << "event " << i;
  }
  EXPECT_EQ(q.format(), text);
}

TEST(FaultPlan, FormatParseRoundTrip) {
  const net::Tree tree = net::balanced_kary_tree(14, 2);
  FaultPlan plan;
  plan.crash_for(SimTime::from_ms(10), 3, Duration::from_ms(40))
      .sleep_for(SimTime::from_ms(20), 5, Duration::from_ms(30))
      .link_down_for(SimTime::from_ms(25), 1, 4, Duration::from_ms(10))
      .partition_subtree(SimTime::from_ms(30), tree, 2, Duration::from_ms(20))
      .loss_spike_for(SimTime::from_ms(40), 0.25, Duration::from_ms(15))
      .clock_skew(SimTime::from_ms(50), 9, Duration::from_ms(-3));
  expect_text_round_trip(plan);
}

TEST(FaultPlan, ParseRejectsGarbageWithLineNumber) {
  EXPECT_THROW((void)FaultPlan::parse("@10ms explode 3"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash 3"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms crash"), std::invalid_argument);
  try {
    (void)FaultPlan::parse("@1ms crash 2\n@2ms bogus 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
        << "error should carry the line number: " << e.what();
  }
}

// Regression suite for the silent-acceptance audit: every malformed
// input below used to either partially apply, wrap around an integer
// type, or hit UB in a double->int64 cast. All must now throw with a
// line AND column diagnostic.
TEST(FaultPlan, ParseRejectionsCarryLineAndColumn) {
  auto expect_rejects = [](const char* text, const char* needle) {
    try {
      (void)FaultPlan::parse(text);
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line "), std::string::npos) << what;
      EXPECT_NE(what.find("col "), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos)
          << "wanted '" << needle << "' in: " << what;
    }
  };
  // Unknown event kind (never silently skipped).
  expect_rejects("@10ms explode 3", "unknown fault kind");
  // Trailing garbage after a well-formed event used to fail only via the
  // generic arity message; now it names the stray token.
  expect_rejects("@10ms crash 3 7", "trailing garbage");
  expect_rejects("@10ms loss-clear oops", "trailing garbage");
  expect_rejects("@10ms skew 2 5ms extra", "trailing garbage");
  // Negative event time: rejected at parse with location (FaultPlan::add
  // would throw too, but without naming the line).
  expect_rejects("@-5ms crash 3", "negative duration");
  // Negative node ids used to wrap through strtoul to 4294967293.
  expect_rejects("@10ms crash -3", "bad node id");
  // Node ids past 2^32 used to truncate silently.
  expect_rejects("@10ms crash 4294967296", "node id out of range");
  // Trailing comma in a node list used to be silently dropped.
  expect_rejects("@10ms partition 3,5,", "empty entry in node list");
  expect_rejects("@10ms heal ,3", "empty entry in node list");
  // Non-finite / overflowing durations used to reach UB in the cast.
  expect_rejects("@infs crash 3", "duration out of range");
  expect_rejects("@10ms skew 2 1e300s", "duration out of range");
  expect_rejects("@nans crash 3", "bad number");
  // Negative and out-of-range loss rates.
  expect_rejects("@10ms loss -0.1", "bad loss rate");
  expect_rejects("@10ms loss 1.5", "bad loss rate");
  expect_rejects("@10ms loss nan", "bad loss rate");
}

// A malformed line must reject the WHOLE plan, not apply the events
// before it: parse is all-or-nothing.
TEST(FaultPlan, ParseIsAllOrNothing) {
  EXPECT_THROW((void)FaultPlan::parse("@1ms crash 2\n@2ms crash 3 junk\n"),
               std::invalid_argument);
}

// Negative skew stays legal (clock drift goes both ways), and column
// numbers point at the offending token, not the line start.
TEST(FaultPlan, ParseColumnPointsAtOffendingToken) {
  const FaultPlan ok = FaultPlan::parse("@10ms skew 2 -5ms\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.events()[0].skew_ns, -5'000'000);
  try {
    (void)FaultPlan::parse("@10ms crash bogus\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // "bogus" starts at column 13 of the line.
    EXPECT_NE(std::string(e.what()).find("col 13"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, ParseSkipsCommentsAndBlankLines) {
  const FaultPlan plan = FaultPlan::parse(
      "# chaos scenario\n"
      "\n"
      "@10ms crash 3\n"
      "  # indented comment\n"
      "@50ms reboot 3\n");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kReboot);
}

TEST(FaultPlan, ChurnIsAPureFunctionOfItsInputs) {
  const net::Tree tree = net::balanced_kary_tree(126, 2);
  FaultPlan::ChurnProfile profile;
  profile.crash_rate = 0.05;
  profile.partition_rate = 0.5;
  profile.loss_spike_rate = 0.3;
  const SimTime start = SimTime::from_ms(100);
  const SimTime end = SimTime::from_ms(2000);

  const FaultPlan a = FaultPlan::churn(7, tree, start, end, profile);
  const FaultPlan b = FaultPlan::churn(7, tree, start, end, profile);
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.format(), b.format());

  const FaultPlan c = FaultPlan::churn(8, tree, start, end, profile);
  EXPECT_NE(a.format(), c.format()) << "different seed, different plan";
}

TEST(FaultPlan, ChurnRespectsTheWindowAndPairsRecoveries) {
  const net::Tree tree = net::balanced_kary_tree(62, 2);
  FaultPlan::ChurnProfile profile;
  profile.crash_rate = 0.1;
  const SimTime start = SimTime::from_ms(500);
  const SimTime end = SimTime::from_ms(1500);
  const FaultPlan plan = FaultPlan::churn(3, tree, start, end, profile);
  ASSERT_GT(plan.size(), 0u);
  std::uint64_t crashes = 0, reboots = 0;
  for (const FaultEvent& ev : plan.events()) {
    if (ev.kind == FaultKind::kCrash) {
      ++crashes;
      EXPECT_GE(ev.at, start);
      EXPECT_LT(ev.at, end);
      EXPECT_GE(ev.device, 1u);
      EXPECT_LE(ev.device, 62u);
    } else {
      ASSERT_EQ(ev.kind, FaultKind::kReboot);
      ++reboots;
    }
  }
  EXPECT_EQ(crashes, reboots) << "every churn crash schedules its reboot";
}

TEST(FaultPlan, ProcKillGrammarRoundTrip) {
  // proc-kill drives the wire-chaos supervisor: device is a process
  // index (0 = verifier, 1.. = agents), duration the restart downtime.
  FaultPlan plan;
  plan.proc_kill(SimTime::from_ms(100), 0)
      .proc_kill_for(SimTime::from_ms(250), 2, Duration::from_ms(150));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kProcKill);
  EXPECT_EQ(plan.events()[0].device, 0u);
  EXPECT_EQ(plan.events()[0].duration, Duration::zero());
  EXPECT_EQ(plan.events()[1].device, 2u);
  EXPECT_EQ(plan.events()[1].duration, Duration::from_ms(150));
  // Unlike crash_for, proc_kill_for schedules NO recovery event — the
  // supervisor owns the respawn, so the plan stays two events.

  const FaultPlan parsed = FaultPlan::parse(plan.format());
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed.events()[i].kind, plan.events()[i].kind) << i;
    EXPECT_EQ(parsed.events()[i].at, plan.events()[i].at) << i;
    EXPECT_EQ(parsed.events()[i].device, plan.events()[i].device) << i;
    EXPECT_EQ(parsed.events()[i].duration, plan.events()[i].duration) << i;
  }
  EXPECT_EQ(parsed.format(), plan.format());

  // Text forms: bare kill and kill-with-downtime.
  const FaultPlan text = FaultPlan::parse(
      "@230ms proc-kill 0 150ms\n@520ms proc-kill 1\n");
  ASSERT_EQ(text.size(), 2u);
  EXPECT_EQ(text.events()[0].kind, FaultKind::kProcKill);
  EXPECT_EQ(text.events()[0].duration, Duration::from_ms(150));
  EXPECT_EQ(text.events()[1].device, 1u);
  EXPECT_EQ(text.events()[1].duration, Duration::zero());
}

TEST(FaultPlan, SpanTextSetsOnlyItsEventsDuration) {
  // Every kind whose paired builder sets a span takes it in the text as
  // an optional last argument, as proc-kill takes its downtime; the
  // plan gets no closing event from it.
  const FaultPlan plan = FaultPlan::parse(
      "@10ms crash 3 40ms\n@11ms sleep 4 30ms\n@12ms leave 5 1s\n"
      "@13ms link-down 1 4 10ms\n@14ms partition 2,5-6 20ms\n"
      "@15ms loss 0.25 15ms\n@16ms crash 7\n");
  const Duration spans[] = {Duration::from_ms(40), Duration::from_ms(30),
                            Duration::from_sec(1), Duration::from_ms(10),
                            Duration::from_ms(20), Duration::from_ms(15),
                            Duration::zero()};
  ASSERT_EQ(plan.size(), std::size(spans));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan.events()[i].duration, spans[i]) << i;
  }
  EXPECT_EQ(plan.events()[4].island, (std::vector<net::NodeId>{2, 5, 6}));
  EXPECT_EQ(plan.events()[5].rate, 0.25);
  EXPECT_EQ(FaultPlan::parse(plan.format()).format(), plan.format());
  EXPECT_THROW((void)FaultPlan::parse("@10ms crash 3 -5ms"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms reboot 3 5ms"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms crash 3 5ms 6ms"),
               std::invalid_argument);
}

TEST(FaultPlan, ProcKillRejectsMalformedInput) {
  EXPECT_THROW((void)FaultPlan::parse("@10ms proc-kill"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms proc-kill zero"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms proc-kill 0 -5ms"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@10ms proc-kill 0 150ms extra"),
               std::invalid_argument);
  FaultPlan plan;
  EXPECT_THROW(plan.proc_kill_for(SimTime::from_ms(1), 0,
                                  Duration::from_ms(-10)),
               std::invalid_argument);
}

TEST(FaultPlan, ZeroRatesYieldAnEmptyPlan) {
  const net::Tree tree = net::balanced_kary_tree(30, 2);
  FaultPlan::ChurnProfile quiet;
  quiet.crash_rate = 0.0;
  const FaultPlan plan = FaultPlan::churn(
      11, tree, SimTime::zero(), SimTime::from_sec(10), quiet);
  EXPECT_TRUE(plan.empty());
}

// --- parse(format(p)) on random plans, and on mutated text ------------

/// A loss rate in [0, 1]: thirds, subnormals, every binary exponent,
/// and the ends of the range.
double random_rate(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return 1.0 / 3.0;
    case 1:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.next_below(1'000'000));
    case 2:
      return std::ldexp(rng.next_double(),
                        -static_cast<int>(rng.next_below(1'080)));
    case 3:
      return rng.next_double();
    case 4:
      return std::nextafter(1.0, 0.0);
    default:
      return static_cast<double>(rng.next_below(2));  // 0 or 1
  }
}

/// Forty builder calls with random arguments; a quarter of the events
/// share the previous event's time, and node ids reach 2^32 - 1.
FaultPlan random_plan(std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan(seed);
  SimTime last;
  auto time = [&] {
    if (rng.next_below(4) != 0) {
      last = SimTime(static_cast<std::int64_t>(
          rng.next_below(10'000'000'000ULL)));
    }
    return last;
  };
  auto node = [&]() -> net::NodeId {
    if (rng.next_below(8) == 0) {
      return std::numeric_limits<net::NodeId>::max() -
             static_cast<net::NodeId>(rng.next_below(3));
    }
    return static_cast<net::NodeId>(rng.next_below(1'000));
  };
  auto span = [&] {
    return Duration(static_cast<std::int64_t>(1 + rng.next_below(
                                                      1'000'000'000)));
  };
  auto island = [&] {
    std::vector<net::NodeId> out(1 + rng.next_below(12));
    for (net::NodeId& n : out) n = node();
    if (rng.next_bool(0.5)) {  // a run, which prints as a range
      const std::uint64_t from = node();
      const std::uint64_t to = std::min<std::uint64_t>(
          from + 4, std::numeric_limits<net::NodeId>::max());
      for (std::uint64_t n = from; n <= to; ++n) {
        out.push_back(static_cast<net::NodeId>(n));
      }
    }
    return out;
  };
  for (int i = 0; i < 40; ++i) {
    switch (rng.next_below(12)) {
      case 0: plan.crash_for(time(), node(), span()); break;
      case 1: plan.sleep_for(time(), node(), span()); break;
      case 2: plan.link_down_for(time(), node(), node(), span()); break;
      case 3: plan.partition_for(time(), island(), span()); break;
      case 4: plan.heal(time(), island()); break;
      case 5: plan.loss_spike_for(time(), random_rate(rng), span()); break;
      case 6: plan.loss_spike(time(), random_rate(rng)); break;
      case 7:
        plan.clock_skew(time(), node(),
                        Duration(static_cast<std::int64_t>(
                                     rng.next_below(2'000'000'001)) -
                                 1'000'000'000));
        break;
      case 8: plan.leave_for(time(), node(), span()); break;
      case 9: plan.join(time(), node()); break;
      case 10: plan.proc_kill(time(), node()); break;
      default: plan.proc_kill_for(time(), node(), span()); break;
    }
  }
  return plan;
}

FaultPlan random_churn(std::uint64_t seed) {
  Rng rng(seed);
  const net::Tree tree =
      net::balanced_kary_tree(static_cast<std::uint32_t>(
                                  30 + rng.next_below(200)),
                              2 + static_cast<std::uint32_t>(
                                      rng.next_below(3)));
  FaultPlan::ChurnProfile profile;
  profile.crash_rate = rng.next_double() * 0.05;
  profile.sleep_rate = rng.next_double() * 0.05;
  profile.partition_rate = rng.next_double();
  profile.loss_spike_rate = rng.next_double();
  profile.loss_spike = random_rate(rng);
  profile.leave_rate = rng.next_double() * 0.02;
  profile.join_rate = rng.next_double() * 0.02;
  return FaultPlan::churn(seed, tree, SimTime::from_ms(10),
                          SimTime::from_ms(3'000), profile);
}

TEST(FaultPlan, FormatParseIsExactOnRandomPlans) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_text_round_trip(random_plan(seed));
    expect_text_round_trip(random_churn(seed));
  }
  // The rates the old fixed six decimals lost.
  for (const double rate : {0.1234567890123, 1e-320, 1.0 / 3.0}) {
    FaultPlan plan;
    plan.loss_spike(SimTime::from_ms(1), rate);
    EXPECT_EQ(FaultPlan::parse(plan.format()).events()[0].rate, rate);
  }
  // The builders refuse what parse() refuses.
  FaultPlan plan;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plan.loss_spike(SimTime::zero(), nan), std::invalid_argument);
  EXPECT_THROW(plan.loss_spike_for(SimTime::zero(), nan, Duration::from_ms(1)),
               std::invalid_argument);
}

TEST(FaultPlan, NodeRangesEndAtTheLastIdAndStayBounded) {
  // A range ending at 2^32 - 1 used to wrap its counter and never end.
  const FaultPlan plan =
      FaultPlan::parse("@1ms partition 4294967294-4294967295\n");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].island,
            (std::vector<net::NodeId>{4294967294u, 4294967295u}));
  // One list names at most 2^24 positions.
  EXPECT_EQ(FaultPlan::parse("@1ms heal 0-16777215\n").events()[0]
                .island.size(),
            16'777'216u);
  EXPECT_THROW((void)FaultPlan::parse("@1ms heal 0-16777216\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@1ms heal 7,0-16777215\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("@1ms partition 0-4294967295\n"),
               std::invalid_argument);
}

TEST(FaultPlan, MutatedTextParsesCanonicallyOrThrows) {
  // Formatted plans as the corpus; every mutation must be refused with
  // std::invalid_argument, or parse to a plan whose text parses back to
  // the same text.
  std::vector<Bytes> corpus;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const FaultPlan& p : {random_plan(seed), random_churn(seed)}) {
      const std::string text = p.format();
      corpus.emplace_back(text.begin(), text.end());
    }
  }
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 2'000; ++iter) {
      const Bytes& in = corpus[rng.next_below(corpus.size())];
      const Bytes mutated = fuzz::mutate(rng, in, corpus, {});
      const std::string text(mutated.begin(), mutated.end());
      try {
        const std::string canonical = FaultPlan::parse(text).format();
        ++accepted;
        EXPECT_EQ(FaultPlan::parse(canonical).format(), canonical)
            << "seed " << seed << " iter " << iter;
      } catch (const std::invalid_argument&) {
        ++refused;
      }
    }
  }
  // Truncations and splices mostly keep whole lines, so both outcomes
  // occur often.
  EXPECT_GT(accepted, 1'000u);
  EXPECT_GT(refused, 1'000u);
}

}  // namespace
}  // namespace cra::fault
