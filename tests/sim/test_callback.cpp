// InlineCallback: the scheduler's small-buffer-optimized event slot.
// Covers both storage paths (inline and heap fallback), single-owner
// move semantics, destruction exactly-once, and that the scheduler's
// dispatch order is unchanged by the std::function replacement.
#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sap/swarm.hpp"
#include "sim/scheduler.hpp"

namespace cra::sim {
namespace {

TEST(InlineCallback, EmptyIsFalse) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.is_inline());
}

TEST(InlineCallback, SmallCaptureStaysInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MessageSizedCaptureStaysInline) {
  // The hot-path shape: a pointer plus a ~40-byte payload struct.
  struct FakeMessage {
    std::uint32_t src, dst, kind;
    std::array<std::uint8_t, 32> body;
  };
  int value = 0;
  FakeMessage m{1, 2, 3, {}};
  auto lam = [m, &value]() mutable { value = static_cast<int>(m.src); };
  static_assert(InlineCallback::fits_inline<decltype(lam)>());
  InlineCallback cb(std::move(lam));
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(value, 1);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeap) {
  std::array<std::uint8_t, 200> big{};
  big[7] = 42;
  int got = 0;
  auto lam = [big, &got] { got = big[7]; };
  static_assert(!InlineCallback::fits_inline<decltype(lam)>());
  InlineCallback cb(lam);
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(got, 42);
}

TEST(InlineCallback, ThrowingMoveFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(!InlineCallback::fits_inline<ThrowingMove>());
  InlineCallback cb(ThrowingMove{});
  EXPECT_FALSE(cb.is_inline());
  cb();
}

TEST(InlineCallback, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineCallback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2);   // exactly one live copy of the capture
  b();
  EXPECT_EQ(*counter, 1);
}

TEST(InlineCallback, MoveAssignDestroysPrevious) {
  auto first = std::make_shared<int>(0);
  auto second = std::make_shared<int>(0);
  InlineCallback cb([first] { ++*first; });
  cb = InlineCallback([second] { ++*second; });
  EXPECT_EQ(first.use_count(), 1);  // the replaced capture was destroyed
  cb();
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(*first, 0);
}

TEST(InlineCallback, DestructionReleasesCapture) {
  auto counter = std::make_shared<int>(0);
  {
    InlineCallback cb([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineCallback, HeapCaptureMoveAndDestroy) {
  std::array<std::uint8_t, 128> big{};
  auto counter = std::make_shared<int>(0);
  {
    InlineCallback a([big, counter] { *counter += big.size(); });
    EXPECT_FALSE(a.is_inline());
    InlineCallback b(std::move(a));
    b();
  }
  EXPECT_EQ(*counter, 128);
  EXPECT_EQ(counter.use_count(), 1);
}

// The SBO swap must not perturb dispatch: events still run in
// (time, insertion) order, mixing inline and heap-stored callbacks.
TEST(InlineCallback, SchedulerOrderUnchangedAcrossStoragePaths) {
  Scheduler sched;
  std::vector<std::string> order;
  std::array<std::uint8_t, 100> big{};  // forces the heap path
  sched.schedule_at(SimTime::from_ns(20), [&order] { order.push_back("c"); });
  sched.schedule_at(SimTime::from_ns(10),
                    [&order, big] { order.push_back("a" + std::to_string(big[0])); });
  sched.schedule_at(SimTime::from_ns(10), [&order] { order.push_back("b"); });
  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b", "c"}));
}

// Full-protocol determinism with the SBO callbacks and the payload pool
// on the hot path: the round digest must be byte-identical across
// thread counts (same harness shape as test_parallel's digest tests),
// and the one-shard path must actually be recycling buffers.
TEST(InlineCallback, SapRoundDigestStableWithPooledPayloads) {
  auto run = [](std::uint32_t threads, std::uint64_t* pool_hits) {
    sap::SapConfig cfg;
    cfg.sim.threads = threads;
    auto sim = sap::SapSimulation::balanced(cfg, 2'000, /*seed=*/42);
    const auto r = sim.run_round();
    if (pool_hits != nullptr) *pool_hits = sim.network().payload_pool_hits();
    std::ostringstream os;
    os << r.verified << '|' << r.t_resp.ns() << '|' << r.u_ca_bytes << '|'
       << r.messages << '|' << r.responded << '|' << r.repolls;
    return os.str();
  };
  std::uint64_t serial_hits = 0;
  const std::string serial = run(1, &serial_hits);
  EXPECT_GT(serial_hits, 0u);  // the freelist is live on the one-shard path
  EXPECT_EQ(run(2, nullptr), serial);
  EXPECT_EQ(run(8, nullptr), serial);
}

}  // namespace
}  // namespace cra::sim
