// Shard-boundary transports: the SPSC shared-memory ring, the process
// group, the metrics binary codec, and the acceptance gate for the
// zero-copy channel refactor — round digests byte-identical across
// transport {inproc, shm}, thread count, and shard-to-process placement
// for a fixed shard count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pads/pads.hpp"
#include "sap/swarm.hpp"
#include "sim/channel.hpp"
#include "sim/parallel.hpp"
#include "sim/process_group.hpp"
#include "sim/spsc_ring.hpp"

namespace cra::sim {
namespace {

// ---------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------

struct RingBuffer {
  explicit RingBuffer(std::uint32_t slots)
      : mem(::operator new(SpscRing::region_bytes(slots),
                           std::align_val_t(64))),
        ring(SpscRing::create(mem, slots)) {}
  ~RingBuffer() { ::operator delete(mem, std::align_val_t(64)); }
  void* mem;
  SpscRing* ring;
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return v;
}

TEST(SpscRing, RejectsNonPowerOfTwo) {
  alignas(64) std::uint8_t mem[4096];
  EXPECT_THROW(SpscRing::create(mem, 3), std::invalid_argument);
  EXPECT_THROW(SpscRing::create(mem, 0), std::invalid_argument);
  EXPECT_THROW(SpscRing::create(mem, 1), std::invalid_argument);
}

TEST(SpscRing, FifoRoundTripAcrossSizes) {
  RingBuffer rb(64);
  // Varying sizes force records of 1..several slots, including empty.
  const std::size_t sizes[] = {0, 1, 59, 60, 61, 64, 100, 200};
  for (int lap = 0; lap < 3; ++lap) {
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const auto data = pattern(sizes[i], static_cast<std::uint8_t>(i));
      ASSERT_TRUE(rb.ring->try_push(data.data(),
                                    static_cast<std::uint32_t>(data.size())));
    }
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      std::uint32_t len = 0;
      const std::uint8_t* p = rb.ring->peek(len);
      ASSERT_NE(p, nullptr);
      const auto expect = pattern(sizes[i], static_cast<std::uint8_t>(i));
      ASSERT_EQ(len, expect.size());
      if (len != 0) EXPECT_EQ(std::memcmp(p, expect.data(), len), 0);
      rb.ring->pop();
    }
    EXPECT_TRUE(rb.ring->empty());
  }
}

TEST(SpscRing, WraparoundPadsAndRestartsAtZero) {
  RingBuffer rb(8);
  // 2-slot records against an 8-slot ring: the fourth push starts at
  // slot 6 with only 2 slots to the edge for a record needing... exactly
  // 2 — so go odd: 3-slot records (len 150) force a wrap pad quickly.
  const auto big = pattern(150, 7);
  const auto small = pattern(10, 9);
  ASSERT_TRUE(rb.ring->try_push(big.data(), 150));    // slots 0-2
  ASSERT_TRUE(rb.ring->try_push(small.data(), 10));   // slot 3
  std::uint32_t len = 0;
  ASSERT_NE(rb.ring->peek(len), nullptr);
  rb.ring->pop();  // free 0-2
  ASSERT_NE(rb.ring->peek(len), nullptr);
  rb.ring->pop();  // free 3
  // Tail at slot 4: a 3-slot record would straddle slot 8 — the
  // producer must pad 4-7 and write at 0.
  ASSERT_TRUE(rb.ring->try_push(big.data(), 150));
  const std::uint8_t* p = rb.ring->peek(len);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(len, 150u);
  EXPECT_EQ(std::memcmp(p, big.data(), 150), 0);
  rb.ring->pop();
  EXPECT_TRUE(rb.ring->empty());
}

TEST(SpscRing, FullRingBackpressure) {
  RingBuffer rb(8);
  const auto rec = pattern(60, 3);  // exactly one slot with header
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rb.ring->try_push(rec.data(), 60)) << i;
  }
  EXPECT_FALSE(rb.ring->try_push(rec.data(), 60));
  // Blocking push times out rather than spinning forever.
  EXPECT_FALSE(rb.ring->push(rec.data(), 60, /*timeout_ns=*/2'000'000));
  std::uint32_t len = 0;
  ASSERT_NE(rb.ring->peek(len), nullptr);
  rb.ring->pop();
  EXPECT_TRUE(rb.ring->try_push(rec.data(), 60));
}

TEST(SpscRing, OversizeRecordThrows) {
  RingBuffer rb(8);
  const std::size_t max = rb.ring->max_record_bytes();
  std::vector<std::uint8_t> too_big(max + 1, 0xAB);
  EXPECT_THROW(
      rb.ring->try_push(too_big.data(),
                        static_cast<std::uint32_t>(too_big.size())),
      std::invalid_argument);
  // The maximum itself must fit (the wrap-pad sizing guarantee).
  std::vector<std::uint8_t> exact(max, 0xCD);
  EXPECT_TRUE(rb.ring->try_push(exact.data(),
                                static_cast<std::uint32_t>(exact.size())));
}

TEST(SpscRing, TornSizeFieldRejected) {
  RingBuffer rb(8);
  const auto rec = pattern(20, 5);
  ASSERT_TRUE(rb.ring->try_push(rec.data(), 20));
  // Stomp the length prefix of the first record (it sits at slot 0,
  // right after the ring header) with a value larger than any record
  // this ring could hold.
  std::uint8_t* first_slot =
      static_cast<std::uint8_t*>(rb.mem) + sizeof(SpscRing);
  const std::uint32_t garbage = 0x7FFFFFF0u;
  std::memcpy(first_slot, &garbage, 4);
  std::uint32_t len = 0;
  EXPECT_THROW(rb.ring->peek(len), std::runtime_error);
}

TEST(SpscRing, LengthBeyondPublishedTailRejected) {
  RingBuffer rb(16);
  const auto rec = pattern(20, 5);  // 1 slot
  ASSERT_TRUE(rb.ring->try_push(rec.data(), 20));
  // A length that is legal for the ring but larger than what the
  // producer has published (1 slot) must also be rejected.
  std::uint8_t* first_slot =
      static_cast<std::uint8_t*>(rb.mem) + sizeof(SpscRing);
  const std::uint32_t garbage = 300;  // needs 5 slots, only 1 published
  std::memcpy(first_slot, &garbage, 4);
  std::uint32_t len = 0;
  EXPECT_THROW(rb.ring->peek(len), std::runtime_error);
}

TEST(SpscRing, CursorsSurviveUint32Wrap) {
  RingBuffer rb(8);
  // Park both free-running cursors just below 2^32; a few dozen pushes
  // then carry them through the wrap.
  rb.ring->reset_cursors(0xFFFFFFFFu - 19);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto rec = pattern(40, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(rb.ring->try_push(rec.data(), 40)) << i;
    std::uint32_t len = 0;
    const std::uint8_t* p = rb.ring->peek(len);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(len, 40u);
    EXPECT_EQ(std::memcmp(p, rec.data(), 40), 0) << i;
    rb.ring->pop();
  }
  EXPECT_TRUE(rb.ring->empty());
}

TEST(SpscRing, WaitNonemptyTimesOutOnEmptyRing) {
  RingBuffer rb(8);
  EXPECT_FALSE(rb.ring->wait_nonempty(/*timeout_ns=*/1'000'000));
  const auto rec = pattern(8, 1);
  ASSERT_TRUE(rb.ring->try_push(rec.data(), 8));
  EXPECT_TRUE(rb.ring->wait_nonempty(/*timeout_ns=*/1'000'000));
}

// ---------------------------------------------------------------------
// Metrics binary codec (the multi-process metrics reduction)
// ---------------------------------------------------------------------

TEST(MetricsBinaryCodec, RoundTripsEveryInstrument) {
  obs::MetricsRegistry src;
  src.counter("a.count").inc(41);
  src.counter("b.count").inc(0);
  src.gauge("a.gauge").set(-7);
  src.gauge("b.unset");
  src.histogram("a.hist").record(0);
  src.histogram("a.hist").record(17);
  src.histogram("a.hist").record(1u << 20);

  Bytes image;
  src.encode_binary(image);

  obs::MetricsRegistry dst;
  dst.merge_binary(BytesView(image));
  // merge_from parity: unset gauges do not travel (merge_from skips
  // them too), everything else round-trips byte-for-byte.
  obs::MetricsRegistry via_merge_from;
  via_merge_from.merge_from(src);
  EXPECT_EQ(dst.to_json(), via_merge_from.to_json());

  // Merging twice doubles counters/histogram counts, maxes gauges —
  // exactly merge_from semantics.
  dst.merge_binary(BytesView(image));
  EXPECT_EQ(dst.counter_value("a.count"), 82u);
  EXPECT_EQ(dst.gauge_value("a.gauge"), -7);
  EXPECT_EQ(dst.find_histogram("a.hist")->count(), 6u);
}

TEST(MetricsBinaryCodec, TruncatedImageThrows) {
  obs::MetricsRegistry src;
  src.counter("some.counter").inc(5);
  src.histogram("some.hist").record(123);
  Bytes image;
  src.encode_binary(image);
  for (const std::size_t cut : {1ul, 7ul, image.size() / 2, image.size() - 1}) {
    obs::MetricsRegistry dst;
    EXPECT_THROW(dst.merge_binary(BytesView(image.data(), cut)),
                 std::runtime_error)
        << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------
// ProcessGroup
// ---------------------------------------------------------------------

TEST(ProcessGroup, SpawnRunsEveryRankAndJoins) {
  ProcessGroup& pg = ProcessGroup::instance();
  const std::uint32_t rank = pg.spawn(3);
  EXPECT_EQ(pg.size(), 3u);
  if (rank != 0) pg.child_exit(0);
  EXPECT_EQ(rank, 0u);
  pg.join();
  EXPECT_EQ(pg.size(), 1u);  // reusable after join
}

TEST(ProcessGroup, JoinReportsNonzeroChildExit) {
  ProcessGroup& pg = ProcessGroup::instance();
  const std::uint32_t rank = pg.spawn(2);
  if (rank != 0) pg.child_exit(3);
  EXPECT_THROW(pg.join(), std::runtime_error);
  EXPECT_EQ(pg.size(), 1u);
}

// ---------------------------------------------------------------------
// Shared-memory channel lanes
// ---------------------------------------------------------------------

constexpr std::uint32_t kLaneSlots = 8;  // 252-byte records at most
constexpr std::uint32_t kLaneRecords = 500;

/// Record i of a lane test. Sizes cycle through empty, one slot, several
/// slots, and more than a kLaneSlots ring can ever hold.
ShardMessage numbered(std::uint32_t i) {
  static constexpr std::size_t kSizes[] = {0, 20, 150, 400};
  return ShardMessage{SimTime::from_ns(i), 1, i, 7,
                      pattern(kSizes[i % 4], static_cast<std::uint8_t>(i))};
}

TEST(ShmChannel, InProcessLaneSpillsPastItsRingInOrder) {
  // ~80x what the ring holds, posted in one epoch (no drain between
  // posts), twice: the second epoch reuses the ring and the spill.
  SharedArena arena(2 * (SpscRing::region_bytes(kLaneSlots) + 64));
  auto channel = make_shm_channel(2, kLaneSlots, arena);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (std::uint32_t i = 0; i < kLaneRecords; ++i) {
      ASSERT_NO_THROW((void)channel->post_message(0, 1, numbered(i)));
    }
    std::uint32_t next = 0;
    channel->drain(1, [&](ShardMessage&& m) {
      const ShardMessage want = numbered(next++);
      EXPECT_EQ(m.src, want.src);
      EXPECT_EQ(m.at.ns(), want.at.ns());
      EXPECT_EQ(m.entity, want.entity);
      EXPECT_EQ(m.kind, want.kind);
      EXPECT_EQ(m.payload, want.payload) << "record " << m.src;
    });
    EXPECT_EQ(next, kLaneRecords) << "epoch " << epoch;
  }
}

TEST(ShmChannel, CrossProcessLaneStillThrowsWhenFull) {
  // Shards 0 and 1 in different processes: no process-local spill can
  // reach the reader, so a full ring stays an error.
  SharedArena arena(2 * (SpscRing::region_bytes(kLaneSlots) + 64));
  const std::uint32_t rank_of[] = {0, 1};
  auto channel = make_shm_channel(2, kLaneSlots, arena, rank_of);
  EXPECT_THROW(
      {
        for (std::uint32_t i = 0; i < kLaneRecords; ++i) {
          (void)channel->post_message(0, 1, numbered(i));
        }
      },
      std::logic_error);
}

// ---------------------------------------------------------------------
// Engine contract hardening
// ---------------------------------------------------------------------

TEST(EngineContract, ForeignThreadPostThrowsOnlyWhileRunning) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  cfg.transport = ShardTransport::kInproc;
  ParallelScheduler engine(std::vector<std::uint32_t>{0, 1, 2, 3}, cfg,
                           Duration::from_ms(1));

  bool threw_while_running = false;
  engine.post(0, SimTime::from_ms(1), [&] {
    std::thread foreign([&] {
      try {
        engine.post(3, SimTime::from_ms(10), [] {});
      } catch (const std::logic_error&) {
        threw_while_running = true;
      }
    });
    foreign.join();
  });
  engine.run();
  EXPECT_TRUE(threw_while_running);

  // Idle engine: setup posts from any thread are the documented contract.
  bool ran = false;
  std::thread setup([&] {
    engine.post(3, engine.now() + Duration::from_ms(1), [&] { ran = true; });
  });
  setup.join();
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(EngineContract, EveryTransportRejectsCrossShardClosures) {
  for (const ShardTransport t :
       {ShardTransport::kInproc, ShardTransport::kShm}) {
    SimConfig cfg;
    cfg.threads = 1;
    cfg.shards = 2;
    cfg.transport = t;
    ParallelScheduler engine(std::vector<std::uint32_t>{0, 1, 2, 3}, cfg,
                             Duration::from_ms(1));
    engine.post(0, SimTime::from_ms(1), [&] {
      engine.post(3, SimTime::from_ms(5), [] {});  // closure across shards
    });
    EXPECT_THROW(engine.run(), std::logic_error)
        << "transport=" << static_cast<int>(t);
  }
}

TEST(EngineContract, UsableAfterAHandlerThrows) {
  for (const ShardTransport t :
       {ShardTransport::kInproc, ShardTransport::kShm}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("transport=" + std::to_string(static_cast<int>(t)) +
                   " threads=" + std::to_string(threads));
      SimConfig cfg;
      cfg.threads = threads;
      cfg.shards = 4;
      cfg.transport = t;
      ParallelScheduler engine(
          std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}, cfg,
          Duration::from_ms(1));
      engine.post(0, SimTime::from_ms(1),
                  [] { throw std::runtime_error("handler failed"); });
      engine.post(6, SimTime::from_ms(3), [] {});  // still queued then
      EXPECT_THROW(engine.run(), std::runtime_error);

      // The engine is idle again: a post from a foreign thread
      // schedules, and the next run() executes it.
      bool ran = false;
      std::thread setup([&] {
        engine.post(5, engine.now() + Duration::from_ms(1),
                    [&] { ran = true; });
      });
      setup.join();
      EXPECT_NO_THROW(engine.run());
      EXPECT_TRUE(ran);
    }
  }
}

// ---------------------------------------------------------------------
// Transport / placement digest equality (the acceptance gate)
// ---------------------------------------------------------------------

constexpr std::uint32_t kSapDevices = 10'000;
constexpr std::uint32_t kSapRounds = 2;

sap::SapConfig sap_config(std::uint32_t threads, ShardTransport transport,
                          std::uint32_t processes) {
  sap::SapConfig cfg;
  cfg.sim.threads = threads;
  cfg.sim.shards = 8;
  cfg.sim.transport = transport;
  cfg.sim.processes = processes;
  return cfg;
}

/// Everything deterministic about a SAP run, as one comparable string:
/// per-round timeline + verdict + the full merged metrics JSON.
std::string sap_fingerprint(sap::SapSimulation& swarm) {
  std::string fp;
  for (std::uint32_t r = 0; r < kSapRounds; ++r) {
    const sap::RoundReport rep = swarm.run_round();
    fp += std::to_string(rep.verified) + "/" +
          std::to_string(rep.chal_tick) + "/" +
          std::to_string(rep.t_chal.ns()) + "/" +
          std::to_string(rep.inbound_end.ns()) + "/" +
          std::to_string(rep.t_resp.ns()) + "/" +
          std::to_string(rep.u_ca_bytes) + "/" +
          std::to_string(rep.messages) + "/" +
          std::to_string(rep.responded) + "|";
    fp += swarm.metrics().to_json();
    swarm.advance_time(Duration::from_ms(250));
  }
  return fp;
}

TEST(TransportMatrix, SapDigestIdenticalAcrossTransportsAndThreads) {
  auto ref_sim =
      sap::SapSimulation::balanced(sap_config(1, ShardTransport::kInproc, 1),
                                   kSapDevices);
  const std::string ref = sap_fingerprint(ref_sim);
  for (const std::uint32_t threads : {2u, 8u}) {
    for (const ShardTransport t :
         {ShardTransport::kInproc, ShardTransport::kShm}) {
      auto swarm =
          sap::SapSimulation::balanced(sap_config(threads, t, 1), kSapDevices);
      EXPECT_EQ(sap_fingerprint(swarm), ref)
          << "threads=" << threads << " transport=" << static_cast<int>(t);
    }
  }
}

TEST(TransportMatrix, SapDigestIdenticalAcrossProcessPlacements) {
  auto ref_sim =
      sap::SapSimulation::balanced(sap_config(2, ShardTransport::kInproc, 1),
                                   kSapDevices);
  const std::string ref = sap_fingerprint(ref_sim);
  for (const std::uint32_t procs : {2u, 8u}) {
    // SPMD: construct before fork, every rank runs the same driver,
    // rank 0 (the parent — owns shard 0 and the verifier) asserts.
    auto swarm = sap::SapSimulation::balanced(
        sap_config(2, ShardTransport::kShm, procs), kSapDevices);
    ProcessGroup& pg = ProcessGroup::instance();
    const std::uint32_t rank = pg.spawn(procs);
    std::string fp;
    try {
      fp = sap_fingerprint(swarm);
    } catch (...) {
      if (rank != 0) pg.child_exit(2);
      throw;
    }
    if (rank != 0) pg.child_exit(0);
    pg.join();
    EXPECT_EQ(fp, ref) << "procs=" << procs;
  }
}

TEST(TransportMatrix, EngineDiesWhenPeerProcessDies) {
  auto swarm = sap::SapSimulation::balanced(
      sap_config(2, ShardTransport::kShm, 2), kSapDevices / 10);
  ProcessGroup& pg = ProcessGroup::instance();
  const std::uint32_t rank = pg.spawn(2);
  if (rank != 0) pg.child_exit(0);  // peer leaves before the round
  // The barrier watchdog must notice the dead peer and abandon the run
  // instead of parking forever.
  EXPECT_THROW(swarm.run_round(), std::runtime_error);
  pg.join();  // clean exit (code 0) — join itself succeeds
}

TEST(TransportMatrix, PadsDigestIdenticalAcrossTransports) {
  pads::PadsConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.gossip_epochs = 8;
  cfg.sim.threads = 2;
  cfg.sim.shards = 4;
  cfg.sim.transport = ShardTransport::kInproc;
  auto a = pads::PadsSimulation::balanced(cfg, 2'000, /*seed=*/42);
  const std::string inproc_digest = a.run_round().digest;
  cfg.sim.transport = ShardTransport::kShm;
  auto b = pads::PadsSimulation::balanced(cfg, 2'000, /*seed=*/42);
  EXPECT_EQ(b.run_round().digest, inproc_digest);
}

// Satellite guarantee: warm inproc lanes stop reallocating — round 2
// pushes the same traffic into recycled capacity.
TEST(LaneRecycling, WarmLanesStopReallocating) {
  auto swarm = sap::SapSimulation::balanced(
      sap_config(2, ShardTransport::kInproc, 1), 2'000);
  (void)swarm.run_round();
  ASSERT_NE(swarm.engine(), nullptr);
  const std::uint64_t after_first = swarm.engine()->lane_reallocs();
  EXPECT_GT(swarm.engine()->cross_shard_posts(), 0u);
  swarm.advance_time(Duration::from_ms(250));
  (void)swarm.run_round();
  EXPECT_EQ(swarm.engine()->lane_reallocs(), after_first);
}

}  // namespace
}  // namespace cra::sim
