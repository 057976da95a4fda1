// ParallelScheduler: conservative-lookahead sharded engine.
//
// The determinism contract under test: a run is a pure function of
// (inputs, shard count) — independent of worker-thread count and OS
// scheduling — and with one shard the engine IS a serial Scheduler.
#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "pads/pads.hpp"
#include "sap/analysis.hpp"
#include "sap/messages.hpp"
#include "sap/swarm.hpp"
#include "seda/seda.hpp"

namespace cra::sim {
namespace {

/// Entities 0..n-1 in id order.
std::vector<std::uint32_t> ids(std::uint32_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

TEST(ParallelScheduler, SingleShardForwardsToClassic) {
  // threads=1, shards=0 -> one shard: the engine is the serial queue.
  ParallelScheduler engine(ids(8), SimConfig{}, Duration::from_ms(1));
  EXPECT_EQ(engine.shard_count(), 1u);

  std::vector<int> order;
  engine.post(3, SimTime::from_ms(30), [&] { order.push_back(3); });
  engine.post(5, SimTime::from_ms(10), [&] { order.push_back(1); });
  engine.post(0, SimTime::from_ms(20), [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime::from_ms(30));
  EXPECT_EQ(engine.epochs(), 0u);  // no barrier machinery involved
}

TEST(ParallelScheduler, ShardOfPartitionsContiguously) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 4;
  // Ten entities cut into contiguous runs of the given order, sizes
  // 3,3,2,2: {9,4,7} {0,2,5} {8,1} {3,6}.
  const std::vector<std::uint32_t> order{9, 4, 7, 0, 2, 5, 8, 1, 3, 6};
  ParallelScheduler engine(order, cfg, Duration::from_ms(1));
  EXPECT_EQ(engine.shard_count(), 4u);
  const std::vector<std::uint32_t> shard_of_entity{1, 2, 1, 3, 0,
                                                   1, 3, 0, 2, 0};
  for (std::uint32_t e = 0; e < shard_of_entity.size(); ++e) {
    EXPECT_EQ(engine.shard_of(e), shard_of_entity[e]) << "entity " << e;
  }
  // Entities past the range still map to the last shard (no UB).
  EXPECT_EQ(engine.shard_of(57), 3u);
}

TEST(ParallelScheduler, RejectsOrderThatIsNotAPermutation) {
  SimConfig cfg;
  cfg.shards = 2;
  const std::vector<std::uint32_t> repeated{0, 1, 1, 3};
  const std::vector<std::uint32_t> out_of_range{0, 1, 2, 4};
  EXPECT_THROW(ParallelScheduler(repeated, cfg, Duration::from_ms(1)),
               std::invalid_argument);
  EXPECT_THROW(ParallelScheduler(out_of_range, cfg, Duration::from_ms(1)),
               std::invalid_argument);
}

// Subtree-aligned placement: the protocol layers cut the DFS preorder
// of their deployment tree. Whatever the tree, runs are equal, the
// verifier's position 0 is on shard 0, and only edges hanging off the
// ancestors of a run boundary cross shards.
TEST(ParallelScheduler, DfsPlacementConfinesCrossShardEdges) {
  Rng rng(2024);
  std::vector<std::pair<std::string, net::Tree>> trees;
  trees.emplace_back("binary", net::balanced_kary_tree(5'000, 2));
  trees.emplace_back("ternary", net::balanced_kary_tree(5'000, 3));
  trees.emplace_back("random", net::random_tree(5'000, 4, rng));
  for (const auto& [name, tree] : trees) {
    for (const std::uint32_t shards : {2u, 3u, 8u}) {
      SCOPED_TRACE(name + " tree, " + std::to_string(shards) + " shards");
      SimConfig cfg;
      cfg.shards = shards;
      ParallelScheduler engine(net::dfs_preorder(tree), cfg,
                               Duration::from_ms(1));
      ASSERT_EQ(engine.shard_count(), shards);
      EXPECT_EQ(engine.shard_of(0), 0u);

      std::vector<std::uint32_t> sizes(shards, 0);
      for (net::NodeId n = 0; n < tree.size(); ++n) {
        ++sizes[engine.shard_of(n)];
      }
      const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_LE(*hi - *lo, 1u);

      std::uint32_t crossing = 0;
      for (net::NodeId n = 1; n < tree.size(); ++n) {
        crossing += engine.shard_of(n) != engine.shard_of(tree.parent(n));
      }
      EXPECT_LE(crossing,
                (shards - 1) * tree.max_depth() * tree.max_degree());
    }
  }
}

TEST(ParallelScheduler, DfsPlacementSpreadsEveryLevelOverAllShards) {
  // A perfect binary tree (2^10 - 1 nodes) on 8 shards: every level
  // with at least 8 nodes has nodes on every shard, so each epoch of a
  // flood down or a report climb up the tree keeps all shards busy.
  const net::Tree tree = net::balanced_kary_tree(1'022, 2);
  SimConfig cfg;
  cfg.shards = 8;
  ParallelScheduler engine(net::dfs_preorder(tree), cfg,
                           Duration::from_ms(1));
  std::vector<std::set<std::uint32_t>> shards_at_depth(tree.max_depth() +
                                                       1);
  for (net::NodeId n = 0; n < tree.size(); ++n) {
    shards_at_depth[tree.depth(n)].insert(engine.shard_of(n));
  }
  for (std::uint32_t d = 3; d <= tree.max_depth(); ++d) {
    EXPECT_EQ(shards_at_depth[d].size(), 8u) << "depth " << d;
  }
}

TEST(ParallelScheduler, ShardCountClampedToEntities) {
  SimConfig cfg;
  cfg.threads = 16;
  cfg.shards = 16;
  ParallelScheduler engine(ids(3), cfg, Duration::from_ms(1));
  EXPECT_EQ(engine.shard_count(), 3u);
  EXPECT_LE(engine.threads(), 3u);
}

TEST(ParallelScheduler, RequiresPositiveLookaheadWhenSharded) {
  SimConfig cfg;
  cfg.threads = 2;
  EXPECT_THROW(ParallelScheduler(ids(8), cfg, Duration::zero()),
               std::invalid_argument);
  // One shard needs no lookahead: nothing ever crosses a boundary.
  EXPECT_NO_THROW(ParallelScheduler(ids(8), SimConfig{}, Duration::zero()));
}

TEST(ParallelScheduler, FifoAmongTiesWithinShard) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  ParallelScheduler engine(ids(8), cfg, Duration::from_ms(1));

  // Five same-time events on one entity (= one shard): posted order wins.
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.post(1, SimTime::from_ms(7), [&, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelScheduler, CrossShardCausalityChain) {
  SimConfig cfg;
  cfg.threads = 2;
  cfg.shards = 2;
  const Duration hop = Duration::from_ms(1);
  ParallelScheduler engine(ids(2), cfg, hop);

  // Ping-pong between the two shards: each hop adds exactly the
  // lookahead (the tightest legal cross-shard latency). A message's
  // `src` carries the hops still to go.
  std::vector<std::int64_t> arrivals;
  engine.set_message_sink([&](ShardMessage&& m) {
    arrivals.push_back(engine.shard_for(m.entity).now().ns());
    if (m.src == 0) return;
    const std::uint32_t next = m.entity == 0 ? 1 : 0;
    engine.post_message(next, engine.shard_for(m.entity).now() + hop,
                        m.src - 1, 0, {});
  });
  engine.post_message(0, SimTime::from_ms(1), 6, 0, {});
  EXPECT_EQ(engine.run(), 7u);

  ASSERT_EQ(arrivals.size(), 7u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i],
              (SimTime::from_ms(1) + hop * static_cast<std::int64_t>(i)).ns());
  }
  EXPECT_EQ(engine.cross_shard_posts(), 6u);
  // run() leaves every shard at the same (global max) clock.
  EXPECT_EQ(engine.shard(0).now(), engine.shard(1).now());
}

TEST(ParallelScheduler, LookaheadViolationThrows) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  ParallelScheduler engine(ids(2), cfg, Duration::from_ms(1));

  // A cross-shard message with zero latency lands inside the lookahead
  // window; the engine refuses rather than silently racing.
  engine.set_message_sink([&](ShardMessage&& m) {
    if (m.entity == 0) {
      engine.post_message(1, engine.shard_for(0).now(), 0, 0, {});
    }
  });
  engine.post_message(0, SimTime::from_ms(5), 0, 0, {});
  EXPECT_THROW(engine.run(), std::logic_error);
}

// The workload for the thread-count determinism check: a deterministic
// cascade over 64 entities where every delivery logs (entity-local time,
// tag) and fans out to two other entities at >= lookahead latency. A
// message's `src` carries its tag, its `kind` the depth still to go.
std::vector<std::string> run_cascade(ShardTransport transport,
                                     std::uint32_t threads) {
  SimConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;  // fixed: results must not depend on `threads`
  cfg.transport = transport;
  const std::uint32_t kEntities = 64;
  const Duration hop = Duration::from_ms(1);
  ParallelScheduler engine(ids(kEntities), cfg, hop);

  std::vector<std::string> logs(kEntities);
  engine.set_message_sink([&](ShardMessage&& m) {
    const SimTime now = engine.shard_for(m.entity).now();
    logs[m.entity] += std::to_string(m.src) + "@" +
                      std::to_string(now.ns()) + ";";
    if (m.kind == 0) return;
    const std::uint32_t a = (m.entity * 7 + 3) % kEntities;
    const std::uint32_t b = (m.entity * 13 + 11) % kEntities;
    engine.post_message(a, now + hop, m.src * 2 + 1, m.kind - 1, {});
    engine.post_message(b, now + hop + Duration::from_us(500), m.src * 2,
                        m.kind - 1, {});
  });
  for (std::uint32_t e = 0; e < kEntities; e += 9) {
    engine.post_message(e, SimTime::from_ms(1 + e % 5), e, 5, {});
  }
  engine.run();
  return logs;
}

TEST(ParallelScheduler, DeterministicAcrossThreadCounts) {
  const std::vector<std::string> serial =
      run_cascade(ShardTransport::kInproc, 1);
  for (const ShardTransport t :
       {ShardTransport::kInproc, ShardTransport::kShm}) {
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(run_cascade(t, threads), serial)
          << "transport=" << static_cast<int>(t) << " threads=" << threads;
    }
  }
}

TEST(ParallelScheduler, RunUntilAdvancesAllShardClocks) {
  SimConfig cfg;
  cfg.threads = 1;
  cfg.shards = 3;
  ParallelScheduler engine(ids(9), cfg, Duration::from_ms(1));
  bool ran = false;
  engine.post(4, SimTime::from_ms(2), [&] { ran = true; });
  engine.run_until(SimTime::from_ms(10));
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.now(), SimTime::from_ms(10));
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.shard(s).now(), SimTime::from_ms(10));
  }
}

// --- Protocol-level determinism: the ISSUE's acceptance bar ----------

std::string sap_digest(const sap::RoundReport& r) {
  std::ostringstream os;
  os << r.verified << '|' << r.chal_tick << '|' << r.t_chal.ns() << '|'
     << r.inbound_end.ns() << '|' << r.t_att.ns() << '|'
     << r.measurement_end.ns() << '|' << r.t_resp.ns() << '|' << r.u_ca_bytes
     << '|' << r.messages << '|' << r.dropped << '|' << r.devices << '|'
     << r.responded << '|' << r.repolls;
  return os.str();
}

std::string seda_digest(const seda::SedaRoundReport& r) {
  std::ostringstream os;
  os << r.verified << '|' << r.total << '|' << r.passed << '|' << r.t_req.ns()
     << '|' << r.t_resp.ns() << '|' << r.u_ca_bytes << '|' << r.messages
     << '|' << r.devices << '|' << r.mac_failures;
  return os.str();
}

std::string run_sap(std::uint32_t threads, std::uint32_t devices) {
  sap::SapConfig cfg;
  cfg.sim.threads = threads;
  auto sim = sap::SapSimulation::balanced(cfg, devices, /*seed=*/42);
  EXPECT_EQ(sim.engine()->shard_count() > 1, threads > 1);
  return sap_digest(sim.run_round());
}

TEST(ParallelProtocols, SapRoundDigestIdenticalAcrossThreads) {
  const std::uint32_t kDevices = 10'000;
  const std::string serial = run_sap(1, kDevices);
  EXPECT_EQ(run_sap(2, kDevices), serial);
  EXPECT_EQ(run_sap(8, kDevices), serial);
}

std::string run_seda(std::uint32_t threads, std::uint32_t devices) {
  seda::SedaConfig cfg;
  cfg.sim.threads = threads;
  auto sim = seda::SedaSimulation::balanced(cfg, devices, /*seed=*/42);
  EXPECT_EQ(sim.engine()->shard_count() > 1, threads > 1);
  return seda_digest(sim.run_round());
}

TEST(ParallelProtocols, SedaRoundDigestIdenticalAcrossThreads) {
  const std::uint32_t kDevices = 10'000;
  const std::string serial = run_seda(1, kDevices);
  EXPECT_EQ(run_seda(2, kDevices), serial);
  EXPECT_EQ(run_seda(8, kDevices), serial);
}

TEST(ParallelProtocols, SapMultiRoundAndAdversaryUnderSharding) {
  // Compromise + unresponsiveness must localize identically in both
  // engines across consecutive rounds: in binary and count mode, and
  // after a re-deployment, when a shard's positions no longer hold the
  // devices with the same ids, so its share of RES_S covers other ids.
  auto run = [](std::uint32_t threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    constexpr std::uint32_t kDevices = 1'000;
    sap::SapConfig cfg;
    cfg.sim.threads = threads;
    auto sim = sap::SapSimulation::balanced(cfg, kDevices, /*seed=*/7);
    std::string digest;
    const auto round = [&](bool want_verified) {
      const sap::RoundReport r = sim.run_round();
      EXPECT_EQ(r.verified, want_verified) << digest;
      digest += sap_digest(r) + "#";
    };
    round(true);
    sim.compromise_device(137);
    round(false);
    sim.restore_device(137);
    sim.set_device_unresponsive(512, true);
    round(false);
    sim.set_device_unresponsive(512, false);
    sim.set_qoa(sap::QoaMode::kCount);
    round(true);
    sim.compromise_device(300);
    round(false);
    sim.restore_device(300);
    // Reverse the devices over the positions of a 3-ary tree.
    std::vector<net::NodeId> device_at(kDevices + 1, 0);
    for (net::NodeId pos = 1; pos <= kDevices; ++pos) {
      device_at[pos] = kDevices + 1 - pos;
    }
    sim.rebuild_topology(net::balanced_kary_tree(kDevices, 3), device_at);
    round(true);
    sim.set_qoa(sap::QoaMode::kBinary);
    round(true);
    sim.compromise_device(42);
    round(false);
    return digest;
  };
  const std::string serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelProtocols, SapLossyRunReproducibleForFixedShards) {
  // Loss draws come from per-shard sub-streams: with `shards` pinned,
  // the thread count must not change which packets die.
  auto run = [](std::uint32_t threads) {
    sap::SapConfig cfg;
    cfg.adaptive.enabled = true;
    cfg.sim.threads = threads;
    cfg.sim.shards = 4;
    auto sim = sap::SapSimulation::balanced(cfg, 2'000, /*seed=*/11);
    sim.network().set_loss_rate(0.02, /*seed=*/99);
    return sap_digest(sim.run_round());
  };
  const std::string two = run(2);
  EXPECT_EQ(run(1), two);
  EXPECT_EQ(run(4), two);
}

TEST(ParallelProtocols, TamperHooksRejectedUnderSharding) {
  // One rule for all three protocols: a tamper hook needs one shard,
  // whatever the thread count — threads=1 with shards=4 is sharded too —
  // and the error names the setting that fixes it.
  const auto hook = [](const net::Message&) { return net::TamperResult{}; };
  const auto expect_rejected = [](auto&& round) {
    try {
      round();
      ADD_FAILURE() << "tamper hook accepted under sharding";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("sim.shards"), std::string::npos)
          << e.what();
    }
  };
  for (const auto& [threads, shards] :
       {std::pair<std::uint32_t, std::uint32_t>{2, 0}, {1, 4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads
                                    << " shards=" << shards);
    sap::SapConfig sap_cfg;
    sap_cfg.sim.threads = threads;
    sap_cfg.sim.shards = shards;
    auto sap_sim = sap::SapSimulation::balanced(sap_cfg, 64);
    sap_sim.network().set_tamper_hook(hook);
    expect_rejected([&] { (void)sap_sim.run_round(); });

    seda::SedaConfig seda_cfg;
    seda_cfg.sim = sap_cfg.sim;
    auto seda_sim = seda::SedaSimulation::balanced(seda_cfg, 64);
    seda_sim.network().set_tamper_hook(hook);
    expect_rejected([&] { (void)seda_sim.run_round(); });

    pads::PadsConfig pads_cfg;
    pads_cfg.sim = sap_cfg.sim;
    auto pads_sim = pads::PadsSimulation::balanced(pads_cfg, 64);
    pads_sim.network().set_tamper_hook(hook);
    expect_rejected([&] { (void)pads_sim.run_round(); });
  }
  // One shard runs the hook, at any thread count.
  sap::SapConfig cfg;
  cfg.sim.threads = 4;
  cfg.sim.shards = 1;
  auto sim = sap::SapSimulation::balanced(cfg, 64);
  std::uint64_t seen = 0;
  sim.network().set_tamper_hook([&seen](const net::Message&) {
    ++seen;
    return net::TamperResult{};
  });
  EXPECT_TRUE(sim.run_round().verified);
  EXPECT_GT(seen, 0u);
}

TEST(ParallelProtocols, DriverScheduledCallbackFires) {
  // A driver's own event lands on the owning device's shard and runs
  // inside the round, sharded or not.
  for (const std::uint32_t threads : {1u, 4u}) {
    sap::SapConfig cfg;
    cfg.sim.threads = threads;
    auto sim = sap::SapSimulation::balanced(cfg, 1'000, /*seed=*/5);
    bool fired = false;
    sim.schedule_at(700, SimTime::from_ms(1), [&fired] { fired = true; });
    EXPECT_TRUE(sim.run_round().verified);
    EXPECT_TRUE(fired) << "threads=" << threads;
    EXPECT_GT(sim.current_time(), SimTime::from_ms(1));
  }
}

TEST(ParallelProtocols, ForgedChallengeFailsRoundAtAnyThreadCount) {
  // examples/dos_mitigation.cpp's attack: without request
  // authentication, a forged chal sent through network() ahead of the
  // round steers device 1's subtree to a bogus tick. The driver-thread
  // send must reach device 1 on its shard at every thread count.
  for (const std::uint32_t threads : {1u, 4u}) {
    sap::SapConfig cfg;
    cfg.pmem_size = 16 * 1024;
    cfg.qoa = sap::QoaMode::kCount;
    cfg.sim.threads = threads;
    auto sim = sap::SapSimulation::balanced(cfg, 62, /*seed=*/11);
    const std::uint32_t forged_tick =
        sim.clock().time_to_tick_ceil(
            sim.current_time() +
            sap::request_lead_time(cfg, sim.tree().max_depth())) +
        2;
    sim.network().send(0, 1, sap::kChalMsg,
                       sap::encode_chal(forged_tick, {}, cfg.chal_size()));
    EXPECT_FALSE(sim.run_round().verified) << "threads=" << threads;
  }
}

TEST(ParallelProtocols, SedaJoinThenRoundUnderSharding) {
  auto run = [](std::uint32_t threads) {
    seda::SedaConfig cfg;
    cfg.sim.threads = threads;
    auto sim = seda::SedaSimulation::balanced(cfg, 500, /*seed=*/3);
    const auto join = sim.run_join();
    EXPECT_TRUE(join.complete);
    return seda_digest(sim.run_round());
  };
  const std::string serial = run(1);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace cra::sim
