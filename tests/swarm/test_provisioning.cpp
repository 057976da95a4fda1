// Setup on the shard workers: SwarmRuntime::for_each_shard, and the
// per-shard provisioning SAP, SEDA and PADS run on it. Provisioned keys
// and contents depend only on (master, label, id), so nothing a
// constructor derives may vary with the thread count, the shard count
// or the placement.
#include "swarm/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "pads/pads.hpp"
#include "sap/swarm.hpp"
#include "seda/seda.hpp"

namespace cra::swarm {
namespace {

sim::SimConfig placement(std::uint32_t threads, std::uint32_t shards) {
  sim::SimConfig sim;
  sim.threads = threads;
  sim.shards = shards;
  return sim;
}

/// Runs for_each_shard on a runtime of `shards` shards over `threads`
/// threads and returns, per shard, the thread that ran it.
std::vector<std::thread::id> worker_of_each_shard(std::uint32_t threads,
                                                  std::uint32_t shards) {
  const net::Tree tree = net::balanced_kary_tree(100, 2);
  SwarmRuntime rt(tree, placement(threads, shards), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  std::vector<std::thread::id> worker(shards);
  std::vector<int> calls(shards, 0);
  rt.for_each_shard([&](std::uint32_t s) {
    worker[s] = std::this_thread::get_id();
    ++calls[s];
  });
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(calls[s], 1) << "shard " << s;
  }
  return worker;
}

TEST(ForEachShard, RunsEveryShardOnceOnWorkerShardModThreads) {
  const auto worker = worker_of_each_shard(4, 8);
  std::map<std::thread::id, int> shards_per_thread;
  for (const auto& id : worker) ++shards_per_thread[id];
  EXPECT_EQ(shards_per_thread.size(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(worker[s], worker[s + 4]) << "shard " << s;
  }
  EXPECT_EQ(worker[0], std::this_thread::get_id());  // worker 0: the caller
}

TEST(ForEachShard, OneThreadOrOneShardRunsInline) {
  for (const auto& id : worker_of_each_shard(1, 8)) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  for (const auto& id : worker_of_each_shard(4, 1)) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ForEachShard, RethrowsAfterJoiningEveryWorker) {
  const net::Tree tree = net::balanced_kary_tree(100, 2);
  SwarmRuntime rt(tree, placement(4, 8), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  std::vector<int> ran(8, 0);
  EXPECT_THROW(rt.for_each_shard([&](std::uint32_t s) {
                 ran[s] = 1;
                 if (s == 2) throw std::runtime_error("shard 2");
               }),
               std::runtime_error);
  // Shards on the other workers all ran; they were joined before the
  // rethrow, so reading `ran` here is race-free.
  for (std::uint32_t s : {0u, 1u, 3u, 4u, 5u, 7u}) EXPECT_EQ(ran[s], 1) << s;
}

TEST(EntitiesOf, PartitionsTheRangeByOwningShard) {
  const net::Tree tree = net::balanced_kary_tree(1000, 3);
  SwarmRuntime rt(tree, placement(2, 8), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  std::vector<int> seen(tree.size(), 0);
  for (std::uint32_t s = 0; s < 8; ++s) {
    std::uint32_t prev = 0;
    for (const std::uint32_t e : rt.entities_of(s, 1)) {
      EXPECT_EQ(rt.shard_of(e), s);
      EXPECT_GT(e, prev);  // ascending, and entity 0 excluded
      prev = e;
      ++seen[e];
    }
  }
  EXPECT_EQ(seen[0], 0);
  for (std::uint32_t e = 1; e < tree.size(); ++e) EXPECT_EQ(seen[e], 1) << e;
}

TEST(BeginWindow, RunsTheOpenStepOnEveryShardInsideOneSpan) {
  // A round opens with the protocol's step on every shard, on the
  // workers for_each_shard uses, inside one swarm.round_open span
  // however many shards there are. A window with no step records none.
  const net::Tree tree = net::balanced_kary_tree(100, 2);
  SwarmRuntime rt(tree, placement(4, 8), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  obs::TraceSink sink;
  obs::set_global_sink(&sink);
  std::vector<int> calls(8, 0);
  {
    const SwarmRuntime::Window window =
        rt.begin_window([&](std::uint32_t s) { ++calls[s]; });
    rt.run_window();
  }
  const SwarmRuntime::Window window = rt.begin_window();
  rt.run_window();
  obs::set_global_sink(nullptr);
  for (std::uint32_t s = 0; s < 8; ++s) EXPECT_EQ(calls[s], 1) << s;
  const std::string json = sink.to_json();
  const std::string name = "\"name\":\"swarm.round_open\"";
  std::size_t spans = 0;
  for (auto at = json.find(name); at != std::string::npos;
       at = json.find(name, at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, 1u);
}

TEST(RoundFlag, OneWindowAtATimeAndTheSettersWaitForIt) {
  const net::Tree tree = net::balanced_kary_tree(100, 2);
  SwarmRuntime rt(tree, placement(2, 4), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  EXPECT_THROW(rt.run_window(), std::logic_error);  // nothing open
  {
    const SwarmRuntime::Window window = rt.begin_window();
    EXPECT_THROW((void)rt.begin_window(), std::logic_error);
    EXPECT_THROW((void)rt.open_window(), std::logic_error);
    EXPECT_THROW(rt.require_idle("set_qoa"), std::logic_error);
    EXPECT_THROW(rt.attach_fault_plan(fault::FaultPlan{}), std::logic_error);
    EXPECT_THROW(rt.clear_fault_plan(), std::logic_error);
    rt.run_window();
    EXPECT_NO_THROW(rt.require_idle("set_qoa"));
  }
  {
    const SwarmRuntime::Window window = rt.open_window();
    EXPECT_THROW((void)rt.begin_window(), std::logic_error);
    rt.run_window();
  }
  EXPECT_EQ(rt.windows(), 2u);
  rt.attach_fault_plan(fault::FaultPlan{});
  EXPECT_TRUE(rt.has_fault_plan());
}

TEST(RoundFlag, AnUnwoundWindowDropsWhatItLeftPendingAndCloses) {
  // A handler throws in the first epoch. Every event the window left
  // pending, on every shard, is dropped when its guard unwinds, the
  // shard clocks agree again, and the next window opens and runs only
  // its own events: at one shard and at eight on four threads.
  for (const auto& [threads, shards] :
       {std::pair<std::uint32_t, std::uint32_t>{1, 1}, {4, 8}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads, " << shards
                                    << " shards");
    const net::Tree tree = net::balanced_kary_tree(100, 2);
    SwarmRuntime rt(tree, placement(threads, shards), net::LinkParams{},
                    [](const net::Message&) {},
                    [](const fault::FaultEvent&) {});
    // Each element is written only on its entity's shard.
    std::vector<int> stale(tree.size(), 0);
    std::vector<int> fresh(tree.size(), 0);
    try {
      const SwarmRuntime::Window window = rt.begin_window();
      for (std::uint32_t e = 0; e < tree.size(); ++e) {
        rt.post(e, sim::SimTime::from_ms(1), [&rt, &stale, e] {
          if (e == 37) throw std::runtime_error("handler");
          rt.post(e, sim::SimTime::from_sec(5), [&stale, e] { ++stale[e]; });
        });
      }
      rt.run_window();
      ADD_FAILURE() << "the handler's exception was swallowed";
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(rt.windows(), 0u);
    for (std::uint32_t e = 0; e < tree.size(); ++e) {
      ASSERT_EQ(rt.sched(e).now(), rt.now()) << e;
    }
    const sim::SimTime next = rt.now() + sim::Duration::from_ms(1);
    {
      const SwarmRuntime::Window window = rt.begin_window();
      for (std::uint32_t e = 0; e < tree.size(); ++e) {
        rt.post(e, next, [&fresh, e] { ++fresh[e]; });
      }
      rt.run_window();
    }
    for (std::uint32_t e = 0; e < tree.size(); ++e) {
      EXPECT_EQ(stale[e], 0) << e;
      EXPECT_EQ(fresh[e], 1) << e;
    }
    EXPECT_LT(rt.now(), sim::SimTime::from_sec(5));
  }
}

TEST(AttachFaultPlan, RefusesEventsOutsideTheSwarmBeforeChangingAnything) {
  const net::Tree tree = net::balanced_kary_tree(100, 2);  // positions 0..100
  SwarmRuntime rt(tree, placement(1, 1), net::LinkParams{},
                  [](const net::Message&) {}, [](const fault::FaultEvent&) {});
  const sim::SimTime t = sim::SimTime::from_ms(1);
  const auto refused = [&](const fault::FaultPlan& plan) {
    EXPECT_THROW(rt.attach_fault_plan(plan), std::out_of_range);
  };
  refused(fault::FaultPlan().crash(t, 101));
  refused(fault::FaultPlan().sleep(t, 0));  // Vrf is not a device
  refused(fault::FaultPlan().clock_skew(t, 1000, sim::Duration::from_ms(1)));
  refused(fault::FaultPlan().wake(t, 5).link_down(t, 3, 101));
  refused(fault::FaultPlan().partition(t, {4, 9, 101}));
  EXPECT_FALSE(rt.has_fault_plan());  // none before, none after

  rt.attach_fault_plan(fault::FaultPlan()
                           .crash(t, 100)
                           .link_down(t, 0, 100)
                           .partition(t, {0, 50})
                           .loss_spike(t, 0.5)
                           .proc_kill(t, 1000));  // a process, not a device
  const fault::FaultTally* tally = rt.fault_tally();
  refused(fault::FaultPlan().leave(t, 101));
  EXPECT_EQ(rt.fault_tally(), tally);  // the plan before stays
}

// --- Protocol provisioning at (threads 1, shards 1) vs (threads 4, shards 8)

TEST(ProvisioningPlacement, SapKeysAndContentsIdentical) {
  constexpr std::uint32_t kDevices = 2000;
  auto build = [](std::uint32_t threads, std::uint32_t shards) {
    sap::SapConfig cfg;
    cfg.sim = placement(threads, shards);
    return sap::SapSimulation::balanced(cfg, kDevices, /*seed=*/11);
  };
  auto serial = build(1, 1);
  auto sharded = build(4, 8);
  ASSERT_EQ(sharded.engine()->shard_count(), 8u);
  const sap::Verifier& a = serial.verifier();
  const sap::Verifier& b = sharded.verifier();
  std::uint8_t chal[4];
  store_u32le(chal, 7);
  for (net::NodeId id = 1; id <= kDevices; ++id) {
    ASSERT_EQ(a.device_key(id), b.device_key(id)) << id;
    ASSERT_EQ(a.expected_content(id), b.expected_content(id)) << id;
    // The worker-provisioned midstates are those of the derived key.
    Bytes msg = b.expected_content(id);
    msg.insert(msg.end(), chal, chal + 4);
    ASSERT_EQ(b.expected_token(id, 7),
              crypto::hmac(b.config().alg, b.device_key(id), msg))
        << id;
  }
  EXPECT_TRUE(serial.run_round().verified);
  EXPECT_TRUE(sharded.run_round().verified);
}

std::string seda_digest(const seda::SedaJoinReport& j,
                        const seda::SedaRoundReport& r) {
  std::ostringstream os;
  os << j.complete << '|' << j.edges << '|' << j.total_time.ns() << '|'
     << j.bytes << '|' << j.messages << '#' << r.verified << '|' << r.total
     << '|' << r.passed << '|' << r.t_req.ns() << '|' << r.t_resp.ns() << '|'
     << r.u_ca_bytes << '|' << r.messages << '|' << r.mac_failures;
  return os.str();
}

TEST(ProvisioningPlacement, SedaJoinAndRoundDigestsIdentical) {
  auto run = [](std::uint32_t threads, std::uint32_t shards) {
    seda::SedaConfig cfg;
    cfg.sim = placement(threads, shards);
    auto sim = seda::SedaSimulation::balanced(cfg, 300, /*seed=*/5);
    // Pre-shared keys first, then the keypairs derived during the join.
    const seda::SedaRoundReport before = sim.run_round();
    EXPECT_TRUE(before.verified);
    const seda::SedaJoinReport join = sim.run_join();
    EXPECT_TRUE(join.complete);
    const seda::SedaRoundReport after = sim.run_round();
    EXPECT_TRUE(after.verified);
    EXPECT_EQ(after.mac_failures, 0u);
    return seda_digest(join, after) + "@" +
           seda_digest(seda::SedaJoinReport{}, before);
  };
  EXPECT_EQ(run(4, 8), run(1, 1));
}

TEST(ProvisioningPlacement, PadsRoundDigestsIdentical) {
  auto run = [](std::uint32_t threads, std::uint32_t shards) {
    pads::PadsConfig cfg;
    cfg.sim = placement(threads, shards);
    auto sim = pads::PadsSimulation::balanced(cfg, 200, /*seed=*/9);
    sim.compromise_device(150);  // a leaf: gossip still reaches everyone
    const pads::PadsRoundReport r = sim.run_round();
    EXPECT_GT(r.token_failures, 0u);
    return r.digest;
  };
  EXPECT_EQ(run(4, 8), run(1, 1));
}

}  // namespace
}  // namespace cra::swarm
