// PADS protocol rounds: clean convergence, compromise detection,
// membership churn, mid-round mobility, and engine invariance.
#include "pads/pads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "pads/messages.hpp"

namespace cra::pads {
namespace {

PadsConfig small_config() {
  PadsConfig cfg;
  cfg.pmem_size = 4 * 1024;  // keep simulated attestation short
  return cfg;
}

TEST(PadsRound, CleanRoundConvergesCompletely) {
  auto sim = PadsSimulation::balanced(small_config(), 30);
  const PadsRoundReport r = sim.run_round();
  EXPECT_EQ(r.devices, 30u);
  EXPECT_EQ(r.present, 30u);
  EXPECT_EQ(r.known, 30u);
  EXPECT_EQ(r.untrusted, 0u);
  EXPECT_EQ(r.false_untrusted, 0u);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.completion(), 1.0);
  EXPECT_EQ(r.token_failures, 0u);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.u_ca_bytes, 0u);
  // The verifier's verdict lands before the gossip budget runs out.
  EXPECT_GT(r.consensus_at, r.t_start);
  EXPECT_LT(r.consensus_at, r.t_end);
  EXPECT_EQ(r.digest.size(), 64u);  // SHA-256 hex
}

TEST(PadsRound, CompromisedLeafIsDetectedNotTrusted) {
  auto sim = PadsSimulation::balanced(small_config(), 30);
  // Leaves only: a compromised interior device would also partition the
  // gossip (nothing it relays is believed), which is the next test.
  sim.compromise_device(29);
  sim.compromise_device(30);
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.known, 30u);
  EXPECT_EQ(r.untrusted, 2u);
  EXPECT_EQ(r.false_untrusted, 0u);
  // Every neighbor that heard the forged tokens rejected them.
  EXPECT_GT(r.token_failures, 0u);
}

TEST(PadsRound, CompromisedInteriorNodeBlocksItsSubtree) {
  // Line topology: 0 - 1 - 2 - ... - 10. Compromising device 5 cuts the
  // only gossip path, so devices 6..10 stay unknown at the verifier —
  // min-consensus refuses to launder knowledge through an untrusted
  // relay.
  auto sim = PadsSimulation(small_config(), net::line_tree(10));
  sim.compromise_device(5);
  const PadsRoundReport r = sim.run_round();
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.known, 5u);  // 1..4 plus the untrusted verdict on 5
  EXPECT_EQ(r.untrusted, 1u);
  EXPECT_EQ(r.false_untrusted, 0u);
}

TEST(PadsRound, CrashedDeviceLeavesHoleButNoFalseVerdict) {
  // A leaf (position 15 in the 20-device balanced binary tree), so only
  // its own evidence goes missing; a crashed interior relay would also
  // shadow its subtree, as CompromisedInteriorNodeBlocksItsSubtree pins
  // down for the equivalent routing cut.
  auto sim = PadsSimulation::balanced(small_config(), 20);
  fault::FaultPlan plan;
  plan.crash(sim::Duration::from_ms(1) + sim.current_time(), 15);
  sim.attach_fault_plan(std::move(plan));
  const PadsRoundReport r = sim.run_round();
  // Crashed before it could attest: present but never known.
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.present, 20u);
  EXPECT_EQ(r.known, 19u);
  EXPECT_EQ(r.untrusted, 0u);
  EXPECT_EQ(r.false_untrusted, 0u);
}

TEST(PadsRound, DepartedDeviceShrinksConsensusTarget) {
  auto sim = PadsSimulation::balanced(small_config(), 20);
  fault::FaultPlan plan;
  plan.leave(sim.current_time(), 13);
  sim.attach_fault_plan(std::move(plan));
  const PadsRoundReport r = sim.run_round();
  // The absent device is out of the swarm, not a completion hole.
  EXPECT_FALSE(sim.device_present(13));
  EXPECT_EQ(r.present, 19u);
  EXPECT_EQ(r.known, 19u);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.completion(), 1.0);
}

TEST(PadsRound, LateJoinerIsPresentButUnknownThisRound) {
  auto sim = PadsSimulation::balanced(small_config(), 20);
  fault::FaultPlan plan;
  plan.leave(sim.current_time(), 17);  // a leaf: no subtree to shadow
  // Rejoins mid-round, long after the synchronized self-attestation
  // instant: it counts toward membership again but cannot produce
  // evidence until the next round.
  plan.join(sim.current_time() + sim::Duration::from_ms(400), 17);
  sim.attach_fault_plan(std::move(plan));
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(sim.device_present(17));
  EXPECT_EQ(r.present, 20u);
  EXPECT_EQ(r.known, 19u);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.consensus_at, r.t_end);
}

TEST(PadsRound, MidRoundRewireStillConverges) {
  PadsConfig cfg = small_config();
  auto sim = PadsSimulation::balanced(cfg, 40);
  const sim::SimTime t0 = sim.current_time();
  // Swap the whole layout mid-round: device i moves to the mirrored
  // position. Gossip routed over the new tree must still converge.
  std::vector<net::NodeId> perm(41);
  perm[0] = 0;
  for (net::NodeId p = 1; p <= 40; ++p) perm[p] = 41 - p;
  std::vector<net::RewireStep> steps;
  steps.push_back(net::RewireStep{t0 + sim::Duration::from_ms(300),
                                  net::balanced_kary_tree(40), perm});
  sim.set_rewire_schedule(std::move(steps));
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.known, 40u);
  EXPECT_EQ(r.false_untrusted, 0u);
}

TEST(PadsRound, WaypointMobilityScheduleConverges) {
  PadsConfig cfg = small_config();
  cfg.gossip_epochs = 40;  // slack: rewires can orphan in-flight hops
  auto sim = PadsSimulation::balanced(cfg, 24, /*seed=*/5);
  const sim::SimTime t0 = sim.current_time();
  net::MobilityConfig mcfg;
  mcfg.step = sim::Duration::from_ms(500);
  sim.set_rewire_schedule(net::mobility_schedule(
      24, mcfg, /*seed=*/5, t0, t0 + sim::Duration::from_sec(4.0)));
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.false_untrusted, 0u);
}

TEST(PadsRound, PerLinkLedgersStayConsistent) {
  auto sim = PadsSimulation::balanced(small_config(), 15);
  sim.network().enable_per_link_accounting(true);
  // run_round() calls assert_ledgers_consistent() on every network.
  EXPECT_NO_THROW(sim.run_round());
}

TEST(PadsRound, SecondRoundRunsFreshState) {
  auto sim = PadsSimulation::balanced(small_config(), 12);
  const PadsRoundReport r1 = sim.run_round();
  sim.advance_time(sim::Duration::from_ms(50));
  sim.compromise_device(3);
  const PadsRoundReport r2 = sim.run_round();
  EXPECT_TRUE(r1.converged);
  EXPECT_EQ(r1.untrusted, 0u);
  EXPECT_EQ(r2.untrusted, 1u);
  EXPECT_NE(r1.digest, r2.digest);
}

TEST(PadsRound, GossipPeriodFlooredAtLinkTraversal) {
  PadsConfig cfg = small_config();
  cfg.gossip_period = sim::Duration::from_ns(1);  // absurdly fast
  auto sim = PadsSimulation::balanced(cfg, 100);
  EXPECT_GE(sim.effective_gossip_period(),
            sim.network().link_delay(sim.gossip_wire_size()));
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
}

TEST(PadsRound, TokenSizeValidated) {
  PadsConfig cfg = small_config();
  cfg.token_size = 0;
  EXPECT_THROW(PadsSimulation::balanced(cfg, 4), std::invalid_argument);
  cfg.token_size = 64;  // > SHA-1 digest
  EXPECT_THROW(PadsSimulation::balanced(cfg, 4), std::invalid_argument);
}

TEST(PadsRound, PerDeviceHooksRejectIdsOutsideTheSwarm) {
  auto sim = PadsSimulation::balanced(small_config(), 10);
  for (const net::NodeId id : {0u, 11u}) {
    EXPECT_THROW(sim.compromise_device(id), std::out_of_range) << id;
    EXPECT_THROW(sim.restore_device(id), std::out_of_range) << id;
    EXPECT_THROW(sim.set_device_unresponsive(id, true), std::out_of_range)
        << id;
  }
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.untrusted, 0u);
}

TEST(PadsRound, WellFormedGossipToAStrayAddressIsDropped) {
  // Regression: the handler indexed the membership and device tables by
  // the destination unchecked, so a well-formed gossip message sent to
  // an id outside the swarm read past both.
  auto sim = PadsSimulation::balanced(small_config(), 10);
  GossipMsg g;
  g.sender = 1;
  g.devices = 10;
  g.token = Bytes(small_config().token_size, 0);
  g.known.assign(knowledge_blocks(10), ~0ULL);
  g.bad.assign(knowledge_blocks(10), ~0ULL);
  sim.network().send(1, 5'000'000, kGossipKind, g.encode());
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.untrusted, 0u);
}

TEST(PadsRound, RebuildTopologyValidatesShape) {
  auto sim = PadsSimulation::balanced(small_config(), 8);
  EXPECT_THROW(sim.rebuild_topology(net::balanced_kary_tree(9),
                                    std::vector<net::NodeId>(10)),
               std::invalid_argument);
  std::vector<net::NodeId> not_perm(9, 0);
  EXPECT_THROW(sim.rebuild_topology(net::balanced_kary_tree(8), not_perm),
               std::invalid_argument);
}

TEST(PadsRound, FaultPlanNamingAStrangerIsRefusedAtAttach) {
  // As for SAP: refused at attach, the plan before stays, and the next
  // round converges.
  PadsConfig cfg = small_config();
  cfg.sim.threads = 2;
  cfg.sim.shards = 2;
  auto sim = PadsSimulation::balanced(cfg, 64);
  const sim::SimTime t = sim.current_time() + sim::Duration::from_ms(1);
  EXPECT_THROW(sim.attach_fault_plan(fault::FaultPlan().leave(t, 65)),
               std::out_of_range);
  EXPECT_FALSE(sim.has_fault_plan());
  sim.attach_fault_plan(fault::FaultPlan().wake(t, 3));
  EXPECT_THROW(sim.attach_fault_plan(fault::FaultPlan().crash(t, 65)),
               std::out_of_range);
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.known, 64u);
  ASSERT_NE(sim.fault_tally(), nullptr);
  EXPECT_EQ(sim.fault_tally()->wakes, 1u);
}

TEST(PadsRound, MalformedRewireAbortsOnlyItsRound) {
  // A rewire step that rebuild_topology refuses throws between two
  // run_until slices of the round. The round unwinds, drops its pending
  // gossip and closes; the schedule went with it, and the next round
  // converges.
  PadsConfig cfg = small_config();
  cfg.sim.threads = 2;
  cfg.sim.shards = 2;
  auto sim = PadsSimulation::balanced(cfg, 40);
  std::vector<net::RewireStep> steps;
  steps.push_back(net::RewireStep{
      sim.current_time() + sim::Duration::from_ms(300),
      net::balanced_kary_tree(39), std::vector<net::NodeId>(40)});
  sim.set_rewire_schedule(std::move(steps));
  EXPECT_THROW((void)sim.run_round(), std::invalid_argument);
  EXPECT_NO_THROW(sim.set_rewire_schedule({}));
  const PadsRoundReport r = sim.run_round();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.known, 40u);
  EXPECT_EQ(r.token_failures, 0u);
}

TEST(PadsRound, EveryGossipPayloadDecodesToItsSender) {
  // gossip_tick and GossipMsg share one encoder. Every payload a round
  // sends decodes, and re-encodes byte for byte, to its sender's id,
  // the swarm's width, an epoch of the round and one token per sender;
  // receivers reject exactly the compromised sender's.
  const PadsConfig cfg = small_config();
  auto sim = PadsSimulation::balanced(cfg, 30);
  sim.compromise_device(9);
  std::vector<net::Message> sent;
  sim.network().set_tamper_hook([&sent](const net::Message& m) {
    if (m.kind == kGossipKind) sent.push_back(m);
    return net::TamperResult{};
  });
  const PadsRoundReport r = sim.run_round();
  ASSERT_FALSE(sent.empty());
  std::map<net::NodeId, Bytes> token_of;
  std::set<std::uint32_t> epochs;
  std::uint32_t from_nine = 0;
  for (const net::Message& m : sent) {
    const auto g = GossipMsg::decode(m.payload);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->sender, m.src);
    EXPECT_EQ(g->devices, 30u);
    EXPECT_LT(g->epoch, r.epochs);
    EXPECT_EQ(g->token.size(), cfg.token_size);
    EXPECT_EQ(g->encode(), m.payload);
    EXPECT_EQ(token_of.emplace(g->sender, g->token).first->second, g->token)
        << g->sender;
    epochs.insert(g->epoch);
    from_nine += g->sender == 9 ? 1 : 0;
  }
  EXPECT_EQ(token_of.size(), 31u);  // every device and Vrf gossiped
  EXPECT_EQ(epochs.size(), r.epochs);
  EXPECT_GT(from_nine, 0u);
  EXPECT_EQ(r.token_failures, from_nine);
}

TEST(PadsRound, SmallCrossEngineDigestsMatch) {
  // The determinism contract in miniature (test_determinism.cpp runs the
  // 10k-device acceptance version): serial scheduler vs sharded engine,
  // same seed, byte-identical round digest.
  PadsConfig serial = small_config();
  auto a = PadsSimulation::balanced(serial, 50, /*seed=*/3);

  PadsConfig sharded = small_config();
  sharded.sim.threads = 4;
  sharded.sim.shards = 4;
  auto b = PadsSimulation::balanced(sharded, 50, /*seed=*/3);
  ASSERT_GT(b.engine()->shard_count(), 1u);

  const std::string da = a.run_round().digest;
  const std::string db = b.run_round().digest;
  EXPECT_EQ(da, db);
}

}  // namespace
}  // namespace cra::pads
