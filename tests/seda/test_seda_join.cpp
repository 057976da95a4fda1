// SEDA's join phase: X25519 pairwise-key agreement per tree edge.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "seda/seda.hpp"

namespace cra::seda {
namespace {

SedaConfig fast() {
  SedaConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.sig_verify_cycles = 1'000'000;
  cfg.dh_cycles = 2'000'000;  // scaled with the rest of the fast profile
  return cfg;
}

TEST(SedaJoin, CompletesAndRoundsStillVerify) {
  auto sim = SedaSimulation::balanced(fast(), 30);
  const SedaJoinReport join = sim.run_join();
  EXPECT_TRUE(join.complete);
  EXPECT_EQ(join.edges, 30u);
  EXPECT_GT(join.messages, 0u);
  // DH-agreed keys replaced the provisioned ones on BOTH ends — the
  // round only verifies if every edge derived matching halves.
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SedaJoin, JoinCostScalesWithDhAndDepth) {
  SedaConfig cfg = fast();
  auto sim = SedaSimulation::balanced(cfg, 62);
  const SedaJoinReport join = sim.run_join();
  // Critical path: invites cascade (children get theirs before the
  // parent's DH grinds), then each level pays one DH before acking.
  const double dh_sec = static_cast<double>(cfg.dh_cycles) / 24e6;
  EXPECT_GT(join.total_time.sec(), dh_sec);          // at least one DH
  EXPECT_LT(join.total_time.sec(), 12 * dh_sec);     // pipelined, not serial
}

TEST(SedaJoin, WireCostIsTwoKeysPerEdge) {
  auto sim = SedaSimulation::balanced(fast(), 30);
  const SedaJoinReport join = sim.run_join();
  EXPECT_EQ(join.bytes, 2ull * 32ull * 30ull);  // invite + ack per edge
  EXPECT_EQ(join.messages, 60u);
}

TEST(SedaJoin, CorruptedKeyHalfBreaksThatUplink) {
  auto sim = SedaSimulation::balanced(fast(), 14);
  ASSERT_TRUE(sim.run_join().complete);
  sim.corrupt_join_key(3);  // MitM'd agreement on 3's uplink
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_GE(r.mac_failures, 1u);
  // 3 heads a 3-device subtree ({3,7,8}) of the 14-device tree; its
  // whole aggregate is rejected at node 1.
  EXPECT_EQ(r.total, 11u);
}

// SEDA's join-ack message kind on the wire (child -> parent, carrying
// the child's 32-byte public key).
constexpr std::uint32_t kJoinAck = 4;

TEST(SedaJoin, ForgedAckToUninvitedDeviceIsDropped) {
  for (const std::uint32_t shards : {1u, 4u}) {
    SedaConfig cfg = fast();
    cfg.sim.shards = shards;
    auto sim = SedaSimulation::balanced(cfg, 14);
    // 3 is a child of 1, but no join has invited 1, so it holds no
    // keypair to agree with.
    sim.network().send(3, 1, kJoinAck, Bytes(32, 0x42));
    SedaRoundReport r;
    ASSERT_NO_THROW(r = sim.run_round()) << "shards=" << shards;
    EXPECT_TRUE(r.verified) << "shards=" << shards;
  }
}

TEST(SedaJoin, AckFromANonChildIsDropped) {
  auto sim = SedaSimulation::balanced(fast(), 14);
  ASSERT_TRUE(sim.run_join().complete);
  // 5 is a child of 2, not of 1 or of Vrf: neither may re-key 5's
  // uplink (or 3's, which 1 verifies) from a forged public key.
  sim.network().send(5, 1, kJoinAck, Bytes(32, 0x42));
  sim.network().send(3, 0, kJoinAck, Bytes(32, 0x42));
  // The second round runs after any DH a forged ack could have started.
  for (int round = 0; round < 2; ++round) {
    const SedaRoundReport r = sim.run_round();
    EXPECT_TRUE(r.verified) << "round " << round;
    EXPECT_EQ(r.mac_failures, 0u) << "round " << round;
  }
}

TEST(SedaJoin, UnresponsiveDeviceBlocksItsSubtreeJoin) {
  auto sim = SedaSimulation::balanced(fast(), 14);
  sim.set_device_unresponsive(2, true);
  const SedaJoinReport join = sim.run_join();
  EXPECT_FALSE(join.complete);  // 2's subtree never key-agreed
  // Un-joined edges keep their provisioning-time pre-shared keys on
  // BOTH ends, so once the device wakes up the swarm still attests —
  // join upgrades keys, it is not a liveness gate.
  sim.set_device_unresponsive(2, false);
  const SedaRoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
}

TEST(SedaJoin, CompromiseDetectionUnaffectedByJoin) {
  auto sim = SedaSimulation::balanced(fast(), 20);
  ASSERT_TRUE(sim.run_join().complete);
  sim.compromise_device(11);
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.passed, 19u);
}

}  // namespace
}  // namespace cra::seda
