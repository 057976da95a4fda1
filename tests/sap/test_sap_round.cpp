// End-to-end SAP rounds on synthetic swarms: soundness on honest runs,
// detection of compromised/unresponsive devices, timing/utilization
// against the analytic model.
#include "sap/swarm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "device/device.hpp"
#include "sap/analysis.hpp"

namespace cra::sap {
namespace {

SapConfig small_config() {
  SapConfig cfg;
  // Shrink PMEM so unit tests run fast; the model is unchanged.
  cfg.pmem_size = 4 * 1024;
  return cfg;
}

TEST(SapRound, HonestRunVerifies) {
  auto sim = SapSimulation::balanced(small_config(), 50, /*seed=*/1);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.devices, 50u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(SapRound, SingleDeviceSwarm) {
  auto sim = SapSimulation::balanced(small_config(), 1);
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SapRound, TwoConsecutiveRoundsUseFreshChallenges) {
  auto sim = SapSimulation::balanced(small_config(), 20);
  const RoundReport r1 = sim.run_round();
  sim.advance_time(sim::Duration::from_ms(50));
  const RoundReport r2 = sim.run_round();
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r2.verified);
  EXPECT_GT(r2.chal_tick, r1.chal_tick);  // chal never repeats
}

TEST(SapRound, CompromisedDeviceDetected) {
  auto sim = SapSimulation::balanced(small_config(), 30);
  sim.compromise_device(17);
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(SapRound, CompromisedLeafAndInnerAndRootChild) {
  for (net::NodeId victim : {1u, 2u, 15u, 30u}) {
    auto sim = SapSimulation::balanced(small_config(), 30);
    sim.compromise_device(victim);
    EXPECT_FALSE(sim.run_round().verified) << "victim=" << victim;
  }
}

TEST(SapRound, RestoreHealsTheSwarm) {
  auto sim = SapSimulation::balanced(small_config(), 30);
  sim.compromise_device(5);
  EXPECT_FALSE(sim.run_round().verified);
  sim.restore_device(5);
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SapRound, MultipleCompromisedStillDetected) {
  auto sim = SapSimulation::balanced(small_config(), 64);
  for (net::NodeId id : {3u, 9u, 27u, 54u}) sim.compromise_device(id);
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(SapRound, UnresponsiveLeafFailsVerification) {
  auto sim = SapSimulation::balanced(small_config(), 30);
  sim.set_device_unresponsive(30, true);
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
}

TEST(SapRound, UnresponsiveInnerNodeSilencesSubtreeButRoundCompletes) {
  auto sim = SapSimulation::balanced(small_config(), 62);
  sim.set_device_unresponsive(2, true);  // half the tree goes dark
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_GT(r.t_resp.ns(), r.t_att.ns());  // deadline path still returns
}

TEST(SapRound, ClockSkewBeyondTickFailsThatDevice) {
  auto sim = SapSimulation::balanced(small_config(), 20);
  // Two full ticks of skew: the device attests at the wrong real time,
  // its local check chal != readSecureClock() yields a zero token.
  sim.set_clock_skew(7, sim::Duration::from_ms(25));
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(SapRound, SubTickSkewIsHarmless) {
  auto sim = SapSimulation::balanced(small_config(), 20);
  sim.set_clock_skew(7, sim::Duration::from_us(200));
  // 0.2 ms ≪ the 10.42 ms tick: quantization absorbs it — only if the
  // attest moment stays inside the same tick. Use several devices and
  // both signs.
  sim.set_clock_skew(8, sim::Duration::from_us(-200));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SapRound, InboundCompletesBeforeTatt) {
  // Soundness observation 1 (§VI-B): chal reaches everyone before t_att.
  for (std::uint32_t n : {10u, 100u, 1000u}) {
    auto sim = SapSimulation::balanced(small_config(), n);
    const RoundReport r = sim.run_round();
    EXPECT_TRUE(r.verified);
    EXPECT_LE(r.inbound_end.ns(), r.t_att.ns()) << "N=" << n;
  }
}

TEST(SapRound, UtilizationMatchesLemma2) {
  const SapConfig cfg = small_config();
  for (std::uint32_t n : {10u, 100u, 500u}) {
    auto sim = SapSimulation::balanced(cfg, n);
    const RoundReport r = sim.run_round();
    // Every edge carries exactly one chal and one token: 40 bytes.
    EXPECT_EQ(r.u_ca_bytes, predicted_u_ca_bytes(cfg, n)) << "N=" << n;
  }
}

TEST(SapRound, RoundTimeMatchesLemma3Prediction) {
  const SapConfig cfg = small_config();
  for (std::uint32_t n : {10u, 100u, 1000u}) {
    auto sim = SapSimulation::balanced(cfg, n);
    const RoundReport r = sim.run_round();
    const double predicted =
        predicted_total(cfg, sim.tree().max_depth()).sec();
    // Tick quantization adds at most one tick (10.42 ms) of slack.
    EXPECT_NEAR(r.total().sec(), predicted, 0.015) << "N=" << n;
  }
}

TEST(SapRound, PhasesArePositiveAndSumToTotal) {
  auto sim = SapSimulation::balanced(small_config(), 200);
  const RoundReport r = sim.run_round();
  EXPECT_GT(r.inbound().ns(), 0);
  EXPECT_GE(r.slack().ns(), 0);
  EXPECT_GT(r.measurement().ns(), 0);
  EXPECT_GT(r.outbound().ns(), 0);
  EXPECT_EQ(r.inbound().ns() + r.slack().ns() + r.measurement().ns() +
                r.outbound().ns(),
            r.total().ns());
}

TEST(SapRound, MeasurementIsConstantAcrossN) {
  // Figure 3(b): the measurement phase does not depend on swarm size.
  const SapConfig cfg = small_config();
  auto sim_small = SapSimulation::balanced(cfg, 10);
  auto sim_large = SapSimulation::balanced(cfg, 1000);
  EXPECT_EQ(sim_small.run_round().measurement().ns(),
            sim_large.run_round().measurement().ns());
}

TEST(SapRound, LineTopologyStillSound) {
  // Eq. 9 adapts to any tree depth: a 40-deep path still verifies.
  auto sim = SapSimulation(small_config(), net::line_tree(40));
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
}

TEST(SapRound, RandomTopologiesSound) {
  const SapConfig cfg = small_config();
  for (std::uint64_t seed : {3ULL, 5ULL, 8ULL}) {
    Rng rng(seed);
    auto sim = SapSimulation(cfg, net::random_tree(200, 4, rng), seed);
    EXPECT_TRUE(sim.run_round().verified) << "seed=" << seed;
  }
}

TEST(SapRound, SecondRoundAfterCompromiseIsIndependent) {
  auto sim = SapSimulation::balanced(small_config(), 16);
  EXPECT_TRUE(sim.run_round().verified);
  sim.compromise_device(4);
  sim.advance_time(sim::Duration::from_ms(30));
  EXPECT_FALSE(sim.run_round().verified);
  sim.restore_device(4);
  sim.compromise_device(11);
  sim.advance_time(sim::Duration::from_ms(30));
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(SapRound, SecondCompromiseKeepsTheDeviceInfected) {
  // Regression: every compromise flipped PMEM byte 0, so a second call
  // restored cfg_i while is_compromised() stayed true, and the round
  // verified.
  auto sim = SapSimulation::balanced(small_config(), 30);
  sim.compromise_device(5);
  sim.compromise_device(5);
  EXPECT_TRUE(sim.is_compromised(5));
  EXPECT_FALSE(sim.run_round().verified);
  sim.restore_device(5);
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SapRound, PerDeviceHooksRejectIdsOutsideTheSwarm) {
  // Regression: the hooks indexed the device table unchecked, so id 0
  // wrote before it and id N+1 past it. Record 0 is Vrf's round state,
  // which no hook may reach: set_device_unresponsive(0, true) would make
  // Vrf deaf.
  const SapConfig cfg = small_config();
  auto sim = SapSimulation::balanced(cfg, 10);
  device::DeviceConfig dcfg;
  dcfg.layout = device::MemoryLayout{256, cfg.pmem_size, 1024, 4096};
  device::Device vm(1, dcfg, sim.verifier().device_key(1), Bytes(20, 1));
  for (const net::NodeId id : {0u, 11u}) {
    EXPECT_THROW(sim.compromise_device(id), std::out_of_range) << id;
    EXPECT_THROW(sim.restore_device(id), std::out_of_range) << id;
    EXPECT_THROW((void)sim.is_compromised(id), std::out_of_range) << id;
    EXPECT_THROW(sim.set_device_unresponsive(id, true), std::out_of_range)
        << id;
    EXPECT_THROW(sim.set_clock_skew(id, sim::Duration::from_ms(1)),
                 std::out_of_range)
        << id;
    EXPECT_THROW(sim.assign_device_class(id, 0), std::out_of_range) << id;
    EXPECT_THROW((void)sim.device_class(id), std::out_of_range) << id;
    EXPECT_THROW((void)sim.attest_time_for(id), std::out_of_range) << id;
    EXPECT_THROW(sim.attach_vm(id, &vm), std::out_of_range) << id;
  }
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 10u);
}

TEST(SapRound, FaultPlanNamingAStrangerIsRefusedAtAttach) {
  // A plan is checked when it is attached, not when a round arms it
  // after the challenge has left: one naming device N+1 is refused, the
  // plan attached before it (or none) stays, and the next round
  // verifies.
  SapConfig cfg = small_config();
  cfg.sim.threads = 2;
  cfg.sim.shards = 2;
  auto sim = SapSimulation::balanced(cfg, 64);
  const sim::SimTime t = sim.current_time() + sim::Duration::from_ms(1);
  EXPECT_THROW(sim.attach_fault_plan(fault::FaultPlan().crash(t, 65)),
               std::out_of_range);
  EXPECT_FALSE(sim.has_fault_plan());
  sim.attach_fault_plan(fault::FaultPlan().wake(t, 3));
  EXPECT_THROW(sim.attach_fault_plan(fault::FaultPlan().wake(t, 3).crash(t, 65)),
               std::out_of_range);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 64u);
  ASSERT_NE(sim.fault_tally(), nullptr);
  EXPECT_EQ(sim.fault_tally()->wakes, 1u);  // the plan before was armed
}

TEST(SapRound, Sha256ParameterAlsoWorks) {
  SapConfig cfg = small_config();
  cfg.alg = crypto::HashAlg::kSha256;
  auto sim = SapSimulation::balanced(cfg, 30);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  // l = 256: per-link bytes = 2 x 32.
  EXPECT_EQ(r.u_ca_bytes, 64u * 30u);
}

}  // namespace
}  // namespace cra::sap
