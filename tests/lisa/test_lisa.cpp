// The two LISA baselines.
#include "lisa/lisa.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cra::lisa {
namespace {

LisaConfig fast(LisaVariant variant) {
  LisaConfig cfg;
  cfg.variant = variant;
  cfg.pmem_size = 4 * 1024;
  return cfg;
}

class LisaBothVariants : public ::testing::TestWithParam<LisaVariant> {};

TEST_P(LisaBothVariants, HonestRoundVerifies) {
  auto sim = LisaSimulation::balanced(fast(GetParam()), 30);
  const LisaRoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 30u);
  EXPECT_TRUE(r.bad.empty());
  EXPECT_TRUE(r.missing.empty());
}

TEST_P(LisaBothVariants, CompromisedDeviceNamed) {
  auto sim = LisaSimulation::balanced(fast(GetParam()), 30);
  sim.compromise_device(17);
  const LisaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.bad, std::vector<net::NodeId>{17});
  EXPECT_EQ(r.responded, 30u);  // it still reported — just wrongly
}

TEST_P(LisaBothVariants, UnresponsiveLeafNamedMissing) {
  auto sim = LisaSimulation::balanced(fast(GetParam()), 30);
  sim.set_device_unresponsive(30, true);
  const LisaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.missing, std::vector<net::NodeId>{30});
}

TEST_P(LisaBothVariants, RestoreHeals) {
  auto sim = LisaSimulation::balanced(fast(GetParam()), 20);
  sim.compromise_device(5);
  EXPECT_FALSE(sim.run_round().verified);
  sim.restore_device(5);
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST_P(LisaBothVariants, SecondCompromiseChangesNothing) {
  // Regression: every compromise flipped PMEM byte 0 but a restore
  // flipped it back once, so compromising twice left the device clean,
  // and restoring it then left the round failing.
  auto sim = LisaSimulation::balanced(fast(GetParam()), 20);
  sim.compromise_device(5);
  sim.compromise_device(5);
  const LisaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.bad, std::vector<net::NodeId>{5});
  sim.restore_device(5);
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST_P(LisaBothVariants, SingleDevice) {
  auto sim = LisaSimulation::balanced(fast(GetParam()), 1);
  EXPECT_TRUE(sim.run_round().verified);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LisaBothVariants,
    ::testing::Values(LisaVariant::kAlpha, LisaVariant::kS),
    [](const ::testing::TestParamInfo<LisaVariant>& info) {
      return info.param == LisaVariant::kAlpha ? "alpha" : "s";
    });

TEST(LisaShape, AlphaMovesMoreBytesThanS) {
  // kAlpha: every entry crosses every link on its path, plus the per-
  // entry framing at each hop; kS: entries cross each path-link once,
  // amortized into bundles. Same asymptotics, alpha pays more overhead.
  auto alpha = LisaSimulation::balanced(fast(LisaVariant::kAlpha), 62);
  auto s = LisaSimulation::balanced(fast(LisaVariant::kS), 62);
  const auto ra = alpha.run_round();
  const auto rs = s.run_round();
  EXPECT_TRUE(ra.verified);
  EXPECT_TRUE(rs.verified);
  EXPECT_GE(ra.messages, rs.messages * 2);
}

TEST(LisaShape, UnresponsiveInnerDarkensSubtreeInBothVariants) {
  for (LisaVariant v : {LisaVariant::kAlpha, LisaVariant::kS}) {
    auto sim = LisaSimulation::balanced(fast(v), 14);
    sim.set_device_unresponsive(1, true);
    const auto r = sim.run_round();
    EXPECT_FALSE(r.verified);
    // 1 and its whole subtree {1,3,4,7,8,9,10} never reach Vrf.
    EXPECT_EQ(r.missing.size(), 7u) << variant_name(v);
  }
}

TEST(LisaShape, PerDeviceHooksRejectIdsOutsideTheSwarm) {
  auto sim = LisaSimulation::balanced(fast(LisaVariant::kS), 10);
  for (const net::NodeId id : {0u, 11u}) {
    EXPECT_THROW(sim.compromise_device(id), std::out_of_range) << id;
    EXPECT_THROW(sim.restore_device(id), std::out_of_range) << id;
    EXPECT_THROW(sim.set_device_unresponsive(id, true), std::out_of_range)
        << id;
  }
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(LisaShape, NoClockNeeded) {
  // LISA devices attest on receipt: rounds back-to-back with zero idle
  // time still verify (no tick quantization anywhere).
  auto sim = LisaSimulation::balanced(fast(LisaVariant::kAlpha), 10);
  EXPECT_TRUE(sim.run_round().verified);
  EXPECT_TRUE(sim.run_round().verified);
  EXPECT_TRUE(sim.run_round().verified);
}

}  // namespace
}  // namespace cra::lisa
