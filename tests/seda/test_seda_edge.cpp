// SEDA edge behaviour: partial aggregates, forged traffic, wire-format
// accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "seda/seda.hpp"

namespace cra::seda {
namespace {

SedaConfig fast() {
  SedaConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.sig_verify_cycles = 1'000'000;
  return cfg;
}

TEST(SedaEdge, UnresponsiveInnerNodeCostsItsSubtree) {
  auto sim = SedaSimulation::balanced(fast(), 30);
  sim.set_device_unresponsive(2, true);  // heads a 15-node subtree
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.total, 15u);  // only node 1's subtree reported
}

TEST(SedaEdge, AllDevicesCompromisedCountsToZeroPassed) {
  auto sim = SedaSimulation::balanced(fast(), 14);
  for (net::NodeId id = 1; id <= 14; ++id) sim.compromise_device(id);
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.total, 14u);
  EXPECT_EQ(r.passed, 0u);
}

TEST(SedaEdge, ForgedCountInflationRejected) {
  // Adv rewrites a report to claim a huge passing count: the pairwise
  // MAC fails and the parent discards it — counts cannot be inflated
  // without a key.
  auto sim = SedaSimulation::balanced(fast(), 14);
  sim.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        if (m.kind == 2 && m.src == 7) {  // leaf 7's report
          Bytes evil = m.payload;
          evil[0] = 200;  // total := huge
          evil[4] = 200;  // passed := huge
          return {net::TamperAction::kDeliverModified, std::move(evil)};
        }
        return {};
      });
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_GE(r.mac_failures, 1u);
  EXPECT_LT(r.total, 200u);
}

TEST(SedaEdge, WrongSizeReportFailsBeforeItsMac) {
  // A report cut short or padded out fails on its size alone, before a
  // MAC or a compare reads past it (the sanitize CI job runs this
  // under ASan); leaf 7's subtree of one is lost.
  for (const std::size_t size : {0u, 7u, 10u, 19u, 21u, 64u}) {
    SCOPED_TRACE(testing::Message() << "size " << size);
    auto sim = SedaSimulation::balanced(fast(), 14);
    sim.network().set_tamper_hook(
        [size](const net::Message& m) -> net::TamperResult {
          if (m.kind == 2 && m.src == 7) {
            Bytes resized = m.payload;
            resized.resize(size, 0x5a);
            return {net::TamperAction::kDeliverModified, std::move(resized)};
          }
          return {};
        });
    const SedaRoundReport r = sim.run_round();
    EXPECT_FALSE(r.verified);
    EXPECT_EQ(r.total, 13u);
    EXPECT_EQ(r.mac_failures, 1u);
  }
}

TEST(SedaEdge, DroppedReportShrinksTotals) {
  auto sim = SedaSimulation::balanced(fast(), 14);
  sim.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        if (m.kind == 2 && m.src == 9) {
          return {net::TamperAction::kDrop, {}};
        }
        return {};
      });
  const SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.total, 13u);
}

TEST(SedaEdge, WireFormatDrivesUtilization) {
  SedaConfig big = fast();
  big.sig_size = 96;  // larger request signature
  auto small_sim = SedaSimulation::balanced(fast(), 100);
  auto big_sim = SedaSimulation::balanced(big, 100);
  const auto rs = small_sim.run_round();
  const auto rb = big_sim.run_round();
  EXPECT_EQ(rb.u_ca_bytes - rs.u_ca_bytes, (96u - 44u) * 100u);
}

TEST(SedaEdge, SigVerifyCostMovesRuntimeByItsExactAmount) {
  SedaConfig slow = fast();
  slow.sig_verify_cycles = 10'000'000;
  auto fast_sim = SedaSimulation::balanced(fast(), 30);
  auto slow_sim = SedaSimulation::balanced(slow, 30);
  const double delta = slow_sim.run_round().total_time().sec() -
                       fast_sim.run_round().total_time().sec();
  // 9M extra cycles at 24 MHz = 375 ms, paid once on the critical path
  // (devices verify in a pipeline, not in series).
  EXPECT_NEAR(delta, 0.375, 0.01);
}

TEST(SedaEdge, LineTopologyWorks) {
  auto sim = SedaSimulation(fast(), net::line_tree(20));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(SedaEdge, SingleDevice) {
  auto sim = SedaSimulation::balanced(fast(), 1);
  const auto r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.total, 1u);
}

}  // namespace
}  // namespace cra::seda
