// Observability guarantees of the protocol simulations: the merged
// MetricsRegistry a round reports must be (a) independent of the worker
// thread count, (b) consistent with the network's ledgers under loss on
// both engines, and (c) the same source the RoundReport fields are
// filled from.
#include <gtest/gtest.h>

#include <string>

#include "sap/swarm.hpp"
#include "seda/seda.hpp"

namespace cra {
namespace {

sap::SapConfig small_config() {
  sap::SapConfig cfg;
  cfg.pmem_size = 4 * 1024;
  return cfg;
}

std::string run_and_export(sap::SapConfig cfg, std::uint32_t devices,
                           double loss) {
  auto sim = sap::SapSimulation::balanced(cfg, devices, /*seed=*/5);
  if (loss > 0.0) sim.network().set_loss_rate(loss, /*seed=*/23);
  sim.network().enable_per_link_accounting(true);
  (void)sim.run_round();
  return sim.metrics().to_json();
}

TEST(SapMetrics, ThreadCountDoesNotChangeTheExport) {
  // Same shard count, different worker counts: the merged registry must
  // be byte-identical — even under loss (per-shard RNG substreams are a
  // function of the shard index, not the thread schedule).
  sap::SapConfig cfg = small_config();
  cfg.sim.shards = 4;
  cfg.sim.threads = 1;
  const std::string one = run_and_export(cfg, 254, 0.05);
  cfg.sim.threads = 2;
  const std::string two = run_and_export(cfg, 254, 0.05);
  cfg.sim.threads = 4;
  const std::string four = run_and_export(cfg, 254, 0.05);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(SapMetrics, SerialAndShardedAgreeWithoutLoss) {
  // With no loss the event stream itself is engine-independent, so the
  // one shard and any sharding must export identical metrics.
  sap::SapConfig cfg = small_config();
  const std::string serial = run_and_export(cfg, 126, 0.0);
  cfg.sim.threads = 8;  // shards=0 -> 8 shards
  const std::string sharded = run_and_export(cfg, 126, 0.0);
  EXPECT_EQ(serial, sharded);
}

TEST(SapMetrics, ReportFieldsComeFromTheRegistry) {
  sap::SapConfig cfg = small_config();
  auto sim = sap::SapSimulation::balanced(cfg, 62);
  const auto r = sim.run_round();
  const auto& m = sim.metrics();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.u_ca_bytes, m.counter_value("net.bytes_transmitted"));
  EXPECT_EQ(r.messages, m.counter_value("net.messages_sent"));
  EXPECT_EQ(r.dropped, m.counter_value("net.messages_dropped"));
  EXPECT_EQ(r.repolls, m.counter_value("sap.repolls"));
  EXPECT_EQ(r.inbound_end.ns(), m.gauge_value("sap.inbound_end_ns"));
  const obs::Histogram* h = m.find_histogram("net.payload_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), m.counter_value("net.messages_attempted"));
}

class SapLedgerInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(SapLedgerInvariants, HoldUnderLossOnBothEngines) {
  sap::SapConfig cfg = small_config();
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_repolls = 3;
  if (GetParam()) {
    cfg.sim.threads = 2;
    cfg.sim.shards = 4;
  }
  auto sim = sap::SapSimulation::balanced(cfg, 254, /*seed=*/17);
  sim.network().set_loss_rate(0.02, /*seed=*/17);
  sim.network().enable_per_link_accounting(true);
  for (int round = 0; round < 3; ++round) {
    (void)sim.run_round();
    const auto& m = sim.metrics();
    // (1) the per-link ledger and the total agree even though messages
    // were dropped mid-round (run_round also asserts this internally).
    EXPECT_EQ(m.counter_value("net.per_link_bytes"),
              m.counter_value("net.bytes_transmitted"));
    // (2) every attempt lands in exactly one ledger.
    EXPECT_EQ(m.counter_value("net.messages_sent") +
                  m.counter_value("net.messages_dropped"),
              m.counter_value("net.messages_attempted"));
    EXPECT_GT(m.counter_value("net.messages_dropped"), 0u);
    sim.advance_time(sim::Duration::from_ms(50));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SapLedgerInvariants,
                         ::testing::Values(false, true));

TEST(SapMetrics, RegistryResetsEachRound) {
  sap::SapConfig cfg = small_config();
  auto sim = sap::SapSimulation::balanced(cfg, 62);
  const auto r1 = sim.run_round();
  const std::uint64_t bytes1 =
      sim.metrics().counter_value("net.bytes_transmitted");
  sim.advance_time(sim::Duration::from_ms(10));
  const auto r2 = sim.run_round();
  const std::uint64_t bytes2 =
      sim.metrics().counter_value("net.bytes_transmitted");
  EXPECT_EQ(bytes1, r1.u_ca_bytes);
  EXPECT_EQ(bytes2, r2.u_ca_bytes);
  EXPECT_EQ(bytes1, bytes2);  // per-round, not cumulative
}

TEST(SedaMetrics, JoinAndRoundCountersMatchReports) {
  seda::SedaConfig cfg;
  cfg.pmem_size = 4 * 1024;
  auto sim = seda::SedaSimulation::balanced(cfg, 30);
  const auto join = sim.run_join();
  EXPECT_TRUE(join.complete);
  EXPECT_EQ(sim.metrics().counter_value("seda.join_acks"), 30u);
  EXPECT_EQ(join.bytes,
            sim.metrics().counter_value("net.bytes_transmitted"));

  sim.corrupt_join_key(3);  // reports from 3's subtree now fail MACs
  const auto round = sim.run_round();
  EXPECT_FALSE(round.verified);
  EXPECT_GT(round.mac_failures, 0u);
  EXPECT_EQ(round.mac_failures,
            sim.metrics().counter_value("seda.mac_failures"));
  EXPECT_EQ(round.u_ca_bytes,
            sim.metrics().counter_value("net.bytes_transmitted"));
}

TEST(SedaMetrics, ThreadCountDoesNotChangeTheExport) {
  seda::SedaConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.sim.shards = 4;
  std::string exports[2];
  for (int i = 0; i < 2; ++i) {
    cfg.sim.threads = i == 0 ? 1 : 4;
    auto sim = seda::SedaSimulation::balanced(cfg, 126, /*seed=*/3);
    sim.network().enable_per_link_accounting(true);
    (void)sim.run_join();
    (void)sim.run_round();
    exports[i] = sim.metrics().to_json();
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(SapMetrics, PerLinkAccountingWorksOnTheShardedEngine) {
  // Regression: per-link accounting used to throw on the sharded engine;
  // sender-side charging makes the shard maps disjoint, so it now works.
  sap::SapConfig cfg = small_config();
  cfg.sim.threads = 4;
  auto sim = sap::SapSimulation::balanced(cfg, 126);
  sim.network().enable_per_link_accounting(true);
  const auto r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(sim.metrics().counter_value("net.per_link_bytes"), r.u_ca_bytes);
}

}  // namespace
}  // namespace cra
