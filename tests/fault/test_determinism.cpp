// End-to-end fault-replay determinism: a seeded FaultPlan driven through
// SapSimulation must produce byte-identical metrics on the sequential
// engine and the sharded engine at any thread count, keep the network
// ledger consistent under combined loss + churn, and classify scripted
// faults as the statuses they are (crash -> unreachable, never
// untrusted; crash + reboot inside the window -> rebooted).
#include <gtest/gtest.h>

#include <string>

#include "fault/plan.hpp"
#include "sap/swarm.hpp"
#include "seda/seda.hpp"

namespace cra::sap {
namespace {

using sim::Duration;
using sim::SimTime;

SapConfig adaptive_cfg(std::uint32_t threads, std::uint32_t shards) {
  SapConfig c;
  c.pmem_size = 2 * 1024;
  c.qoa = QoaMode::kIdentify;
  c.adaptive.enabled = true;
  c.sim.threads = threads;
  c.sim.shards = shards;
  return c;
}

fault::FaultPlan::ChurnProfile stormy_profile() {
  fault::FaultPlan::ChurnProfile p;
  p.crash_rate = 0.05;
  p.partition_rate = 0.5;
  p.loss_spike_rate = 0.4;
  p.loss_spike = 0.02;
  return p;
}

/// Three attestation rounds under a seeded churn plan; returns the
/// concatenated per-round metrics JSON (sorted keys, so byte-stable).
std::string churn_campaign(std::uint32_t threads, std::uint32_t shards,
                           double baseline_loss) {
  auto sim = SapSimulation::balanced(adaptive_cfg(threads, shards), 62, 5);
  if (baseline_loss > 0.0) sim.network().set_loss_rate(baseline_loss, 17);
  sim.attach_fault_plan(fault::FaultPlan::churn(
      9, sim.tree(), SimTime::zero(), SimTime::from_sec(20),
      stormy_profile()));
  std::string out;
  for (int round = 0; round < 3; ++round) {
    (void)sim.run_round();
    out += sim.metrics().to_json();
    out += '\n';
    sim.advance_time(Duration::from_ms(100));
  }
  return out;
}

TEST(FaultDeterminism, ByteIdenticalMetricsAcrossThreadCounts) {
  // Fixed shard count, varying worker threads: the run is a pure
  // function of (inputs, shard count), so the JSON must not move by a
  // byte. This is the ISSUE's headline acceptance criterion.
  const std::string t1 = churn_campaign(/*threads=*/1, /*shards=*/4, 0.0);
  const std::string t2 = churn_campaign(/*threads=*/2, /*shards=*/4, 0.0);
  const std::string t8 = churn_campaign(/*threads=*/8, /*shards=*/4, 0.0);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(FaultDeterminism, ChurnActuallyInjectsFaults) {
  // Guard against the determinism test passing vacuously: the same
  // campaign must arm a nonzero number of events and record them in the
  // fault.* counters.
  auto sim = SapSimulation::balanced(adaptive_cfg(1, 4), 62, 5);
  sim.attach_fault_plan(fault::FaultPlan::churn(
      9, sim.tree(), SimTime::zero(), SimTime::from_sec(20),
      stormy_profile()));
  std::uint64_t crashes = 0;
  for (int round = 0; round < 3; ++round) {
    (void)sim.run_round();
    crashes += sim.metrics().counter_value("fault.crashes");
    sim.advance_time(Duration::from_ms(100));
  }
  ASSERT_NE(sim.fault_tally(), nullptr);
  EXPECT_GT(sim.fault_tally()->crashes, 0u);
  EXPECT_GT(crashes, 0u);
}

TEST(FaultDeterminism, LedgerHoldsUnderLossPlusChurnOnBothEngines) {
  // Scripted link outages and loss spikes both charge the dropped
  // ledger; combined with baseline probabilistic loss the accounting
  // invariant sent + dropped == attempted must hold on one shard and on
  // several alike.
  struct EngineCase {
    std::uint32_t threads, shards;
  };
  for (const EngineCase ec : {EngineCase{1, 1}, EngineCase{4, 4}}) {
    auto sim =
        SapSimulation::balanced(adaptive_cfg(ec.threads, ec.shards), 62, 5);
    sim.network().set_loss_rate(0.05, 17);
    sim.attach_fault_plan(fault::FaultPlan::churn(
        9, sim.tree(), SimTime::zero(), SimTime::from_sec(20),
        stormy_profile()));
    for (int round = 0; round < 3; ++round) {
      (void)sim.run_round();
      const obs::MetricsRegistry& m = sim.metrics();
      const std::uint64_t sent = m.counter_value("net.messages_sent");
      const std::uint64_t dropped = m.counter_value("net.messages_dropped");
      const std::uint64_t attempted =
          m.counter_value("net.messages_attempted");
      EXPECT_GT(attempted, 0u);
      EXPECT_EQ(sent + dropped, attempted)
          << "threads=" << ec.threads << " round=" << round;
      sim.advance_time(Duration::from_ms(100));
    }
  }
}

TEST(FaultDeterminism, CrashedDeviceIsUnreachableNeverUntrusted) {
  auto sim = SapSimulation::balanced(adaptive_cfg(1, 1), 30, 3);
  fault::FaultPlan plan;
  plan.crash(SimTime::zero(), 23);  // leaf device, down for the round
  sim.attach_fault_plan(std::move(plan));
  const RoundReport r = sim.run_round();
  ASSERT_TRUE(r.degraded.enabled);
  EXPECT_EQ(r.degraded.untrusted, 0u)
      << "a crash must never read as compromise";
  ASSERT_EQ(r.degraded.unreachable_ids, std::vector<net::NodeId>{23});
  EXPECT_EQ(r.degraded.status[22], Verifier::DeviceStatus::kUnreachable);
  EXPECT_EQ(r.degraded.healthy, 29u);
  EXPECT_FALSE(r.verified) << "all_healthy is false with a device missing";
  EXPECT_NEAR(r.degraded.completion(), 29.0 / 30.0, 1e-12);
}

TEST(FaultDeterminism, CrashedSubtreeRootTakesItsSubtreeOffline) {
  // Position 1's crash silences its whole subtree: the children cannot
  // route reports past the dead forwarder. All of them must surface as
  // unreachable — and none as untrusted.
  auto sim = SapSimulation::balanced(adaptive_cfg(1, 1), 14, 3);
  fault::FaultPlan plan;
  plan.crash(SimTime::zero(), 1);
  sim.attach_fault_plan(std::move(plan));
  const RoundReport r = sim.run_round();
  ASSERT_TRUE(r.degraded.enabled);
  EXPECT_EQ(r.degraded.untrusted, 0u);
  EXPECT_EQ(r.degraded.unreachable_ids,
            (std::vector<net::NodeId>{1, 3, 4, 7, 8, 9, 10}));
}

TEST(FaultDeterminism, RebootInsideTheWindowClassifiesAsRebooted) {
  // Crash before the round, reboot mid-round: the device re-enters via
  // the adaptive re-poll path and reports with the rebooted flag. The
  // verifier distinguishes "restarted" from "healthy all along" and from
  // "compromised".
  auto sim = SapSimulation::balanced(adaptive_cfg(1, 1), 30, 3);
  fault::FaultPlan plan;
  plan.crash_for(SimTime::zero(), 23, Duration::from_ms(120));
  sim.attach_fault_plan(std::move(plan));
  const RoundReport r = sim.run_round();
  ASSERT_TRUE(r.degraded.enabled);
  EXPECT_EQ(r.degraded.untrusted, 0u);
  EXPECT_EQ(r.degraded.rebooted_ids, std::vector<net::NodeId>{23});
  EXPECT_EQ(r.degraded.status[22], Verifier::DeviceStatus::kRebooted);
  EXPECT_FALSE(r.verified) << "rebooted devices are flagged, not trusted";
  EXPECT_NEAR(r.degraded.completion(), 1.0, 1e-12)
      << "the rebooted device did produce evidence";
}

TEST(FaultDeterminism, NoPlanAndDefaultConfigKeepsLegacyBehavior) {
  // The whole subsystem is opt-in: a default-config round with no plan
  // attached reports no degraded block and verifies exactly as before.
  SapConfig c;
  c.pmem_size = 2 * 1024;
  auto sim = SapSimulation::balanced(c, 30, 3);
  EXPECT_FALSE(sim.has_fault_plan());
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.degraded.enabled);
  EXPECT_EQ(r.backoff_wait_ns, 0u);
}

TEST(FaultDeterminism, SedaCrashFailsTheRoundWithoutFalseTrust) {
  // SEDA shares the injector surface: a crashed device's subtree drops
  // out of the aggregate count, which must fail verification — never
  // read as a passing swarm of the wrong size.
  seda::SedaConfig c;
  c.pmem_size = 2 * 1024;
  auto sim = seda::SedaSimulation::balanced(c, 30, 3);
  (void)sim.run_join();
  EXPECT_TRUE(sim.run_round().verified) << "healthy baseline";

  fault::FaultPlan plan;
  plan.crash(sim.current_time(), 23);
  sim.attach_fault_plan(std::move(plan));
  const seda::SedaRoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_LT(r.total, 30u) << "the crashed device is missing, not faked";
  ASSERT_NE(sim.fault_tally(), nullptr);
  EXPECT_EQ(sim.fault_tally()->crashes, 1u);

  // Ledger balances under the scripted fault on SEDA too.
  const obs::MetricsRegistry& m = sim.metrics();
  EXPECT_EQ(m.counter_value("net.messages_sent") +
                m.counter_value("net.messages_dropped"),
            m.counter_value("net.messages_attempted"));
}

TEST(FaultDeterminism, SedaChurnReplayIsByteIdenticalAcrossThreads) {
  const auto campaign = [](std::uint32_t threads) {
    seda::SedaConfig c;
    c.pmem_size = 2 * 1024;
    c.sim.threads = threads;
    c.sim.shards = 4;
    auto sim = seda::SedaSimulation::balanced(c, 62, 5);
    (void)sim.run_join();
    fault::FaultPlan::ChurnProfile p;
    p.crash_rate = 0.05;
    sim.attach_fault_plan(fault::FaultPlan::churn(
        9, sim.tree(), sim.current_time(),
        sim.current_time() + sim::Duration::from_sec(20), p));
    std::string out;
    for (int round = 0; round < 3; ++round) {
      (void)sim.run_round();
      out += sim.metrics().to_json();
      out += '\n';
      sim.advance_time(Duration::from_ms(100));
    }
    return out;
  };
  const std::string t1 = campaign(1);
  EXPECT_EQ(t1, campaign(2));
  EXPECT_EQ(t1, campaign(8));
}

TEST(FaultDeterminism, AttachMidRoundThrows) {
  auto sim = SapSimulation::balanced(adaptive_cfg(1, 1), 14, 3);
  bool threw = false;
  sim.schedule_at(1, sim::SimTime::from_ms(1), [&] {
    try {
      sim.attach_fault_plan(fault::FaultPlan{});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  (void)sim.run_round();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace cra::sap
