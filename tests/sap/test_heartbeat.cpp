// Physical-capture detection via heartbeats (§VIII extension).
#include "sap/heartbeat.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

HeartbeatConfig fast_config() {
  HeartbeatConfig cfg;
  cfg.period = sim::Duration::from_ms(50);
  cfg.absence_threshold = sim::Duration::from_ms(120);
  return cfg;
}

TEST(Heartbeat, QuietFleetReportsNothing) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 30);
  hb.run_monitoring(sim::Duration::from_sec(2.0));
  EXPECT_TRUE(hb.collect().empty());
  EXPECT_EQ(hb.forged_beats(), 0u);
}

TEST(Heartbeat, CapturedLeafIsReported) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 30);
  hb.run_monitoring(sim::Duration::from_ms(500));
  hb.capture_device(30);
  hb.run_monitoring(sim::Duration::from_ms(500));
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 30u);
  EXPECT_GT(report[0].gap.ms(), 400.0);
}

TEST(Heartbeat, ShortAbsenceBelowThresholdUnreported) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 20);
  hb.run_monitoring(sim::Duration::from_ms(500));
  hb.capture_device(7);
  hb.run_monitoring(sim::Duration::from_ms(80));  // < threshold
  hb.release_device(7);
  hb.run_monitoring(sim::Duration::from_ms(300));
  EXPECT_TRUE(hb.collect().empty());
}

TEST(Heartbeat, CaptureReleaseStillLeavesGapWhileFresh) {
  // Captured long enough, then returned: until fresh beats rebuild the
  // record, collection flags the gap... but if collection happens after
  // the device resumed beating, the gap closes. Both directions:
  auto hb = HeartbeatSimulation::balanced(fast_config(), 20);
  hb.run_monitoring(sim::Duration::from_ms(400));
  hb.capture_device(9);
  hb.run_monitoring(sim::Duration::from_ms(400));  // long absence
  hb.release_device(9);
  // Collect immediately: gap still visible.
  const auto immediate = hb.collect();
  ASSERT_EQ(immediate.size(), 1u);
  EXPECT_EQ(immediate[0].device, 9u);
  // After the device beats again, the live gap disappears (the *log* of
  // the past gap is the verifier's to keep — it saw the report above).
  hb.run_monitoring(sim::Duration::from_ms(300));
  EXPECT_TRUE(hb.collect().empty());
}

TEST(Heartbeat, RevivedDeviceIsFlaggedExactlyOnce) {
  // Absent-flagging must be edge-triggered per collection sweep: a
  // device that goes dark long enough to be flagged and then revives is
  // reported in exactly one sweep — the one that observes the gap — and
  // re-enters monitoring cleanly afterwards (no sticky flag, no repeat
  // alarms once fresh beats rebuild the record).
  auto hb = HeartbeatSimulation::balanced(fast_config(), 20);
  hb.run_monitoring(sim::Duration::from_ms(400));
  hb.capture_device(11);
  hb.run_monitoring(sim::Duration::from_ms(400));
  hb.release_device(11);
  // Sweep 1: the gap is live — flagged, and exactly once in the report.
  const auto first = hb.collect();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].device, 11u);
  // Beats resume; once the record is fresh, later sweeps stay clean.
  hb.run_monitoring(sim::Duration::from_ms(400));
  EXPECT_TRUE(hb.collect().empty())
      << "the revived device must not be re-flagged";
  hb.run_monitoring(sim::Duration::from_ms(400));
  EXPECT_TRUE(hb.collect().empty());
}

TEST(Heartbeat, RevivedDeviceReentersTheNextAttestationRoundOnce) {
  // The attestation-plane half of revival: a device the monitoring
  // plane flagged absent (modeled as unresponsive during round 1)
  // surfaces as unreachable exactly once; after revival the next round
  // counts it exactly once as healthy — one status entry, no duplicate
  // report entries from stale round state.
  SapConfig cfg;
  cfg.pmem_size = 2 * 1024;
  cfg.qoa = QoaMode::kIdentify;
  cfg.adaptive.enabled = true;
  auto sap = SapSimulation::balanced(cfg, 20, /*seed=*/3);
  sap.set_device_unresponsive(11, true);
  const RoundReport absent = sap.run_round();
  ASSERT_TRUE(absent.degraded.enabled);
  EXPECT_EQ(absent.degraded.unreachable_ids, std::vector<net::NodeId>{11});
  EXPECT_EQ(absent.degraded.healthy, 19u);

  sap.set_device_unresponsive(11, false);  // revived
  sap.advance_time(sim::Duration::from_ms(100));
  const RoundReport revived = sap.run_round();
  EXPECT_TRUE(revived.verified);
  EXPECT_EQ(revived.degraded.healthy, 20u) << "back in, counted once";
  EXPECT_EQ(revived.degraded.unreachable, 0u);
  EXPECT_EQ(revived.degraded.healthy + revived.degraded.unreachable +
                revived.degraded.untrusted + revived.degraded.rebooted,
            20u)
      << "every device classified exactly once";
}

TEST(Heartbeat, CapturedInnerNodeDarkensItsSubtree) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 14);
  hb.run_monitoring(sim::Duration::from_ms(300));
  hb.capture_device(2);  // children 5,6 route through it
  hb.run_monitoring(sim::Duration::from_ms(500));
  const auto report = hb.collect();
  // The subtree behind the captured relay is unobservable: its members'
  // gaps live in logs that cannot be collected through the dead node.
  // The verifier still learns the subtree head is gone — which taints
  // everything below it by topology (the tree is the verifier's own
  // deployment record).
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 2u);
}

TEST(Heartbeat, ForgedBeatsRejected) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 10);
  hb.capture_device(5);
  // The adversary forges presence for the captured device: wrong MAC.
  hb.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        if (m.kind == 10 /*beat*/ && m.src == 4) {
          // Rewrite neighbour 4's beat to claim it is device 5.
          Bytes forged = m.payload;
          forged[0] = 5;
          return {net::TamperAction::kDeliverModified, std::move(forged)};
        }
        return {};
      });
  hb.run_monitoring(sim::Duration::from_sec(1.0));
  EXPECT_GT(hb.forged_beats(), 0u);
  const auto report = hb.collect();
  // Device 5 is still flagged (forgery failed); device 4's beats were
  // consumed by the tamper, so it shows up too — the attack only *adds*
  // alarms.
  bool found5 = false;
  for (const auto& e : report) found5 = found5 || e.device == 5;
  EXPECT_TRUE(found5);
}

TEST(Heartbeat, SapAloneIsBlindToCaptureButHeartbeatIsNot) {
  // The §VIII motivation, end to end: capture a device between SAP
  // rounds, tamper nothing (or restore PMEM perfectly), return it.
  SapConfig sap_cfg;
  sap_cfg.pmem_size = 2 * 1024;
  auto sap = SapSimulation::balanced(sap_cfg, 20, /*seed=*/3);
  EXPECT_TRUE(sap.run_round().verified);
  // ... capture happens here, offline, invisible to SAP ...
  sap.advance_time(sim::Duration::from_sec(1.0));
  EXPECT_TRUE(sap.run_round().verified);  // SAP: all clear. Blind spot.

  auto hb = HeartbeatSimulation::balanced(fast_config(), 20, /*seed=*/3);
  hb.run_monitoring(sim::Duration::from_ms(300));
  hb.capture_device(12);
  hb.run_monitoring(sim::Duration::from_ms(700));
  hb.release_device(12);
  const auto report = hb.collect();
  ASSERT_FALSE(report.empty());  // heartbeat: capture window exposed
  EXPECT_EQ(report[0].device, 12u);
}

TEST(Heartbeat, CaptureHooksRejectIdsOutsideTheFleet) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 10);
  for (const net::NodeId id : {0u, 11u}) {
    EXPECT_THROW(hb.capture_device(id), std::out_of_range) << id;
    EXPECT_THROW(hb.release_device(id), std::out_of_range) << id;
    EXPECT_THROW((void)hb.is_captured(id), std::out_of_range) << id;
  }
  hb.run_monitoring(sim::Duration::from_sec(1.0));
  EXPECT_TRUE(hb.collect().empty());
}

TEST(Heartbeat, MessagesToAStrayAddressAreDropped) {
  // Regression: beats and logs reached their handlers with the
  // destination unchecked, and dev(dst) read past the device table. The
  // beat here is a real one of device 7, recorded before its capture, so
  // a monitor that took it would lose 7's absence.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 7);
  Bytes beat_of_7;
  hb.network().set_tamper_hook(
      [&beat_of_7](const net::Message& m) -> net::TamperResult {
        if (m.kind == 10 /*beat*/ && m.src == 7) beat_of_7 = m.payload;
        return {};
      });
  hb.run_monitoring(sim::Duration::from_ms(200));
  ASSERT_FALSE(beat_of_7.empty());
  hb.capture_device(7);
  hb.run_monitoring(sim::Duration::from_ms(400));
  const net::NodeId stray = hb.device_count() + 1;
  hb.network().send(7, stray, 10 /*beat*/, beat_of_7);
  hb.network().send(1, stray, 12 /*log*/, Bytes{});
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 7u);
  EXPECT_EQ(hb.forged_beats(), 0u);
}

TEST(Heartbeat, ReplayedBeatDoesNotMaskACapture) {
  // Regression: the parent checked a beat's MAC but not its sequence
  // number, so device 7's last beat, recorded before its capture and
  // sent again to its parent, 3, refreshed 7's record and hid the
  // capture.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 7);
  Bytes beat_of_7;
  hb.network().set_tamper_hook(
      [&beat_of_7](const net::Message& m) -> net::TamperResult {
        if (m.kind == 10 /*beat*/ && m.src == 7) beat_of_7 = m.payload;
        return {};
      });
  hb.run_monitoring(sim::Duration::from_ms(200));
  ASSERT_FALSE(beat_of_7.empty());
  hb.capture_device(7);
  hb.run_monitoring(sim::Duration::from_ms(800));
  ASSERT_EQ(hb.tree().parent(7), 3u);
  hb.network().send(7, 3, 10 /*beat*/, beat_of_7);
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 7u);
  EXPECT_EQ(hb.forged_beats(), 1u);
}

TEST(Heartbeat, ReleasedDeviceDoesNotHideACapturedCousin) {
  // Regression: node 1 asked its absent child 3 for a log, counted 3
  // once as absent and again when the released 3 answered, and
  // forwarded before 4's log, which carries 9.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 14);
  hb.capture_device(3);
  hb.capture_device(9);
  hb.run_monitoring(sim::Duration::from_sec(1.0));
  hb.release_device(3);
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].device, 3u);
  EXPECT_EQ(report[1].device, 9u);
}

TEST(Heartbeat, SweepStalledByAFreshCaptureDoesNotStallTheNext) {
  // 3 is captured right after a beat, so the sweep asks it and waits
  // in vain at 1. The next sweep, once 3's gap shows, must still reach
  // 1 and learn of 3.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 14);
  hb.run_monitoring(sim::Duration::from_ms(300));
  hb.capture_device(3);
  EXPECT_TRUE(hb.collect().empty());
  hb.run_monitoring(sim::Duration::from_ms(500));
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 3u);
}

TEST(Heartbeat, FreshCaptureDoesNotHideAnAbsentCousin) {
  // 9 is long gone, and its parent 4 reports it to 1. 3 is captured
  // right after a beat, so 1 asks it and gets no answer. Before the
  // sweep had a deadline, 1 waited for 3 forever and never forwarded
  // 4's log: collect() returned [].
  auto hb = HeartbeatSimulation::balanced(fast_config(), 14);
  hb.capture_device(9);
  hb.run_monitoring(sim::Duration::from_ms(500));
  hb.capture_device(3);
  const auto report = hb.collect();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].device, 9u);
}

// The 512 leaves of a full binary tree of 1,022 devices are 511..1022;
// every other one is captured long before the sweep.
std::vector<net::NodeId> capture_every_other_leaf(HeartbeatSimulation& hb) {
  std::vector<net::NodeId> captured;
  for (net::NodeId leaf = 511; leaf <= 1022; leaf += 2) {
    hb.capture_device(leaf);
    captured.push_back(leaf);
  }
  return captured;
}

std::vector<net::NodeId> devices_of(const std::vector<AbsenceReport>& r) {
  std::vector<net::NodeId> ids;
  for (const AbsenceReport& e : r) ids.push_back(e.device);
  return ids;
}

TEST(Heartbeat, LongLogsArriveBeforeTheirParentsDeadlines) {
  // A log carries an 8-byte entry per absence below it, so its link
  // delay grows with the subtree: node 1's log of 128 entries takes
  // about 34 ms to cross one 250 kbps link. Every node answers, so
  // every absence must reach Vrf.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 1022);
  ASSERT_EQ(hb.tree().max_depth(), 9u);
  const std::vector<net::NodeId> captured = capture_every_other_leaf(hb);
  hb.run_monitoring(sim::Duration::from_ms(500));
  EXPECT_EQ(devices_of(hb.collect()), captured);
}

TEST(Heartbeat, AStalledBranchKeepsItsSiblingsLongLogs) {
  // 3 is captured right after a beat, so 1 asks it and forwards on its
  // deadline. The absences below 3 (leaves 511..638) go dark with it;
  // 4's log of 64 entries must still reach 1 in time, and 2's log of
  // 128 reach Vrf.
  auto hb = HeartbeatSimulation::balanced(fast_config(), 1022);
  std::vector<net::NodeId> expected;
  for (net::NodeId leaf : capture_every_other_leaf(hb)) {
    if (leaf > 638) expected.push_back(leaf);
  }
  hb.run_monitoring(sim::Duration::from_ms(500));
  hb.capture_device(3);
  EXPECT_EQ(devices_of(hb.collect()), expected);
}

TEST(Heartbeat, SlicedMonitoringSendsTheBeatsOfOneCall) {
  // Regression: each run_monitoring() call started a beat chain beside
  // the one still pending from the last call, so 1,600 ms sent 224
  // beats in one call, 364 as 600 + 1,000 ms and 560 as 4 x 400 ms.
  const std::vector<std::vector<std::int64_t>> slicings = {
      {1600}, {600, 1000}, {400, 400, 400, 400}};
  for (const auto& slices : slicings) {
    auto hb = HeartbeatSimulation::balanced(HeartbeatConfig{}, 14);
    for (const std::int64_t ms : slices) {
      hb.run_monitoring(sim::Duration::from_ms(ms));
    }
    EXPECT_EQ(hb.network().messages_sent(), 16u * 14u)
        << slices.size() << " slices";
  }
}

TEST(Heartbeat, MonitoringCostIsLinearPerPeriod) {
  auto hb = HeartbeatSimulation::balanced(fast_config(), 50);
  hb.network().reset_accounting();
  hb.run_monitoring(sim::Duration::from_sec(1.0));
  // ~20 periods x 50 devices x 20-byte beats; relays don't re-forward
  // (parents consume beats), so it is per-link, not per-path.
  const double beats =
      static_cast<double>(hb.network().messages_sent());
  EXPECT_NEAR(beats, 20.0 * 50.0, 100.0);
}

}  // namespace
}  // namespace cra::sap
