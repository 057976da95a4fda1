// Quality-of-Attestation modes (§VIII): count and identify, and the
// bandwidth trade-off against binary aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "sap/analysis.hpp"
#include "sap/messages.hpp"
#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

SapConfig qoa_config(QoaMode mode) {
  SapConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.qoa = mode;
  return cfg;
}

TEST(QoaCount, HonestRoundReportsFullCount) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kCount), 40);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 40u);
}

TEST(QoaCount, UnresponsiveSubtreeVisibleInCount) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kCount), 62);
  sim.set_device_unresponsive(2, true);  // subtree of node 2 dark
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  // Node 2 heads a 31-node subtree of the 62-device tree.
  EXPECT_EQ(r.responded, 31u);
}

TEST(QoaCount, CompromisedDeviceStillCounted) {
  // An infected device responds (with a wrong token): count
  // distinguishes "infected" from "unresponsive".
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kCount), 20);
  sim.compromise_device(9);
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.responded, 20u);
}

TEST(QoaIdentify, PinpointsInfectedDevices) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), 30);
  sim.compromise_device(7);
  sim.compromise_device(23);
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.identify.bad, (std::vector<net::NodeId>{7, 23}));
  EXPECT_TRUE(r.identify.missing.empty());
}

TEST(QoaIdentify, PinpointsUnresponsiveDevices) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), 30);
  sim.set_device_unresponsive(30, true);
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_TRUE(r.identify.bad.empty());
  EXPECT_EQ(r.identify.missing, std::vector<net::NodeId>{30});
}

TEST(QoaIdentify, DarkSubtreeListedAsMissing) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), 14);
  sim.set_device_unresponsive(1, true);  // nodes 1,3,4,7,8,9,10 dark
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.identify.missing,
            (std::vector<net::NodeId>{1, 3, 4, 7, 8, 9, 10}));
}

TEST(QoaIdentify, HonestRoundAllGood) {
  auto sim = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), 25);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 25u);
  EXPECT_TRUE(r.identify.all_good());
}

/// Everything an identify round reports about its devices.
std::string identify_digest(const RoundReport& r) {
  std::ostringstream os;
  const auto ids = [&os](const char* name,
                         const std::vector<net::NodeId>& list) {
    os << '|' << name;
    for (const net::NodeId id : list) os << ' ' << id;
  };
  os << r.verified << '|' << r.responded;
  ids("bad", r.identify.bad);
  ids("missing", r.identify.missing);
  const Verifier::Classification& d = r.degraded;
  os << "|degraded " << d.enabled << ' ' << d.healthy << ' ' << d.unreachable
     << ' ' << d.untrusted << ' ' << d.rebooted << ' ';
  for (const auto status : d.status) os << static_cast<int>(status);
  ids("untrusted", d.untrusted_ids);
  ids("unreachable", d.unreachable_ids);
  ids("rebooted", d.rebooted_ids);
  return os.str();
}

/// Two identify rounds on 300 devices: device 17 compromised, 250
/// unresponsive, 123 crashed at the start and rebooted 120 ms in; then
/// the same devices reversed over the positions of a 3-ary tree.
std::vector<RoundReport> identify_rounds(bool adaptive, std::uint32_t threads,
                                         std::uint32_t shards) {
  constexpr std::uint32_t kDevices = 300;
  SapConfig cfg = qoa_config(QoaMode::kIdentify);
  cfg.adaptive.enabled = adaptive;
  cfg.sim.threads = threads;
  cfg.sim.shards = shards;
  auto sim = SapSimulation::balanced(cfg, kDevices, /*seed=*/7);
  sim.compromise_device(17);
  sim.set_device_unresponsive(250, true);
  sim.attach_fault_plan(fault::FaultPlan().crash_for(
      sim.current_time(), 123, sim::Duration::from_ms(120)));
  std::vector<RoundReport> out;
  out.push_back(sim.run_round());
  std::vector<net::NodeId> reversed(kDevices + 1, 0);
  for (net::NodeId pos = 1; pos <= kDevices; ++pos) {
    reversed[pos] = kDevices + 1 - pos;
  }
  sim.rebuild_topology(net::balanced_kary_tree(kDevices, 3), reversed);
  out.push_back(sim.run_round());
  return out;
}

TEST(QoaIdentify, VerdictsEqualAtEveryPlacement) {
  // Identify rounds sweep their token tables on the shard workers: the
  // verdicts are a function of the inputs alone, equal at one shard and
  // at eight on one or four threads, in both identify formats.
  for (const bool adaptive : {false, true}) {
    SCOPED_TRACE(adaptive ? "adaptive" : "legacy");
    const std::vector<RoundReport> serial = identify_rounds(adaptive, 1, 1);
    for (const auto& [threads, shards] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 8}, {4, 8}}) {
      const std::vector<RoundReport> sharded =
          identify_rounds(adaptive, threads, shards);
      for (std::size_t round = 0; round < serial.size(); ++round) {
        EXPECT_EQ(identify_digest(sharded[round]),
                  identify_digest(serial[round]))
            << "round " << round << " at " << threads << " threads, "
            << shards << " shards";
      }
    }
    for (const RoundReport& r : serial) {
      EXPECT_FALSE(r.verified);
      EXPECT_EQ(r.identify.bad, std::vector<net::NodeId>{17});
      EXPECT_TRUE(std::is_sorted(r.identify.missing.begin(),
                                 r.identify.missing.end()));
      EXPECT_TRUE(std::binary_search(r.identify.missing.begin(),
                                     r.identify.missing.end(), 250u));
      EXPECT_EQ(r.degraded.enabled, adaptive);
    }
    // The crashed device misses a legacy round and late-joins an
    // adaptive one; either way it is back for the next.
    const RoundReport& first = serial.front();
    EXPECT_EQ(std::binary_search(first.identify.missing.begin(),
                                 first.identify.missing.end(), 123u),
              !adaptive);
    if (adaptive) {
      EXPECT_EQ(first.degraded.rebooted_ids, std::vector<net::NodeId>{123});
    }
    // On the 3-ary tree, silent 250 sits at position 51, above the
    // positions of devices 147, 146 and 145.
    EXPECT_EQ(serial.back().identify.missing,
              (std::vector<net::NodeId>{145, 146, 147, 250}));
  }
}

TEST(QoaIdentify, LastEntryForADeviceDecides) {
  // Each report reaching Vrf carries a forged copy of its first entry,
  // before or after the real one. The last entry decides, as in
  // adaptive rounds and the live verifier, and a device is listed once.
  for (const bool forged_last : {false, true}) {
    SCOPED_TRACE(forged_last ? "forged copy last" : "forged copy first");
    auto sim = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), 30);
    const std::size_t token_size = sim.config().token_size();
    std::vector<net::NodeId> forged_ids;
    sim.network().set_tamper_hook([&](const net::Message& m) {
      net::TamperResult out;
      if (m.dst != 0 || m.kind != kTokenMsg) return out;
      auto entries = decode_identify(m.payload, token_size);
      if (!entries || entries->empty()) return out;
      DeviceReport forged = entries->front();
      forged.token[0] ^= 0x01;
      forged_ids.push_back(forged.id);
      entries->insert(forged_last ? entries->end() : entries->begin(),
                      forged);
      out.action = net::TamperAction::kDeliverModified;
      out.modified_payload = encode_identify(*entries, token_size);
      return out;
    });
    const RoundReport r = sim.run_round();
    ASSERT_EQ(forged_ids.size(), 2u);  // one report per child of Vrf
    std::sort(forged_ids.begin(), forged_ids.end());
    EXPECT_EQ(r.responded, 32u);  // every entry Vrf received
    EXPECT_TRUE(r.identify.missing.empty());
    EXPECT_EQ(r.identify.bad,
              forged_last ? forged_ids : std::vector<net::NodeId>{});
    EXPECT_EQ(r.verified, !forged_last);
    EXPECT_FALSE(r.degraded.enabled);
  }
}

TEST(QoaTradeoff, IdentifyCostsMoreBandwidthThanBinary) {
  // The §VIII QoA discussion: granularity costs network utilization.
  const std::uint32_t n = 62;
  auto binary = SapSimulation::balanced(qoa_config(QoaMode::kBinary), n);
  auto identify = SapSimulation::balanced(qoa_config(QoaMode::kIdentify), n);
  const auto rb = binary.run_round();
  const auto ri = identify.run_round();
  EXPECT_TRUE(rb.verified);
  EXPECT_TRUE(ri.verified);
  // Binary: Θ(N·l). Identify: token entries accumulate toward the root,
  // costing Θ(N·l·depth)-ish — strictly more.
  EXPECT_GT(ri.u_ca_bytes, 2 * rb.u_ca_bytes);
}

TEST(QoaTradeoff, CountAddsOnlyConstantPerLink) {
  const std::uint32_t n = 62;
  auto binary = SapSimulation::balanced(qoa_config(QoaMode::kBinary), n);
  auto count = SapSimulation::balanced(qoa_config(QoaMode::kCount), n);
  const auto rb = binary.run_round();
  const auto rc = count.run_round();
  // kCount adds exactly 4 bytes per report link.
  EXPECT_EQ(rc.u_ca_bytes, rb.u_ca_bytes + 4ull * n);
}

}  // namespace
}  // namespace cra::sap
