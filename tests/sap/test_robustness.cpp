// Protocol robustness under garbage: randomized malformed traffic must
// never crash an agent, corrupt another round, or (worse) make a
// compromised swarm verify. The network tamper hook plays a fuzzer.
// Forged and wrong-kind messages addressed to Vrf (position 0) must be
// dropped as a device drops them.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

SapConfig cfg(QoaMode qoa = QoaMode::kBinary) {
  SapConfig c;
  c.pmem_size = 2 * 1024;
  c.qoa = qoa;
  return c;
}

/// Corrupt ~1 in `rate` messages: random truncation, extension, byte
/// garbage, or kind rewrite.
net::Network::TamperHook fuzzer(Rng& rng, std::uint64_t rate) {
  return [&rng, rate](const net::Message& m) -> net::TamperResult {
    if (rng.next_below(rate) != 0) return {};
    Bytes evil = m.payload;
    switch (rng.next_below(4)) {
      case 0:  // truncate
        evil.resize(evil.size() / 2);
        break;
      case 1:  // extend with junk
        for (int i = 0; i < 9; ++i) {
          evil.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      case 2:  // flip random bytes
        for (int i = 0; i < 3 && !evil.empty(); ++i) {
          evil[rng.next_below(evil.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
      case 3:  // total garbage of random size
        evil = rng.next_bytes(rng.next_below(64));
        break;
    }
    return {net::TamperAction::kDeliverModified, std::move(evil)};
  };
}

TEST(Robustness, FuzzedMessagesNeverCrashBinaryMode) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    auto sim = SapSimulation::balanced(cfg(), 62, seed);
    sim.network().set_tamper_hook(fuzzer(rng, 4));
    const RoundReport r = sim.run_round();  // must terminate, not crash
    // Corrupted rounds may fail; they must never falsely pass while a
    // device is compromised (none is — any verdict is acceptable here).
    (void)r;
  }
  SUCCEED();
}

TEST(Robustness, FuzzedMessagesNeverCrashIdentifyAndCount) {
  for (QoaMode qoa : {QoaMode::kCount, QoaMode::kIdentify}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 31);
      auto sim = SapSimulation::balanced(cfg(qoa), 30, seed);
      sim.network().set_tamper_hook(fuzzer(rng, 3));
      (void)sim.run_round();
    }
  }
  SUCCEED();
}

TEST(Robustness, FuzzingNeverCreatesFalseAcceptance) {
  // The property that matters: with a compromised device, NO amount of
  // garbage injection may flip the verdict to "verified".
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    auto sim = SapSimulation::balanced(cfg(), 30, seed);
    const auto victim = static_cast<net::NodeId>(1 + rng.next_below(30));
    sim.compromise_device(victim);
    sim.network().set_tamper_hook(fuzzer(rng, 3));
    EXPECT_FALSE(sim.run_round().verified) << "seed=" << seed;
  }
}

TEST(Robustness, RecoveryAfterFuzzStorm) {
  // A round of heavy corruption must not poison the next clean round.
  Rng rng(99);
  auto sim = SapSimulation::balanced(cfg(), 30, 2);
  sim.network().set_tamper_hook(fuzzer(rng, 1));  // corrupt everything
  (void)sim.run_round();
  sim.network().set_tamper_hook({});
  sim.advance_time(sim::Duration::from_ms(100));
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(Robustness, LateSelfAttestBurnsNoPhantomRepolls) {
  // Regression (deadline/on_report race): an inner node whose own
  // attest completes after its report deadline — here forced with a
  // behind-running clock — flushes with every child already in. It may
  // wait out a self-grace window so its own token can land, but with no
  // child missing there is nothing to re-poll: charging a repoll slot
  // anyway is the phantom-repoll bug.
  SapConfig c = cfg();
  c.adaptive.enabled = true;
  c.adaptive.max_repolls = 5;
  auto sim = SapSimulation::balanced(c, 14, 3);
  sim.set_clock_skew(1, sim::Duration::from_ms(-60));
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified) << "the grace window let the own token land";
  EXPECT_EQ(r.repolls, 0u) << "no child was missing, so no repoll";
}

TEST(Robustness, LateChildReportStillConsumesOnlyRealRepolls) {
  // The counterpart path: a *leaf* with a behind-running clock delivers
  // its token late, so its parent legitimately re-polls — slots are
  // consumed exactly when a child is actually missing.
  SapConfig c = cfg();
  c.adaptive.enabled = true;
  c.adaptive.max_repolls = 5;
  auto sim = SapSimulation::balanced(c, 14, 3);
  sim.set_clock_skew(13, sim::Duration::from_ms(-60));
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.repolls, 0u) << "the late leaf forced a real re-poll";
  EXPECT_LE(r.repolls, 5u);
}

TEST(Robustness, WrongKindMessagesIgnored) {
  auto sim = SapSimulation::balanced(cfg(), 10, 3);
  sim.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        (void)m;
        return {};
      });
  // Inject stray messages with bogus kinds/addresses before the round.
  sim.network().send(0, 5, 999, Bytes(7, 0xee));
  sim.network().send(0, 2000, kChalMsg, Bytes(20, 0xee));  // bad address
  // Vrf shares the devices' dispatch but takes reports only: a
  // well-formed chal for a future tick, a re-poll carrying it and an
  // unknown kind addressed to position 0 are all dropped.
  const Bytes chal = encode_chal(1'000'000, {}, cfg().chal_size());
  sim.network().send(1, 0, kChalMsg, chal);
  sim.network().send(1, 0, kRepollMsg, chal);
  sim.network().send(1, 0, 999, Bytes(7, 0xee));
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.responded, 10u);
}

TEST(Robustness, ForgedTokenAtVrfDoesNotCountItsChild) {
  // Regression: Vrf recorded a child as heard before it checked the
  // child's token, so one malformed token from position 1, sent before
  // the round, made Vrf drop the child's real report as a duplicate.
  // Binary and count rounds then failed, and identify lost the child's
  // subtree. Vrf now runs the devices' token handler, which drops it.
  for (QoaMode qoa : {QoaMode::kBinary, QoaMode::kCount, QoaMode::kIdentify}) {
    auto sim = SapSimulation::balanced(cfg(qoa), 30, 1);
    sim.network().send(1, 0, kTokenMsg, Bytes(3, 0xee));
    const RoundReport r = sim.run_round();
    EXPECT_TRUE(r.verified) << qoa_name(qoa);
    EXPECT_EQ(r.responded, 30u) << qoa_name(qoa);
    EXPECT_TRUE(r.identify.missing.empty()) << qoa_name(qoa);
  }
}

}  // namespace
}  // namespace cra::sap
