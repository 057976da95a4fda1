// §VIII extensions: authenticated requests (DoS mitigation) and lossy
// networks with re-polls.
#include <gtest/gtest.h>

#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

SapConfig base_config() {
  SapConfig cfg;
  cfg.pmem_size = 4 * 1024;
  return cfg;
}

// --- Authenticated requests ---

TEST(AuthRequests, HonestRoundStillVerifies) {
  SapConfig cfg = base_config();
  cfg.authenticate_requests = true;
  auto sim = SapSimulation::balanced(cfg, 30);
  EXPECT_TRUE(sim.run_round().verified);
}

TEST(AuthRequests, SpoofedChalTickIsDropped) {
  // Adv rewrites the tick inside flying challenges. With authentication
  // the devices drop the forgery — they never attest the wrong tick, so
  // the Adv cannot even force wasted measurements with bogus times; the
  // subtree simply never hears a (valid) challenge this round.
  SapConfig cfg = base_config();
  cfg.authenticate_requests = true;
  auto sim = SapSimulation::balanced(cfg, 14);
  sim.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        if (m.kind == kChalMsg && m.dst == 3) {
          Bytes evil = m.payload;
          evil[0] = static_cast<std::uint8_t>(evil[0] + 1);  // tick += 1
          return {net::TamperAction::kDeliverModified, std::move(evil)};
        }
        return {};
      });
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);  // subtree of 3 never participated
}

TEST(AuthRequests, WithoutAuthSpoofedTickCausesWastedAttest) {
  // Same attack without authentication: device 3 *does* attest, against
  // a tick its clock will never match -> zero token, verification fails
  // but the measurement energy was burned (the DoS the extension stops).
  SapConfig cfg = base_config();
  cfg.authenticate_requests = false;
  auto sim = SapSimulation::balanced(cfg, 14);
  sim.network().set_tamper_hook(
      [](const net::Message& m) -> net::TamperResult {
        if (m.kind == kChalMsg && m.dst == 3) {
          Bytes evil = m.payload;
          evil[0] = static_cast<std::uint8_t>(evil[0] + 1);
          return {net::TamperAction::kDeliverModified, std::move(evil)};
        }
        return {};
      });
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(AuthRequests, ForgedWholeChallengeRejected) {
  SapConfig cfg = base_config();
  cfg.authenticate_requests = true;
  auto sim = SapSimulation::balanced(cfg, 6);
  sim.network().set_tamper_hook(
      [&](const net::Message& m) -> net::TamperResult {
        if (m.kind == kChalMsg) {
          // Total forgery: attacker-controlled payload of the right size.
          return {net::TamperAction::kDeliverModified,
                  Bytes(m.payload.size(), 0x66)};
        }
        return {};
      });
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  // Nobody attested anything: every device dropped the forgery at the
  // first hop, so no tokens flowed at all (only chal bytes on links from
  // the root's perspective... the root got no reports before deadline).
  EXPECT_EQ(r.responded, 0u);
}

// --- Lossy networks ---

TEST(LossyNetwork, LossBreaksPlainRound) {
  SapConfig cfg = base_config();
  auto sim = SapSimulation::balanced(cfg, 126);
  sim.network().set_loss_rate(0.10, /*seed=*/5);
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);  // ~25 of 252 messages vanish
  EXPECT_GT(r.dropped, 0u);
}

TEST(LossyNetwork, RetransmissionRecoversModerateLoss) {
  SapConfig cfg = base_config();
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_repolls = 3;
  cfg.qoa = QoaMode::kCount;
  auto sim = SapSimulation::balanced(cfg, 30);
  // Loss only on report traffic (chal flooding is already redundant in
  // time; sustained chal loss needs chal-side retry, which §VIII leaves
  // open). 5% report loss is recoverable via repoll.
  std::uint64_t rng_state = 42;
  sim.network().set_tamper_hook(
      [&rng_state](const net::Message& m) -> net::TamperResult {
        if (m.kind != kTokenMsg) return {};
        rng_state = rng_state * 6364136223846793005ULL + 1442695040888963407ULL;
        if ((rng_state >> 33) % 100 < 5) {
          return {net::TamperAction::kDrop, {}};
        }
        return {};
      });
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.repolls, 0u);  // recovery actually happened
}

TEST(LossyNetwork, RetransmissionGivesUpAfterMaxRetries) {
  SapConfig cfg = base_config();
  cfg.adaptive.enabled = true;
  cfg.adaptive.max_repolls = 2;
  auto sim = SapSimulation::balanced(cfg, 30);
  sim.set_device_unresponsive(30, true);  // no retry can resurrect it
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_GT(r.repolls, 0u);
}

TEST(LossyNetwork, ZeroLossWithRetransmitIsFreeOfRepolls) {
  SapConfig cfg = base_config();
  cfg.adaptive.enabled = true;
  auto sim = SapSimulation::balanced(cfg, 30);
  const RoundReport r = sim.run_round();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.repolls, 0u);
}

}  // namespace
}  // namespace cra::sap
