// End-to-end loopback integration: a VerifierDaemon and AgentRunners on
// real UDP sockets, in-process. These are the wire stack's contract
// tests — registration, full rounds, bad-device classification, binary
// aggregation, and loss recovery through the adaptive re-poll ladder.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "wire/agent.hpp"
#include "wire/daemon.hpp"

namespace cra::wire {
namespace {

struct Swarm {
  std::unique_ptr<VerifierDaemon> daemon;
  std::vector<std::unique_ptr<AgentRunner>> runners;
  std::vector<std::thread> threads;

  /// Run to completion: agents in threads, daemon on this one.
  void run() {
    for (auto& r : runners) {
      threads.emplace_back([&r] { r->run(); });
    }
    daemon->run();
    for (auto& r : runners) r->stop();  // in case a kBye was lost
    for (auto& t : threads) t.join();
  }
};

Swarm make_swarm(DaemonConfig dcfg, std::uint32_t agent_count,
                 std::uint32_t bad, double loss) {
  const Bytes master = to_bytes("loopback-test-master");
  dcfg.port = 0;
  dcfg.master = master;
  Swarm s;
  const std::uint32_t devices = dcfg.devices;
  const crypto::HashAlg alg = dcfg.alg;
  const std::size_t content_size = dcfg.content_size;
  s.daemon = std::make_unique<VerifierDaemon>(std::move(dcfg));
  std::uint32_t next_id = 1;
  for (std::uint32_t a = 0; a < agent_count; ++a) {
    const std::uint32_t share =
        devices / agent_count + (a < devices % agent_count ? 1 : 0);
    if (share == 0) continue;
    AgentRunnerConfig acfg;
    acfg.daemon = Endpoint::loopback(s.daemon->local_port());
    acfg.agent.first_id = next_id;
    acfg.agent.count = share;
    acfg.agent.master = master;
    acfg.agent.alg = alg;
    acfg.agent.content_size = content_size;
    acfg.agent.bad = a == 0 ? bad : 0;
    acfg.shaper.baseline_loss = loss;
    acfg.shaper.seed = 0x100bull + a;
    s.runners.push_back(std::make_unique<AgentRunner>(std::move(acfg)));
    next_id += share;
  }
  return s;
}

std::uint64_t counter(const Swarm& s, const char* name) {
  return s.daemon->metrics().counter_value(name);
}

TEST(WireLoopback, AllHealthyIdentifyRounds) {
  DaemonConfig dcfg;
  dcfg.devices = 512;
  dcfg.rounds = 3;
  dcfg.period_ms = 25;
  Swarm s = make_swarm(std::move(dcfg), 1, 0, 0.0);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 3u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_received"), 3u * 512u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_missing"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_healthy"), 3u * 512u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_untrusted"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_unreachable"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_verified"), 3u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_failed"), 0u);
}

TEST(WireLoopback, BadDevicesClassifiedUntrustedEveryRound) {
  DaemonConfig dcfg;
  dcfg.devices = 256;
  dcfg.rounds = 3;
  dcfg.period_ms = 25;
  Swarm s = make_swarm(std::move(dcfg), 1, /*bad=*/5, 0.0);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 3u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_untrusted"), 3u * 5u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_healthy"), 3u * 251u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_verified"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_failed"), 3u);
}

TEST(WireLoopback, MultipleAgentsCoverTheIdSpace) {
  DaemonConfig dcfg;
  dcfg.devices = 300;  // 100 each across 3 agents
  dcfg.rounds = 2;
  dcfg.period_ms = 25;
  Swarm s = make_swarm(std::move(dcfg), 3, 0, 0.0);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 2u);
  EXPECT_EQ(counter(s, "wire.daemon.agents_registered"), 3u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_received"), 2u * 300u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_missing"), 0u);
}

TEST(WireLoopback, BinaryModeVerifiesHealthySwarm) {
  DaemonConfig dcfg;
  dcfg.devices = 128;
  dcfg.rounds = 2;
  dcfg.period_ms = 25;
  dcfg.mode = sap::QoaMode::kBinary;
  Swarm s = make_swarm(std::move(dcfg), 1, 0, 0.0);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 2u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_verified"), 2u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_failed"), 0u);
}

TEST(WireLoopback, BinaryModeFailsWithOneBadDevice) {
  DaemonConfig dcfg;
  dcfg.devices = 128;
  dcfg.rounds = 2;
  dcfg.period_ms = 25;
  dcfg.mode = sap::QoaMode::kBinary;
  Swarm s = make_swarm(std::move(dcfg), 1, /*bad=*/1, 0.0);
  s.run();

  EXPECT_EQ(counter(s, "wire.daemon.rounds_verified"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.rounds_failed"), 2u);
}

TEST(WireLoopback, Sha256BackendEndToEnd) {
  DaemonConfig dcfg;
  dcfg.devices = 128;
  dcfg.rounds = 2;
  dcfg.period_ms = 25;
  dcfg.alg = crypto::HashAlg::kSha256;
  Swarm s = make_swarm(std::move(dcfg), 1, /*bad=*/2, 0.0);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 2u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_untrusted"), 2u * 2u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_missing"), 0u);
}

TEST(WireLoopback, RepollLadderRecoversShapedLoss) {
  // 10% uplink loss on kTokens frames: the adaptive ladder's
  // want-range re-polls must recover every token within the round
  // budget (25 ms x 2 up to 200 ms = 375 ms; period 100 ms keeps
  // rounds overlapping-free at this size).
  DaemonConfig dcfg;
  dcfg.devices = 512;
  dcfg.rounds = 4;
  dcfg.period_ms = 100;
  Swarm s = make_swarm(std::move(dcfg), 1, /*bad=*/3, /*loss=*/0.10);
  s.run();

  EXPECT_EQ(s.daemon->rounds_completed(), 4u);
  EXPECT_EQ(counter(s, "wire.daemon.tokens_missing"), 0u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_untrusted"), 4u * 3u);
  EXPECT_EQ(counter(s, "wire.daemon.devices_unreachable"), 0u);
  // The shaper must actually have bitten for this test to mean
  // anything — and every drop implies at least one re-poll.
  const auto& am = s.runners[0]->metrics();
  if (am.counter_value("wire.agent.shaped_drops") > 0) {
    EXPECT_GT(counter(s, "wire.daemon.repolls"), 0u);
  }
}

TEST(WireLoopback, AgentCoreCachesTokensAcrossRepolls) {
  AgentConfig cfg;
  cfg.first_id = 1;
  cfg.count = 100;
  cfg.master = to_bytes("core-cache-master");
  AgentCore core(cfg);
  (void)core.token_payloads(7, {});
  EXPECT_EQ(core.tokens_computed(), 100u);
  // A want-range re-poll for the same tick re-packs, not re-hashes.
  (void)core.token_payloads(7, {{10, 5}});
  EXPECT_EQ(core.tokens_computed(), 100u);
  // A new tick invalidates the cache.
  (void)core.token_payloads(8, {});
  EXPECT_EQ(core.tokens_computed(), 200u);
}

AgentConfig want_agent() {
  AgentConfig cfg;
  cfg.first_id = 1;
  cfg.count = 5000;
  cfg.master = to_bytes("core-want-master");
  return cfg;
}

/// The entries of an agent's token payloads, in order.
std::vector<sap::DeviceReport> entries_of(const std::vector<Bytes>& payloads,
                                          std::size_t token_size) {
  std::vector<sap::DeviceReport> out;
  for (const Bytes& p : payloads) {
    EXPECT_LE(p.size(), kMaxPayload);
    auto reports = sap::decode_identify_ex(p, token_size);
    EXPECT_TRUE(reports.has_value());
    if (reports) out.insert(out.end(), reports->begin(), reports->end());
  }
  return out;
}

TEST(WireLoopback, AgentCoreAnswersEachWantedIdOnce) {
  // Chal frames carry no authentication, and a want trailer that repeats
  // the agent's whole range as often as one chal frame holds (179 times)
  // once drew 179 copies of every token.
  const AgentConfig cfg = want_agent();
  AgentCore core(cfg);
  const std::size_t token_size = crypto::digest_size(cfg.alg);
  const std::vector<WantRange> flood((kMaxPayload - token_size) / 8,
                                     WantRange{cfg.first_id, cfg.count});
  ASSERT_EQ(flood.size(), 179u);
  const std::vector<Bytes> all = core.token_payloads(7, {});
  const std::vector<Bytes> flooded = core.token_payloads(7, flood);
  EXPECT_EQ(entries_of(flooded, token_size).size(), 5000u);
  EXPECT_TRUE(flooded == all);

  // Overlapping, repeated and out-of-order ranges: their union, ascending.
  const std::vector<sap::DeviceReport> got = entries_of(
      core.token_payloads(7, {{120, 100}, {100, 50}, {1, 10}, {4, 3},
                              {4990, 4000}, {120, 100}}),
      token_size);
  std::vector<std::uint32_t> want_ids;
  for (std::uint32_t id = 1; id <= 10; ++id) want_ids.push_back(id);
  for (std::uint32_t id = 100; id < 220; ++id) want_ids.push_back(id);
  for (std::uint32_t id = 4990; id <= 5000; ++id) want_ids.push_back(id);
  ASSERT_EQ(got.size(), want_ids.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want_ids[i]) << i;
  }
}

TEST(WireLoopback, AgentCoreKeepsItsAnswerToDisjointAscendingRanges) {
  // The daemon's re-polls want disjoint ranges in ascending order; the
  // answer is those ids in order, 50 to a frame, as it always was: the
  // digest was taken before the agent answered a union of ranges.
  const AgentConfig cfg = want_agent();
  AgentCore core(cfg);
  const std::size_t token_size = crypto::digest_size(cfg.alg);
  const std::vector<WantRange> want = {{3, 4}, {40, 300}, {4990, 50}};
  const std::vector<Bytes> payloads = core.token_payloads(7, want);

  std::vector<sap::DeviceReport> expected;
  for (const sap::DeviceReport& rep :
       entries_of(core.token_payloads(7, {}), token_size)) {
    for (const WantRange& r : want) {
      if (rep.id >= r.start && rep.id - r.start < r.count) {
        expected.push_back(rep);
      }
    }
  }
  ASSERT_EQ(expected.size(), 4u + 300u + 11u);
  ASSERT_EQ(payloads.size(), (expected.size() + 49) / 50);
  Bytes all;
  for (std::size_t f = 0; f < payloads.size(); ++f) {
    const auto first = expected.begin() + static_cast<std::ptrdiff_t>(f * 50);
    const auto last =
        f + 1 == payloads.size() ? expected.end() : first + 50;
    EXPECT_EQ(payloads[f], sap::encode_identify_ex({first, last}, token_size))
        << f;
    all.insert(all.end(), payloads[f].begin(), payloads[f].end());
  }
  EXPECT_EQ(to_hex(crypto::Sha256::digest(all)),
            "cc4bcd6bb5b32212c81fb9e2ce746a535dd36d9c771e2709d2bb6c16e9218f94");
}

}  // namespace
}  // namespace cra::wire
