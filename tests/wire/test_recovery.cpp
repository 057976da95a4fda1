// Restart recovery for the wire daemons: journaled state adoption,
// resumed rounds with live agents, epoch-aware re-hello healing,
// graceful SIGTERM drain, and the pinned seq-wraparound regression.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sap/messages.hpp"
#include "wire/agent.hpp"
#include "wire/daemon.hpp"
#include "wire/journal.hpp"

namespace cra::wire {
namespace {

// --- SeqTracker: pinned regression for 32-bit seq wraparound ---

TEST(SeqTracker, WraparoundIsAdvanceNotReorder) {
  SeqTracker t;
  EXPECT_EQ(t.observe(0xFFFFFFFEu), SeqTracker::Verdict::kFirst);
  EXPECT_EQ(t.observe(0xFFFFFFFFu), SeqTracker::Verdict::kAdvance);
  // The wrap: seq 0 follows 0xFFFFFFFF. The old `seq < last` comparison
  // misattributed this as a reorder; serial-number arithmetic does not.
  EXPECT_EQ(t.observe(0u), SeqTracker::Verdict::kAdvance);
  EXPECT_EQ(t.observe(0u), SeqTracker::Verdict::kDuplicate);
  // Genuinely late pre-wrap datagram: still a reorder.
  EXPECT_EQ(t.observe(0xFFFFFFFEu), SeqTracker::Verdict::kReorder);
  EXPECT_EQ(t.observe(5u), SeqTracker::Verdict::kAdvance);
}

TEST(SeqTracker, ResetForgetsTheSession) {
  SeqTracker t;
  EXPECT_EQ(t.observe(1000u), SeqTracker::Verdict::kFirst);
  EXPECT_EQ(t.observe(1u), SeqTracker::Verdict::kReorder);
  t.reset();
  // A restarted agent's low sequence numbers are a fresh session, not
  // a flood of reorders.
  EXPECT_EQ(t.observe(1u), SeqTracker::Verdict::kFirst);
  EXPECT_EQ(t.observe(2u), SeqTracker::Verdict::kAdvance);
}

// --- Hello epoch wire compatibility ---

TEST(HelloEpoch, EncodesEpochAndAcceptsLegacyFrames) {
  HelloPayload hello;
  hello.first_id = 17;
  hello.count = 1200;
  hello.epoch = 0x1122334455667788ull;
  const Bytes wire = encode_hello(hello);
  ASSERT_EQ(wire.size(), 16u);
  const auto back = decode_hello(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->first_id, 17u);
  EXPECT_EQ(back->count, 1200u);
  EXPECT_EQ(back->epoch, 0x1122334455667788ull);

  // Pre-epoch agents sent 8 bytes; they decode with epoch 0.
  const auto legacy = decode_hello(BytesView(wire.data(), 8));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->first_id, 17u);
  EXPECT_EQ(legacy->count, 1200u);
  EXPECT_EQ(legacy->epoch, 0u);

  EXPECT_FALSE(decode_hello(BytesView(wire.data(), 7)).has_value());
  EXPECT_FALSE(decode_hello(BytesView(wire.data(), 12)).has_value());
}

// --- Daemon restart recovery ---

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/cra_recovery_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (const char* f : {"/state.wal", "/state.snap", "/state.snap.tmp",
                          "/epoch", "/metrics.json", "/metrics.json.tmp"}) {
      ::unlink((dir_ + f).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string journal() const { return dir_ + "/state"; }

  std::string dir_;
};

constexpr std::uint32_t kDevices = 64;
const char* const kMaster = "recovery-test-master";

DaemonConfig daemon_config(const std::string& journal,
                           std::uint32_t rounds) {
  DaemonConfig cfg;
  cfg.port = 0;
  cfg.devices = kDevices;
  cfg.master = to_bytes(kMaster);
  cfg.rounds = rounds;
  cfg.period_ms = 10;
  cfg.journal_path = journal;
  cfg.snapshot_every = 2;
  return cfg;
}

std::unique_ptr<AgentRunner> make_agent(std::uint16_t port) {
  AgentRunnerConfig acfg;
  acfg.daemon = Endpoint::loopback(port);
  acfg.agent.first_id = 1;
  acfg.agent.count = kDevices;
  acfg.agent.master = to_bytes(kMaster);
  return std::make_unique<AgentRunner>(std::move(acfg));
}

/// Run `daemon` to completion with one fresh agent covering the swarm.
void run_with_agent(VerifierDaemon& daemon) {
  auto agent = make_agent(daemon.local_port());
  std::thread t([&] { agent->run(); });
  daemon.run();
  agent->stop();
  t.join();
}

TEST_F(RecoveryTest, RestartAdoptsJournaledStateAndContinues) {
  {
    VerifierDaemon first(daemon_config(journal(), 2));
    EXPECT_FALSE(first.recovered());  // nothing journaled yet
    run_with_agent(first);
    EXPECT_EQ(first.rounds_completed(), 2u);
  }
  // Same journal, higher round target: the restart adopts rounds_done=2
  // and the registration table, then runs rounds 3 and 4. The original
  // agent is gone — a fresh one re-hellos with a new epoch and heals
  // the journaled (stale-port) entry.
  VerifierDaemon second(daemon_config(journal(), 4));
  EXPECT_TRUE(second.recovered());
  EXPECT_EQ(second.rounds_completed(), 2u);
  run_with_agent(second);
  EXPECT_EQ(second.rounds_completed(), 4u);
  EXPECT_EQ(second.metrics().counter_value("wire.daemon.recoveries"), 1u);
  EXPECT_EQ(second.metrics().counter_value("wire.daemon.agent_restarts"),
            1u);
  EXPECT_EQ(second.metrics().counter_value("wire.daemon.devices_untrusted"),
            0u);
  // Reconvergence stamped: the first full-coverage round after restart
  // (a set wire.recovery_rounds is always >= 1 — it counts the resumed
  // round itself; unset gauges read 0).
  EXPECT_GE(second.metrics().gauge_value("wire.recovery_rounds"), 1);
  EXPECT_GE(second.metrics().gauge_value("wire.recovery_ms"), 0);
}

TEST_F(RecoveryTest, RestartAtRoundLimitExitsWithoutAnExtraRound) {
  {
    VerifierDaemon first(daemon_config(journal(), 2));
    run_with_agent(first);
    EXPECT_EQ(first.rounds_completed(), 2u);
  }
  // Same round target as the journaled rounds_done: the previous
  // incarnation already finished, so run() must return immediately
  // instead of starting round 3 with nobody listening.
  VerifierDaemon second(daemon_config(journal(), 2));
  EXPECT_TRUE(second.recovered());
  EXPECT_EQ(second.rounds_completed(), 2u);
  second.run();
  EXPECT_EQ(second.rounds_completed(), 2u);
  EXPECT_EQ(second.metrics().counter_value("wire.daemon.rounds_completed"),
            0u);
}

TEST_F(RecoveryTest, MidRoundJournalResumesSameRoundWithLiveAgents) {
  // Hand-craft the journal of a verifier killed mid-round 1: agent
  // registered (at a dead port), round started, re-poll armed, no
  // reports yet.
  {
    Journal j = Journal::open(journal() + ".wal", {});
    VerifierState::Agent a;
    a.first_id = 1;
    a.count = kDevices;
    a.epoch = 7;
    a.ip = 0x0100007Fu;        // 127.0.0.1
    a.port = 0xFFFF;           // nobody listens here anymore
    j.append(VerifierState::kAgentRecord, VerifierState::encode_agent(a));
    j.append(VerifierState::kRoundStart,
             VerifierState::encode_round_start(1));
    j.append(VerifierState::kRepoll, VerifierState::encode_repoll(1, 1));
    j.sync();
  }
  VerifierDaemon daemon(daemon_config(journal(), 2));
  ASSERT_TRUE(daemon.recovered());
  EXPECT_EQ(daemon.rounds_completed(), 0u);  // round 1 still in flight

  // The resumed round's chal goes to the stale port and dies; the live
  // agent re-hellos, heals the entry, and the re-poll ladder completes
  // the SAME round — then round 2 runs normally.
  run_with_agent(daemon);
  EXPECT_EQ(daemon.rounds_completed(), 2u);
  EXPECT_EQ(daemon.metrics().counter_value("wire.daemon.rounds_resumed"),
            1u);
  EXPECT_EQ(daemon.metrics().counter_value("wire.daemon.rounds_started"),
            1u);
  EXPECT_EQ(daemon.metrics().counter_value("wire.daemon.devices_untrusted"),
            0u);
}

TEST_F(RecoveryTest, MidRoundJournalJudgesItsReplayedReports) {
  // As above, but the killed verifier had already accepted the tokens of
  // devices 1..10 for round 1, device 5's forged. The resumed round
  // re-polls only the missing ranges, so the forged entry stays device
  // 5's evidence: the replayed reports must be judged, not left to read
  // as unreachable.
  const std::size_t token_size = crypto::digest_size(crypto::HashAlg::kSha1);
  AgentConfig acfg;
  acfg.first_id = 1;
  acfg.count = 10;
  acfg.master = to_bytes(kMaster);
  AgentCore core(acfg);
  const std::vector<Bytes> payloads = core.token_payloads(1, {});
  ASSERT_EQ(payloads.size(), 1u);
  auto reports = sap::decode_identify_ex(payloads.front(), token_size);
  ASSERT_TRUE(reports.has_value());
  ASSERT_EQ(reports->size(), 10u);
  (*reports)[4].token[0] ^= 0xff;
  {
    Journal j = Journal::open(journal() + ".wal", {});
    VerifierState::Agent a;
    a.first_id = 1;
    a.count = kDevices;
    a.epoch = 7;
    a.ip = 0x0100007Fu;
    a.port = 0xFFFF;
    j.append(VerifierState::kAgentRecord, VerifierState::encode_agent(a));
    j.append(VerifierState::kRoundStart,
             VerifierState::encode_round_start(1));
    j.append(VerifierState::kReports,
             VerifierState::encode_reports(1, reports->data(),
                                           reports->size(), token_size));
    j.append(VerifierState::kRepoll, VerifierState::encode_repoll(1, 1));
    j.sync();
  }
  VerifierDaemon daemon(daemon_config(journal(), 2));
  ASSERT_TRUE(daemon.recovered());
  run_with_agent(daemon);
  EXPECT_EQ(daemon.rounds_completed(), 2u);
  EXPECT_EQ(daemon.metrics().counter_value("wire.daemon.rounds_resumed"),
            1u);
  EXPECT_EQ(daemon.metrics().counter_value("wire.daemon.devices_untrusted"),
            1u);
  EXPECT_EQ(
      daemon.metrics().counter_value("wire.daemon.devices_unreachable"), 0u);
}

TEST_F(RecoveryTest, RecoveredDigestMatchesIndependentReplay) {
  {
    VerifierDaemon first(daemon_config(journal(), 3));
    run_with_agent(first);
  }
  // Replay the files exactly like recover_from_journal does; the
  // restarted daemon must report the identical digest.
  const std::size_t token_size = crypto::digest_size(crypto::HashAlg::kSha1);
  VerifierState st;
  st.devices = kDevices;
  if (const auto snap = read_snapshot_file(journal() + ".snap")) {
    auto decoded = VerifierState::decode(*snap, token_size);
    ASSERT_TRUE(decoded.has_value());
    st = std::move(*decoded);
  }
  {
    Journal j = Journal::open(journal() + ".wal",
                              [&](std::uint8_t kind, BytesView payload) {
                                st.apply(kind, payload, token_size);
                              });
  }
  const auto expected = static_cast<std::int64_t>(
      st.digest64(token_size) & 0x7fffffffffffffffull);

  VerifierDaemon second(daemon_config(journal(), 3));
  ASSERT_TRUE(second.recovered());
  EXPECT_EQ(second.metrics().gauge_value("wire.daemon.recovered_digest_lo"),
            expected);
}

TEST_F(RecoveryTest, GracefulShutdownWritesFinalSnapshotAndMetrics) {
  DaemonConfig cfg = daemon_config(journal(), 0);  // run forever
  cfg.metrics_path = dir_ + "/metrics.json";
  VerifierDaemon daemon(std::move(cfg));
  auto agent = make_agent(daemon.local_port());
  std::thread at([&] { agent->run(); });
  std::thread dt([&] { daemon.run(); });
  // Let a couple of rounds land, then ask for the SIGTERM path.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  VerifierDaemon::request_shutdown();
  dt.join();
  agent->stop();
  at.join();

  EXPECT_GE(daemon.rounds_completed(), 1u);
  EXPECT_EQ(
      daemon.metrics().counter_value("wire.daemon.graceful_shutdowns"), 1u);
  // The drain leaves no round in flight and the journal compacted: a
  // restart adopts a closed-round state.
  VerifierDaemon restarted(daemon_config(journal(), 0));
  EXPECT_TRUE(restarted.recovered());
  EXPECT_EQ(restarted.rounds_completed(), daemon.rounds_completed());
  // And the metrics JSON export happened.
  EXPECT_EQ(::access((dir_ + "/metrics.json").c_str(), R_OK), 0);
}

TEST_F(RecoveryTest, MetricsExportEndsInOneNewline) {
  DaemonConfig cfg = daemon_config("", 1);
  cfg.metrics_path = dir_ + "/metrics.json";
  VerifierDaemon daemon(std::move(cfg));
  daemon.write_snapshot();
  std::ifstream in(dir_ + "/metrics.json", std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_GE(text.size(), 2u);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text[text.size() - 2], '\n');
}

TEST_F(RecoveryTest, AgentEpochPersistsAndBumps) {
  AgentRunnerConfig acfg;
  acfg.daemon = Endpoint::loopback(1);  // never contacted
  acfg.agent.first_id = 1;
  acfg.agent.count = 4;
  acfg.agent.master = to_bytes(kMaster);
  acfg.journal_path = dir_ + "/epoch";
  const AgentRunner a1(acfg);
  const AgentRunner a2(acfg);
  EXPECT_EQ(a1.epoch(), 1u);
  EXPECT_EQ(a2.epoch(), 2u);

  // Without a journal the epoch is clock-derived: unique, nonzero.
  acfg.journal_path.clear();
  const AgentRunner a3(acfg);
  EXPECT_NE(a3.epoch(), 0u);
}

}  // namespace
}  // namespace cra::wire
