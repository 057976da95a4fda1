// The SAP verifier daemon: long-lived rounds on real sockets.
//
// VerifierDaemon drives the protocol the simulator models, against
// live agents: every `period_ms` it broadcasts a challenge frame to
// each registered agent, collects identify-ex token frames, re-polls
// stragglers on the AdaptiveTimeoutConfig backoff ladder (now in wall
// time instead of simulated ticks — the same 25 ms × 2 up to 200 ms
// defaults), and appraises the round through a sap::Verifier::Appraisal
// while it runs: right after the challenge frames leave, while the
// agents hash, it sweeps every device's expected token for the tick;
// each token frame's accepted entries are then judged in place on
// arrival, by a compare against that table, and journaled as they
// came. Closing a round is only a tally:
//
//   * kIdentify mode: the appraisal's finish() yields the degraded-mode
//     census (healthy / untrusted / unreachable / rebooted) per round;
//   * kBinary mode: the XOR-fold of all received tokens is compared
//     against the appraisal's RES_S — one bit per round, the paper's
//     TCA-Model outcome.
//
// Re-polls carry want-ranges, so a straggling agent re-sends only the
// token frames the daemon is actually missing.
//
// State: the registration table and the round live in one
// VerifierState (wire/journal.hpp), changed only through its
// transitions — the same ones journal replay runs — so the state a
// restart recovers is the state the daemon executed. Beside it the
// daemon keeps only session state: per-agent sequence tracking, the
// round's start time and re-poll timer, and recovery bookkeeping.
//
// Observability: every round updates an obs::MetricsRegistry, exported
// as a JSON snapshot (atomic rename) to `metrics_path` every
// `dump_every` rounds, at shutdown, and whenever request_snapshot() —
// wired to SIGUSR1 in cra_verifierd — is flagged.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sap/config.hpp"
#include "sap/verifier.hpp"
#include "wire/event_loop.hpp"
#include "wire/frame.hpp"
#include "wire/journal.hpp"
#include "wire/udp.hpp"

namespace cra::wire {

struct DaemonConfig {
  std::uint16_t port = 0;  // 0 = ephemeral (loadgen/tests)
  std::uint32_t devices = 1000;
  Bytes master;
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  sap::QoaMode mode = sap::QoaMode::kIdentify;
  std::size_t content_size = 64;
  std::uint64_t period_ms = 250;
  /// Rounds to run before stopping; 0 = run until stop()/SIGTERM.
  std::uint32_t rounds = 0;
  /// Re-poll ladder; `enabled` is forced on — a wire daemon without
  /// timeouts would hang on the first lost datagram.
  sap::AdaptiveTimeoutConfig adaptive{};
  std::string metrics_path;      // empty = no snapshots
  std::uint32_t dump_every = 0;  // 0 = only at shutdown/signal
  /// Base path for crash-safe state journaling (wire/journal.hpp):
  /// `<path>.wal` is the write-ahead log, `<path>.snap` the compacted
  /// snapshot. Empty = nothing survives a restart. On construction the
  /// daemon replays snapshot + WAL into its state — registration
  /// table, round counter, in-flight round — and resumes the
  /// interrupted round instead of starting a new one.
  std::string journal_path;
  /// Compact the WAL into a fresh snapshot every N closed rounds.
  std::uint32_t snapshot_every = 8;
};

class VerifierDaemon {
 public:
  explicit VerifierDaemon(DaemonConfig config);

  /// Blocks until `rounds` rounds complete or stop() is called.
  void run();
  /// Cross-thread safe.
  void stop() noexcept { loop_.stop(); }

  std::uint16_t local_port() const { return socket_.local_port(); }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  std::uint32_t rounds_completed() const noexcept {
    return state_.rounds_done;
  }

  /// Async-signal-safe and thread-safe snapshot request; the loop
  /// writes the JSON on its next iteration. The signal itself
  /// interrupts epoll_wait, so the write happens promptly even on an
  /// idle daemon.
  static void request_snapshot() noexcept { snapshot_requested_.store(1); }

  /// Async-signal-safe and thread-safe graceful shutdown (SIGTERM/SIGINT
  /// in cra_verifierd): the in-flight round drains through the re-poll
  /// ladder, then a final state snapshot + metrics export are written
  /// before run() returns. An idle daemon exits on the next iteration.
  static void request_shutdown() noexcept { shutdown_requested_.store(1); }

  /// Write the metrics JSON to `metrics_path` now (tmp file + rename).
  void write_snapshot();

  /// True when construction adopted journaled state (restart recovery).
  bool recovered() const noexcept { return recovered_; }

 private:
  void on_readable();
  void handle_hello(const Frame& frame, const Endpoint& from);
  void handle_tokens(const Frame& frame);
  void start_round();
  void resume_round();
  /// Sweep the open round's expected tokens (wire.daemon.expected_sweep).
  void begin_appraisal();
  void send_chal(const std::vector<WantRange>& want);
  void finish_round();
  void arm_repoll();
  std::vector<WantRange> missing_ranges() const;
  void recover_from_journal();
  void journal_append(std::uint8_t kind, BytesView payload, bool sync);
  /// Compact: write the state snapshot, then reset the WAL.
  void persist_state();
  /// Final snapshot + metrics export, then leave the loop.
  void finalize_and_stop();

  DaemonConfig config_;
  sap::Verifier verifier_;
  sap::Verifier::Appraisal appraisal_{
      verifier_, sap::IdentifyFormat::kExtended};  // of the open round
  UdpSocket socket_;
  EventLoop loop_;
  obs::MetricsRegistry metrics_;

  VerifierState state_;
  std::map<std::uint32_t, SeqTracker> seq_;  // keyed by first_id
  std::uint64_t round_start_ns_ = 0;
  TimerQueue::TimerId repoll_timer_ = 0;

  // Crash-safety state (see wire/journal.hpp).
  Journal journal_;
  bool journaling_ = false;
  bool recovered_ = false;
  /// recovered_ until the first post-restart round closes with full
  /// coverage — that close stamps wire.recovery_ms / wire.recovery_rounds.
  bool recovery_pending_ = false;
  std::uint32_t rounds_since_recovery_ = 0;
  std::uint64_t recovery_start_ns_ = 0;

  bool draining_ = false;  // SIGTERM received; close out, don't start
  UdpSocket::Stats stats_synced_;  // socket tallies already exported

  // Lock-free, so safe from a signal handler and from another thread.
  static std::atomic<int> snapshot_requested_;
  static std::atomic<int> shutdown_requested_;
  static_assert(std::atomic<int>::is_always_lock_free);
};

}  // namespace cra::wire
