// Device agent: many simulated SAP devices multiplexed on one socket.
//
// A real swarm has one TrustLite-class MCU per token; load-testing the
// verifier daemon does not. cra_agentd folds 10k–100k devices into a
// single process: one contiguous id range, one UDP socket, and one
// crypto::Backend hmac_batch sweep per challenge — the same SIMD lane
// packing the simulator's verifier uses, now producing the device side
// of the protocol. Token payloads are extended identify entries, which
// sap::IdentifyCodec (sap/messages.hpp) writes straight from the token
// cache into MTU-sized kTokens frames.
//
// AgentCore is pure protocol state (testable without sockets);
// AgentRunner owns the socket, the event loop, and the optional
// TrafficShaper that degrades its own uplink.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac_cache.hpp"
#include "fault/shaper.hpp"
#include "obs/metrics.hpp"
#include "sap/messages.hpp"
#include "wire/event_loop.hpp"
#include "wire/frame.hpp"
#include "wire/udp.hpp"

namespace cra::wire {

struct AgentConfig {
  std::uint32_t first_id = 1;
  std::uint32_t count = 1000;
  Bytes master;  // shared deployment secret
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  /// Expected-content bytes per device (the attested digest).
  std::size_t content_size = 64;
  /// The first `bad` devices of the range attest over tampered content
  /// — the daemon must classify them untrusted every round.
  std::uint32_t bad = 0;
};

class AgentCore {
 public:
  explicit AgentCore(AgentConfig config);

  const AgentConfig& config() const noexcept { return config_; }

  /// Compute tokens for challenge tick `tick` and pack them into
  /// MTU-sized kTokens payloads (identify-ex entries). `want` limits
  /// the answer to the daemon's missing-id ranges; empty = all devices.
  /// Each wanted id in our range is answered once, in ascending order,
  /// however the ranges overlap.
  /// Tokens for one tick are computed once and cached until the next
  /// tick arrives, so re-polls cost packing, not hashing.
  std::vector<Bytes> token_payloads(std::uint32_t tick,
                                    const std::vector<WantRange>& want);

  /// Hello payload carrying `epoch`, the session epoch the daemon uses
  /// to tell a restarted agent from a reordered datagram.
  Bytes hello_payload(std::uint64_t epoch) const;

  /// Tokens computed since construction (each device counts once per
  /// distinct tick).
  std::uint64_t tokens_computed() const noexcept { return tokens_computed_; }

 private:
  void compute_round(std::uint32_t tick);

  AgentConfig config_;
  std::vector<crypto::PrecomputedMac> macs_;  // index id - first_id
  std::vector<Bytes> contents_;               // index id - first_id
  // Cache of the latest round's tokens, index id - first_id.
  std::uint32_t cached_tick_ = 0;
  bool cache_valid_ = false;
  std::vector<crypto::MacBuf> tokens_;
  std::uint64_t tokens_computed_ = 0;
};

struct AgentRunnerConfig {
  AgentConfig agent;
  Endpoint daemon;
  /// Outbound shaping (loss/reorder/plan windows); applied to kTokens
  /// frames only — session traffic stays clean so registration works.
  fault::ShaperConfig shaper{};
  const fault::FaultPlan* plan = nullptr;  // optional, not owned
  /// Re-send the hello every this many ms until the ack arrives.
  std::uint64_t hello_retry_ms = 250;
  /// Epoch journal path (wire/journal.hpp next_agent_epoch): each
  /// process start appends a fresh epoch so the daemon resets seq-gap
  /// accounting on restart instead of misreading the new session's low
  /// sequence numbers as reorders. Empty = epoch from the monotonic
  /// clock (still unique per start, just not crash-persistent).
  std::string journal_path;
  /// Metrics JSON export path, written (tmp + rename) when run()
  /// returns — including graceful SIGTERM/SIGINT shutdown. Empty = off.
  std::string metrics_path;
};

/// Socket-facing agent driver. run() blocks until stop() (cross-thread
/// safe) or a kBye from the daemon.
class AgentRunner {
 public:
  explicit AgentRunner(AgentRunnerConfig config);

  void run();
  void stop() noexcept { loop_.stop(); }

  bool registered() const noexcept { return registered_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  std::uint16_t local_port() const { return socket_.local_port(); }
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Async-signal-safe and thread-safe graceful shutdown (SIGTERM/SIGINT
  /// in cra_agentd): tell the daemon goodbye, export metrics, leave
  /// run().
  static void request_shutdown() noexcept { shutdown_requested_.store(1); }

 private:
  void on_readable();
  void send_hello_and_rearm();
  void handle_chal(const Frame& frame);
  void send_frame(FrameKind kind, std::uint32_t tick, BytesView payload);
  void flush_delayed();
  void write_metrics();

  AgentRunnerConfig config_;
  AgentCore core_;
  UdpSocket socket_;
  EventLoop loop_;
  fault::TrafficShaper shaper_;
  obs::MetricsRegistry metrics_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t epoch_ = 0;  // session epoch carried in the hello
  bool registered_ = false;
  TimerQueue::TimerId hello_timer_ = 0;
  // Shaper-delayed datagrams waiting on their release timer.
  std::deque<Bytes> delayed_;
  UdpSocket::Stats stats_synced_;  // socket tallies already exported

  // Lock-free, so safe from a signal handler and from another thread.
  static std::atomic<int> shutdown_requested_;
  static_assert(std::atomic<int>::is_always_lock_free);
};

}  // namespace cra::wire
