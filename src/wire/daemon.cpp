#include "wire/daemon.hpp"

#include <sys/epoll.h>

#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "obs/trace.hpp"
#include "sap/messages.hpp"

namespace cra::wire {

std::atomic<int> VerifierDaemon::snapshot_requested_{0};
std::atomic<int> VerifierDaemon::shutdown_requested_{0};

namespace {

sap::SapConfig sap_config_for(const DaemonConfig& cfg) {
  sap::SapConfig sap;
  sap.alg = cfg.alg;
  sap.qoa = cfg.mode;
  sap.adaptive = cfg.adaptive;
  sap.adaptive.enabled = true;
  return sap;
}

/// Devices claimed by the registered agents.
std::uint64_t devices_covered(const VerifierState& st) {
  std::uint64_t covered = 0;
  for (const auto& [first_id, a] : st.agents) covered += a.count;
  return covered;
}

Endpoint endpoint_of(const VerifierState::Agent& a) {
  Endpoint ep;
  ep.sa.sin_addr.s_addr = a.ip;
  ep.sa.sin_port = a.port;
  return ep;
}

}  // namespace

VerifierDaemon::VerifierDaemon(DaemonConfig config)
    : config_(std::move(config)),
      verifier_(sap_config_for(config_), config_.devices, config_.master),
      socket_(UdpSocket::bind(config_.port)) {
  if (config_.devices == 0) {
    throw std::invalid_argument("VerifierDaemon: zero devices");
  }
  state_.devices = config_.devices;
  // Seed the valid-state set VS: daemon and agents derive the same
  // per-device content (device_content) from the shared master, so no
  // provisioning round-trip is needed before attestation can start.
  std::vector<std::uint32_t> ids(config_.devices);
  std::iota(ids.begin(), ids.end(), 1U);
  verifier_.kdf().device_keys(
      ids, config_.content_size, kDeviceContentLabel,
      [this](std::uint32_t id, BytesView content) {
        verifier_.set_expected_content(id,
                                       Bytes(content.begin(), content.end()));
      });
  loop_.add_fd(socket_.fd(), EPOLLIN, [this](std::uint32_t) { on_readable(); });
  loop_.set_wakeup_hook([this] {
    if (snapshot_requested_.exchange(0) != 0) write_snapshot();
    if (shutdown_requested_.exchange(0) != 0) {
      if (state_.round_open) {
        // Drain: the re-poll ladder closes the round, finish_round sees
        // draining_ and finalizes.
        draining_ = true;
      } else {
        finalize_and_stop();
      }
    }
  });
  recover_from_journal();
}

void VerifierDaemon::recover_from_journal() {
  if (config_.journal_path.empty()) return;
  const std::size_t token_size = verifier_.config().token_size();
  VerifierState st;
  st.devices = config_.devices;
  bool any = false;
  if (const auto snap = read_snapshot_file(config_.journal_path + ".snap")) {
    auto decoded = VerifierState::decode(*snap, token_size);
    // A snapshot for a differently-sized swarm is a config change, not
    // a restart: start fresh rather than resurrect a mismatched census.
    if (decoded.has_value() && decoded->devices == config_.devices) {
      st = std::move(*decoded);
      any = true;
    }
  }
  Journal::OpenStats jstats;
  journal_ = Journal::open(
      config_.journal_path + ".wal",
      [&](std::uint8_t kind, BytesView payload) {
        st.apply(kind, payload, token_size);
      },
      &jstats);
  journaling_ = true;
  if (jstats.records > 0) any = true;
  if (jstats.truncated_bytes > 0) {
    metrics_.counter("wire.daemon.journal_torn_bytes")
        .inc(jstats.truncated_bytes);
  }
  if (any) {
    recovered_ = true;
    recovery_pending_ = true;
    recovery_start_ns_ = monotonic_ns();
    metrics_.counter("wire.daemon.recoveries").inc();
    metrics_.counter("wire.daemon.journal_records_replayed")
        .inc(jstats.records);
    // Low 63 bits of the recovered-state digest, for byte-identical
    // replay checks across processes (the chaos supervisor compares it
    // against its own replay of the same files).
    metrics_.gauge("wire.daemon.recovered_digest_lo")
        .set(static_cast<std::int64_t>(st.digest64(token_size) &
                                       0x7fffffffffffffffull));
    metrics_.gauge("wire.daemon.devices_covered")
        .set(static_cast<std::int64_t>(devices_covered(st)));
  }
  // Agent addresses come from the journal; an agent that restarted
  // meanwhile re-hellos with a fresh epoch and heals its entry.
  state_ = std::move(st);
  // Compact immediately: the snapshot now carries everything the WAL
  // said, and the WAL restarts empty.
  persist_state();
}

void VerifierDaemon::handle_hello(const Frame& frame, const Endpoint& from) {
  const auto hello = decode_hello(frame.payload);
  if (!hello.has_value()) {
    metrics_.counter("wire.daemon.decode_errors").inc();
    return;
  }
  // A re-hello may come from a new source port.
  const VerifierState::Agent agent{hello->first_id, hello->count,
                                   hello->epoch, from.sa.sin_addr.s_addr,
                                   from.sa.sin_port};
  const auto next = state_.agents.lower_bound(agent.first_id);
  const bool fresh =
      next == state_.agents.end() || next->first != agent.first_id;
  bool changed = fresh;
  if (fresh) {
    // Range sanity: inside [1, devices], no overlap with the neighbor
    // below or above (map order = id order).
    const std::uint64_t end =
        static_cast<std::uint64_t>(agent.first_id) + agent.count;
    bool ok = agent.first_id >= 1 && end <= config_.devices + 1ull;
    if (ok && next != state_.agents.begin()) {
      const VerifierState::Agent& below = std::prev(next)->second;
      ok = below.first_id + below.count <= agent.first_id;
    }
    if (ok && next != state_.agents.end()) ok = end <= next->first;
    if (!ok) {
      metrics_.counter("wire.daemon.rejected_hellos").inc();
      return;
    }
    metrics_.counter("wire.daemon.agents_registered").inc();
  } else {
    const VerifierState::Agent& known = next->second;
    if (agent.count != known.count) {
      // A known range re-registering with a different width is a
      // config change, not a restart; don't let it corrupt coverage.
      metrics_.counter("wire.daemon.rejected_hellos").inc();
      return;
    }
    if (agent.epoch != known.epoch) {
      // The agent restarted: new session, sequence space starts over.
      seq_[agent.first_id].reset();
      metrics_.counter("wire.daemon.agent_restarts").inc();
    }
    changed = agent.epoch != known.epoch || agent.ip != known.ip ||
              agent.port != known.port;
  }
  if (changed) {
    state_.put_agent(agent);
    if (journaling_) {
      journal_append(VerifierState::kAgentRecord,
                     VerifierState::encode_agent(agent), /*sync=*/true);
    }
  }
  if (fresh) {
    metrics_.gauge("wire.daemon.devices_covered")
        .set(static_cast<std::int64_t>(devices_covered(state_)));
  }
  FrameHeader ack;
  ack.kind = FrameKind::kHelloAck;
  ack.seq = 0;
  const Bytes out = encode_frame(ack, frame.payload);
  (void)socket_.send_one(from, out);
  metrics_.counter("wire.daemon.tx_datagrams").inc();
  metrics_.counter("wire.daemon.tx_bytes").inc(out.size());
}

void VerifierDaemon::handle_tokens(const Frame& frame) {
  if (state_.agents.count(frame.header.sender) == 0) {
    metrics_.counter("wire.daemon.unknown_sender").inc();
    return;
  }
  // Sequence accounting in serial-number arithmetic: a regression means
  // the datagram overtook a later one somewhere (reorder); gaps show up
  // as lost frames only if the round also misses tokens, so they are
  // not double-counted here. The tracker is epoch-aware — handle_hello
  // resets it when the agent restarts — so a fresh session's low seq is
  // kFirst, not a spurious reorder.
  if (seq_[frame.header.sender].observe(frame.header.seq) ==
      SeqTracker::Verdict::kReorder) {
    metrics_.counter("wire.daemon.reordered_datagrams").inc();
  }

  if (!state_.round_open || frame.header.tick != state_.tick) {
    metrics_.counter("wire.daemon.stale_tokens").inc();
    return;
  }
  const std::size_t token_size = verifier_.config().token_size();
  const sap::IdentifyCodec codec = VerifierState::report_codec(token_size);
  if (!codec.well_formed(frame.payload)) {
    metrics_.counter("wire.daemon.decode_errors").inc();
    return;
  }
  const std::size_t added =
      state_.accept_reports(state_.tick, frame.payload, token_size);
  // accept_reports dropped covered ids, so each device is judged once;
  // the round's appraisal and its journal take the appended bytes as
  // they are.
  const BytesView appended =
      BytesView(state_.reports).last(added * codec.entry_size());
  appraisal_.absorb(appended);
  if (journaling_ && added > 0) {
    // No sync: a lost unsynced report tail just re-polls on restart.
    journal_append(VerifierState::kReports,
                   VerifierState::encode_reports(state_.tick, appended,
                                                 token_size),
                   /*sync=*/false);
  }
  if (state_.report_count(token_size) >= config_.devices) finish_round();
}

std::vector<WantRange> VerifierDaemon::missing_ranges() const {
  std::vector<WantRange> ranges;
  std::uint32_t run_start = 0;
  for (std::uint32_t id = 1; id <= config_.devices + 1; ++id) {
    const bool missing = id <= config_.devices && state_.have[id - 1] == 0;
    if (missing && run_start == 0) run_start = id;
    if (!missing && run_start != 0) {
      ranges.push_back(WantRange{run_start, id - run_start});
      run_start = 0;
    }
  }
  return ranges;
}

void VerifierDaemon::send_chal(const std::vector<WantRange>& want) {
  const std::size_t chal_size = verifier_.config().chal_size();
  Bytes payload =
      sap::encode_chal(state_.tick, /*auth_key=*/{}, chal_size);
  // The want trailer must fit the frame; if the missing set is too
  // fragmented, fall back to "everything" (correct, just more bytes).
  if (!want.empty() &&
      payload.size() + want.size() * 8 <= kMaxPayload) {
    append_want_ranges(payload, want);
  }
  FrameHeader h;
  h.kind = FrameKind::kChal;
  h.tick = state_.tick;

  // One frame per relevant agent. The reserve guarantees no
  // reallocation, so the SendDatagram views into `frames` stay valid.
  std::vector<Bytes> frames;
  std::vector<SendDatagram> out;
  frames.reserve(state_.agents.size());
  out.reserve(state_.agents.size());
  for (const auto& [first_id, agent] : state_.agents) {
    // On re-polls, skip agents with nothing missing.
    if (!want.empty()) {
      bool relevant = false;
      for (const WantRange& r : want) {
        if (r.start < first_id + agent.count &&
            first_id < r.start + r.count) {
          relevant = true;
          break;
        }
      }
      if (!relevant) continue;
    }
    frames.push_back(encode_frame(h, payload));
    out.push_back(SendDatagram{endpoint_of(agent), frames.back()});
  }
  const std::size_t sent = socket_.send_batch(out.data(), out.size());
  metrics_.counter("wire.daemon.tx_datagrams").inc(sent);
  for (std::size_t i = 0; i < sent; ++i) {
    metrics_.counter("wire.daemon.tx_bytes").inc(out[i].data.size());
  }
  if (sent < out.size()) {
    metrics_.counter("wire.daemon.tx_backpressure").inc(out.size() - sent);
  }
}

void VerifierDaemon::arm_repoll() {
  const std::uint64_t backoff_ns = static_cast<std::uint64_t>(
      verifier_.config().adaptive.backoff_for(state_.repoll_attempt + 1)
          .ns());
  repoll_timer_ = loop_.schedule_after(backoff_ns, [this] {
    repoll_timer_ = 0;
    if (!state_.round_open) return;
    if (state_.repoll_attempt >= verifier_.config().adaptive.max_repolls) {
      finish_round();  // budget spent: close degraded
      return;
    }
    state_.note_repoll(state_.tick, state_.repoll_attempt + 1);
    metrics_.counter("wire.daemon.repolls").inc();
    if (journaling_) {
      journal_append(
          VerifierState::kRepoll,
          VerifierState::encode_repoll(state_.tick, state_.repoll_attempt),
          /*sync=*/false);
    }
    send_chal(missing_ranges());
    arm_repoll();
  });
}

void VerifierDaemon::start_round() {
  if (draining_) return;  // shutting down: no new rounds
  if (state_.round_open) {
    // Previous round still open at the next period boundary — the
    // re-poll ladder will close it; skip this slot rather than overlap.
    metrics_.counter("wire.daemon.rounds_overrun").inc();
    return;
  }
  if (devices_covered(state_) < config_.devices) {
    metrics_.counter("wire.daemon.rounds_waiting_coverage").inc();
    return;
  }
  // Refused only once the 32-bit tick space is spent: reusing a tick
  // would reissue an old challenge.
  if (!state_.start_round(state_.tick + 1)) return;
  round_start_ns_ = loop_.now_ns();
  metrics_.counter("wire.daemon.rounds_started").inc();
  if (journaling_) {
    // Committed before the first challenge leaves: a crash after this
    // point resumes the tick, it never reissues it as a fresh round.
    journal_append(VerifierState::kRoundStart,
                   VerifierState::encode_round_start(state_.tick),
                   /*sync=*/true);
  }
  send_chal({});
  // The agents hash for a while before the first token frame lands:
  // the expected-token sweep fills that window.
  begin_appraisal();
  arm_repoll();
}

void VerifierDaemon::resume_round() {
  // Called once from run() when recovery left a round open: keep the
  // journaled tick/coverage/attempt and rejoin the re-poll ladder where
  // the crashed process left it, re-challenging only the missing set.
  round_start_ns_ = loop_.now_ns();
  metrics_.counter("wire.daemon.rounds_resumed").inc();
  // The replayed reports were never judged by this process.
  begin_appraisal();
  appraisal_.absorb(state_.reports);
  if (state_.report_count(verifier_.config().token_size()) >=
      config_.devices) {
    finish_round();
    return;
  }
  send_chal(missing_ranges());
  arm_repoll();
}

void VerifierDaemon::begin_appraisal() {
  obs::Span span("wire.daemon.expected_sweep");
  appraisal_.begin(state_.tick);
}

void VerifierDaemon::finish_round() {
  if (!state_.round_open) return;
  if (repoll_timer_ != 0) {
    loop_.cancel(repoll_timer_);
    repoll_timer_ = 0;
  }

  const std::size_t token_size = verifier_.config().token_size();
  const std::uint64_t latency_ns = loop_.now_ns() - round_start_ns_;
  const auto received =
      static_cast<std::uint32_t>(state_.report_count(token_size));
  metrics_.histogram("wire.daemon.round_latency_us")
      .record(latency_ns / 1'000);
  metrics_.counter("wire.daemon.rounds_completed").inc();
  metrics_.counter("wire.daemon.tokens_received").inc(received);
  metrics_.counter("wire.daemon.tokens_missing")
      .inc(config_.devices - received);

  if (config_.mode == sap::QoaMode::kBinary) {
    // The transport always carries per-device tokens; binary mode is a
    // verifier-side fold, exactly like the in-tree aggregation.
    if (received == config_.devices) {
      const sap::IdentifyCodec codec = VerifierState::report_codec(token_size);
      Bytes acc(token_size, 0);
      for (std::uint32_t i = 0; i < received; ++i) {
        xor_inplace(acc, codec.entry(state_.reports, i).token);
      }
      metrics_
          .counter(crypto::ct_equal(acc, appraisal_.expected_result())
                       ? "wire.daemon.rounds_verified"
                       : "wire.daemon.rounds_failed")
          .inc();
    } else {
      metrics_.counter("wire.daemon.rounds_incomplete").inc();
    }
  } else {
    const auto verdict = appraisal_.finish();
    metrics_.counter("wire.daemon.devices_healthy").inc(verdict.healthy);
    metrics_.counter("wire.daemon.devices_untrusted").inc(verdict.untrusted);
    metrics_.counter("wire.daemon.devices_unreachable")
        .inc(verdict.unreachable);
    metrics_.counter("wire.daemon.devices_rebooted").inc(verdict.rebooted);
    metrics_
        .counter(verdict.all_healthy() ? "wire.daemon.rounds_verified"
                                       : "wire.daemon.rounds_failed")
        .inc();
  }

  state_.close_round(state_.tick, state_.rounds_done + 1);
  if (journaling_) {
    journal_append(VerifierState::kRoundClose,
                   VerifierState::encode_round_close(state_.tick,
                                                     state_.rounds_done),
                   /*sync=*/true);
    if (config_.snapshot_every != 0 &&
        state_.rounds_done % config_.snapshot_every == 0) {
      persist_state();
    }
  }
  if (recovery_pending_) {
    ++rounds_since_recovery_;
    if (received >= config_.devices) {
      // First fully-covered round since the restart: the service is
      // reconverged. recovery_rounds counts closed rounds including the
      // resumed one, so "extra rounds to reconverge" is this minus 1.
      recovery_pending_ = false;
      metrics_.gauge("wire.recovery_ms")
          .set(static_cast<std::int64_t>(
              (monotonic_ns() - recovery_start_ns_) / 1'000'000));
      metrics_.gauge("wire.recovery_rounds")
          .set(static_cast<std::int64_t>(rounds_since_recovery_));
    }
  }
  mirror_send_errors(socket_, stats_synced_, metrics_, "wire.daemon");
  if (draining_) {
    finalize_and_stop();
    return;
  }
  if (config_.dump_every != 0 &&
      state_.rounds_done % config_.dump_every == 0) {
    write_snapshot();
  }
  if (config_.rounds != 0 && state_.rounds_done >= config_.rounds) {
    // Tell the agents the session is over, then leave the loop.
    FrameHeader bye;
    bye.kind = FrameKind::kBye;
    const Bytes frame = encode_frame(bye, {});
    for (const auto& [first_id, agent] : state_.agents) {
      (void)socket_.send_one(endpoint_of(agent), frame);
    }
    loop_.stop();
  }
}

void VerifierDaemon::on_readable() {
  RecvDatagram batch[UdpSocket::kBatch];
  for (;;) {
    const std::size_t n = socket_.recv_batch(batch, UdpSocket::kBatch);
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      metrics_.counter("wire.daemon.rx_datagrams").inc();
      metrics_.counter("wire.daemon.rx_bytes").inc(batch[i].data.size());
      const auto frame = decode_frame(batch[i].data);
      if (!frame.has_value()) {
        metrics_.counter("wire.daemon.decode_errors").inc();
        continue;
      }
      switch (frame->header.kind) {
        case FrameKind::kHello:
          handle_hello(*frame, batch[i].from);
          break;
        case FrameKind::kTokens:
          handle_tokens(*frame);
          break;
        case FrameKind::kBye:
          break;  // agents going away surface as unreachable devices
        default:
          metrics_.counter("wire.daemon.unexpected_kind").inc();
          break;
      }
    }
  }
}

void VerifierDaemon::run() {
  // Period ticker: fires every period_ms and re-arms itself.
  const std::uint64_t period_ns = config_.period_ms * 1'000'000;
  const auto arm = [this, period_ns](const auto& self) -> void {
    loop_.schedule_after(period_ns, [this, self] {
      start_round();
      self(self);
    });
  };
  // A journal recovered at the round limit means the previous
  // incarnation finished; don't run an extra round on restart.
  if (config_.rounds == 0 || state_.round_open ||
      state_.rounds_done < config_.rounds) {
    if (state_.round_open) {
      resume_round();  // recovered mid-round: finish it, don't restart
    } else {
      start_round();  // waits on coverage internally
    }
    arm(arm);
    loop_.run();
  }
  if (journaling_) persist_state();
  write_snapshot();
}

void VerifierDaemon::journal_append(std::uint8_t kind, BytesView payload,
                                    bool sync) {
  journal_.append(kind, payload);
  if (sync) journal_.sync();
}

void VerifierDaemon::persist_state() {
  if (!journaling_) return;
  const Bytes payload = state_.encode(verifier_.config().token_size());
  if (write_snapshot_file(config_.journal_path + ".snap", payload)) {
    journal_.reset();
    metrics_.counter("wire.daemon.state_snapshots").inc();
  }
  // On write failure the WAL is kept — recovery still has everything.
}

void VerifierDaemon::finalize_and_stop() {
  draining_ = false;
  if (journaling_) persist_state();
  write_snapshot();
  metrics_.counter("wire.daemon.graceful_shutdowns").inc();
  loop_.stop();
}

void VerifierDaemon::write_snapshot() {
  if (config_.metrics_path.empty()) return;
  mirror_send_errors(socket_, stats_synced_, metrics_, "wire.daemon");
  if (write_text_atomic(config_.metrics_path, metrics_.to_json() + "\n")) {
    metrics_.counter("wire.daemon.snapshots_written").inc();
  }
}

}  // namespace cra::wire
