#include "wire/daemon.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "crypto/kdf.hpp"
#include "sap/messages.hpp"

namespace cra::wire {

volatile std::sig_atomic_t VerifierDaemon::snapshot_requested_ = 0;
volatile std::sig_atomic_t VerifierDaemon::shutdown_requested_ = 0;

namespace {

sap::SapConfig sap_config_for(const DaemonConfig& cfg) {
  sap::SapConfig sap;
  sap.alg = cfg.alg;
  sap.qoa = cfg.mode;
  sap.adaptive = cfg.adaptive;
  sap.adaptive.enabled = true;
  return sap;
}

}  // namespace

VerifierDaemon::VerifierDaemon(DaemonConfig config)
    : config_(std::move(config)),
      verifier_(sap_config_for(config_), config_.devices, config_.master),
      socket_(UdpSocket::bind(config_.port)),
      have_(config_.devices, 0) {
  if (config_.devices == 0) {
    throw std::invalid_argument("VerifierDaemon: zero devices");
  }
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
    if (snapshot_requested_ != 0) {
      snapshot_requested_ = 0;
      write_snapshot();
    }
    if (shutdown_requested_ != 0) {
      shutdown_requested_ = 0;
      if (round_open_) {
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
    // Digest BEFORE adopting: the move below guts st.reports, and the
    // chaos supervisor compares this value against its own replay of
    // the same files.
    const std::uint64_t digest_lo =
        st.digest64(token_size) & 0x7fffffffffffffffull;
    // Adopt the recovered state wholesale. Agent socket addresses come
    // from the journal; an agent that restarted meanwhile re-hellos
    // with a fresh epoch and heals its entry.
    tick_ = st.tick;
    rounds_done_ = st.rounds_done;
    round_open_ = st.round_open;
    repoll_attempt_ = st.repoll_attempt;
    covered_ = 0;
    agents_.clear();
    for (const auto& [first_id, a] : st.agents) {
      AgentEntry entry;
      entry.first_id = a.first_id;
      entry.count = a.count;
      entry.epoch = a.epoch;
      entry.addr.sa.sin_addr.s_addr = a.ip;
      entry.addr.sa.sin_port = a.port;
      agents_[first_id] = entry;
      covered_ += a.count;
    }
    received_ = 0;
    std::fill(have_.begin(), have_.end(), 0);
    reports_.clear();
    if (round_open_) {
      have_ = st.have;
      have_.resize(config_.devices, 0);
      for (const std::uint8_t h : have_) {
        received_ += h != 0 ? 1u : 0u;
      }
      reports_ = std::move(st.reports);
    }
    recovered_ = true;
    recovery_pending_ = true;
    recovery_start_ns_ = monotonic_ns();
    metrics_.counter("wire.daemon.recoveries").inc();
    metrics_.counter("wire.daemon.journal_records_replayed")
        .inc(jstats.records);
    // Low 63 bits of the recovered-state digest, for byte-identical
    // replay checks across processes.
    metrics_.gauge("wire.daemon.recovered_digest_lo")
        .set(static_cast<std::int64_t>(digest_lo));
    metrics_.gauge("wire.daemon.devices_covered")
        .set(static_cast<std::int64_t>(covered_));
  }
  // Compact immediately: the snapshot now carries everything the WAL
  // said, and the WAL restarts empty.
  persist_state();
}

bool VerifierDaemon::coverage_complete() const noexcept {
  return covered_ >= config_.devices;
}

void VerifierDaemon::handle_hello(const Frame& frame, const Endpoint& from) {
  const auto hello = decode_hello(frame.payload);
  if (!hello.has_value()) {
    metrics_.counter("wire.daemon.decode_errors").inc();
    return;
  }
  auto [it, fresh] = agents_.try_emplace(hello->first_id);
  AgentEntry& entry = it->second;
  bool changed = fresh;
  if (fresh) {
    // Range sanity: inside [1, devices], no overlap with the neighbor
    // below or above (map order = id order).
    const std::uint64_t end =
        static_cast<std::uint64_t>(hello->first_id) + hello->count;
    bool ok = hello->first_id >= 1 && end <= config_.devices + 1ull;
    if (ok && it != agents_.begin()) {
      const AgentEntry& below = std::prev(it)->second;
      ok = below.first_id + below.count <= hello->first_id;
    }
    if (ok && std::next(it) != agents_.end()) {
      ok = end <= std::next(it)->second.first_id;
    }
    if (!ok) {
      agents_.erase(it);
      metrics_.counter("wire.daemon.rejected_hellos").inc();
      return;
    }
    entry.first_id = hello->first_id;
    entry.count = hello->count;
    entry.epoch = hello->epoch;
    covered_ += hello->count;
    metrics_.counter("wire.daemon.agents_registered").inc();
    metrics_.gauge("wire.daemon.devices_covered")
        .set(static_cast<std::int64_t>(covered_));
  } else {
    if (hello->count != entry.count) {
      // A known range re-registering with a different width is a
      // config change, not a restart; don't let it corrupt coverage.
      metrics_.counter("wire.daemon.rejected_hellos").inc();
      return;
    }
    if (hello->epoch != entry.epoch) {
      // The agent restarted: new session, sequence space starts over.
      entry.epoch = hello->epoch;
      entry.seq.reset();
      metrics_.counter("wire.daemon.agent_restarts").inc();
      changed = true;
    }
  }
  if (!(entry.addr == from)) changed = true;
  entry.addr = from;  // re-hello may carry a new source port
  if (changed) journal_agent(entry, /*sync=*/true);
  FrameHeader ack;
  ack.kind = FrameKind::kHelloAck;
  ack.seq = 0;
  const Bytes out = encode_frame(ack, frame.payload);
  (void)socket_.send_one(from, out);
  metrics_.counter("wire.daemon.tx_datagrams").inc();
  metrics_.counter("wire.daemon.tx_bytes").inc(out.size());
}

void VerifierDaemon::handle_tokens(const Frame& frame) {
  const auto it = agents_.find(frame.header.sender);
  if (it == agents_.end()) {
    metrics_.counter("wire.daemon.unknown_sender").inc();
    return;
  }
  // Sequence accounting in serial-number arithmetic: a regression means
  // the datagram overtook a later one somewhere (reorder); gaps show up
  // as lost frames only if the round also misses tokens, so they are
  // not double-counted here. The tracker is epoch-aware — handle_hello
  // resets it when the agent restarts — so a fresh session's low seq is
  // kFirst, not a spurious reorder.
  AgentEntry& agent = it->second;
  if (agent.seq.observe(frame.header.seq) == SeqTracker::Verdict::kReorder) {
    metrics_.counter("wire.daemon.reordered_datagrams").inc();
  }

  if (!round_open_ || frame.header.tick != tick_) {
    metrics_.counter("wire.daemon.stale_tokens").inc();
    return;
  }
  const auto reports =
      sap::decode_identify_ex(frame.payload, verifier_.config().token_size());
  if (!reports.has_value()) {
    metrics_.counter("wire.daemon.decode_errors").inc();
    return;
  }
  const std::size_t accepted_start = reports_.size();
  for (const sap::DeviceReport& rep : *reports) {
    if (rep.id == 0 || rep.id > config_.devices) {
      metrics_.counter("wire.daemon.bogus_device_ids").inc();
      continue;
    }
    if (have_[rep.id - 1] != 0) continue;  // re-poll duplicate
    have_[rep.id - 1] = 1;
    ++received_;
    reports_.push_back(rep);
  }
  if (journaling_ && reports_.size() > accepted_start) {
    // No sync: a lost unsynced report tail just re-polls on restart.
    journal_append(VerifierState::kReports,
                   VerifierState::encode_reports(
                       tick_, reports_.data() + accepted_start,
                       reports_.size() - accepted_start,
                       verifier_.config().token_size()),
                   /*sync=*/false);
  }
  if (received_ >= config_.devices) finish_round();
}

std::vector<WantRange> VerifierDaemon::missing_ranges() const {
  std::vector<WantRange> ranges;
  std::uint32_t run_start = 0;
  for (std::uint32_t id = 1; id <= config_.devices + 1; ++id) {
    const bool missing = id <= config_.devices && have_[id - 1] == 0;
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
  Bytes payload = sap::encode_chal(tick_, /*auth_key=*/{}, chal_size);
  // The want trailer must fit the frame; if the missing set is too
  // fragmented, fall back to "everything" (correct, just more bytes).
  if (!want.empty() &&
      payload.size() + want.size() * 8 <= kMaxPayload) {
    append_want_ranges(payload, want);
  }
  FrameHeader h;
  h.kind = FrameKind::kChal;
  h.tick = tick_;

  // One frame per relevant agent. The reserve guarantees no
  // reallocation, so the SendDatagram views into `frames` stay valid.
  std::vector<Bytes> frames;
  std::vector<SendDatagram> out;
  frames.reserve(agents_.size());
  out.reserve(agents_.size());
  for (const auto& [first_id, agent] : agents_) {
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
    out.push_back(SendDatagram{agent.addr, frames.back()});
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
      verifier_.config().adaptive.backoff_for(repoll_attempt_ + 1).ns());
  repoll_timer_ = loop_.schedule_after(backoff_ns, [this] {
    repoll_timer_ = 0;
    if (!round_open_) return;
    if (repoll_attempt_ >= verifier_.config().adaptive.max_repolls) {
      finish_round();  // budget spent: close degraded
      return;
    }
    ++repoll_attempt_;
    metrics_.counter("wire.daemon.repolls").inc();
    if (journaling_) {
      journal_append(VerifierState::kRepoll,
                     VerifierState::encode_repoll(tick_, repoll_attempt_),
                     /*sync=*/false);
    }
    send_chal(missing_ranges());
    arm_repoll();
  });
}

void VerifierDaemon::start_round() {
  if (draining_) return;  // shutting down: no new rounds
  if (round_open_) {
    // Previous round still open at the next period boundary — the
    // re-poll ladder will close it; skip this slot rather than overlap.
    metrics_.counter("wire.daemon.rounds_overrun").inc();
    return;
  }
  if (!coverage_complete()) {
    metrics_.counter("wire.daemon.rounds_waiting_coverage").inc();
    return;
  }
  round_open_ = true;
  ++tick_;
  round_start_ns_ = loop_.now_ns();
  received_ = 0;
  std::fill(have_.begin(), have_.end(), 0);
  reports_.clear();
  repoll_attempt_ = 0;
  metrics_.counter("wire.daemon.rounds_started").inc();
  if (journaling_) {
    // Committed before the first challenge leaves: a crash after this
    // point resumes tick_, it never reissues it as a fresh round.
    journal_append(VerifierState::kRoundStart,
                   VerifierState::encode_round_start(tick_), /*sync=*/true);
  }
  send_chal({});
  arm_repoll();
}

void VerifierDaemon::resume_round() {
  // Called once from run() when recovery left a round open: keep the
  // journaled tick/coverage/attempt and rejoin the re-poll ladder where
  // the crashed process left it, re-challenging only the missing set.
  round_start_ns_ = loop_.now_ns();
  metrics_.counter("wire.daemon.rounds_resumed").inc();
  if (received_ >= config_.devices) {
    finish_round();
    return;
  }
  send_chal(missing_ranges());
  arm_repoll();
}

void VerifierDaemon::finish_round() {
  if (!round_open_) return;
  round_open_ = false;
  if (repoll_timer_ != 0) {
    loop_.cancel(repoll_timer_);
    repoll_timer_ = 0;
  }

  const std::uint64_t latency_ns = loop_.now_ns() - round_start_ns_;
  metrics_.histogram("wire.daemon.round_latency_us")
      .record(latency_ns / 1'000);
  metrics_.counter("wire.daemon.rounds_completed").inc();
  metrics_.counter("wire.daemon.tokens_received").inc(received_);
  metrics_.counter("wire.daemon.tokens_missing")
      .inc(config_.devices - received_);

  if (config_.mode == sap::QoaMode::kBinary) {
    // The transport always carries per-device tokens; binary mode is a
    // verifier-side fold, exactly like the in-tree aggregation.
    if (received_ == config_.devices) {
      Bytes acc(verifier_.config().token_size(), 0);
      for (const sap::DeviceReport& rep : reports_) {
        xor_inplace(acc, rep.token);
      }
      metrics_
          .counter(verifier_.verify(acc, tick_)
                       ? "wire.daemon.rounds_verified"
                       : "wire.daemon.rounds_failed")
          .inc();
    } else {
      metrics_.counter("wire.daemon.rounds_incomplete").inc();
    }
  } else {
    const auto verdict = verifier_.classify(reports_, tick_);
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

  ++rounds_done_;
  if (journaling_) {
    journal_append(VerifierState::kRoundClose,
                   VerifierState::encode_round_close(tick_, rounds_done_),
                   /*sync=*/true);
    if (config_.snapshot_every != 0 &&
        rounds_done_ % config_.snapshot_every == 0) {
      persist_state();
    }
  }
  if (recovery_pending_) {
    ++rounds_since_recovery_;
    if (received_ >= config_.devices) {
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
  sync_socket_stats();
  if (draining_) {
    finalize_and_stop();
    return;
  }
  if (config_.dump_every != 0 && rounds_done_ % config_.dump_every == 0) {
    write_snapshot();
  }
  if (config_.rounds != 0 && rounds_done_ >= config_.rounds) {
    // Tell the agents the session is over, then leave the loop.
    FrameHeader bye;
    bye.kind = FrameKind::kBye;
    const Bytes frame = encode_frame(bye, {});
    for (const auto& [first_id, agent] : agents_) {
      (void)socket_.send_one(agent.addr, frame);
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
  if (config_.rounds == 0 || round_open_ || rounds_done_ < config_.rounds) {
    if (round_open_) {
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

void VerifierDaemon::journal_agent(const AgentEntry& entry, bool sync) {
  if (!journaling_) return;
  VerifierState::Agent a;
  a.first_id = entry.first_id;
  a.count = entry.count;
  a.epoch = entry.epoch;
  a.ip = entry.addr.sa.sin_addr.s_addr;
  a.port = entry.addr.sa.sin_port;
  journal_append(VerifierState::kAgentRecord, VerifierState::encode_agent(a),
                 sync);
}

VerifierState VerifierDaemon::current_state() const {
  VerifierState st;
  st.devices = config_.devices;
  st.rounds_done = rounds_done_;
  st.tick = tick_;
  st.round_open = round_open_;
  st.repoll_attempt = repoll_attempt_;
  for (const auto& [first_id, entry] : agents_) {
    VerifierState::Agent a;
    a.first_id = entry.first_id;
    a.count = entry.count;
    a.epoch = entry.epoch;
    a.ip = entry.addr.sa.sin_addr.s_addr;
    a.port = entry.addr.sa.sin_port;
    st.agents.emplace(first_id, a);
  }
  if (round_open_) {
    st.have = have_;
    st.reports = reports_;
  }
  return st;
}

void VerifierDaemon::persist_state() {
  if (!journaling_) return;
  const Bytes payload =
      current_state().encode(verifier_.config().token_size());
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

void VerifierDaemon::sync_socket_stats() {
  const UdpSocket::Stats& s = socket_.stats();
  if (s.enobufs > stats_synced_.enobufs) {
    metrics_.counter("wire.daemon.tx_enobufs")
        .inc(s.enobufs - stats_synced_.enobufs);
  }
  if (s.emsgsize > stats_synced_.emsgsize) {
    metrics_.counter("wire.daemon.tx_emsgsize")
        .inc(s.emsgsize - stats_synced_.emsgsize);
  }
  if (s.econnrefused > stats_synced_.econnrefused) {
    metrics_.counter("wire.daemon.tx_econnrefused")
        .inc(s.econnrefused - stats_synced_.econnrefused);
  }
  stats_synced_ = s;
}

void VerifierDaemon::write_snapshot() {
  if (config_.metrics_path.empty()) return;
  sync_socket_stats();
  const std::string json = metrics_.to_json();
  if (write_text_atomic(config_.metrics_path, json + "\n")) {
    metrics_.counter("wire.daemon.snapshots_written").inc();
  }
}

}  // namespace cra::wire
