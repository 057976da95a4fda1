#include "wire/agent.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <numeric>

#include "crypto/backend.hpp"
#include "crypto/kdf.hpp"
#include "wire/journal.hpp"

namespace cra::wire {

std::atomic<int> AgentRunner::shutdown_requested_{0};

AgentCore::AgentCore(AgentConfig config)
    : config_(std::move(config)),
      macs_(config_.count),
      contents_(config_.count),
      tokens_(config_.count) {
  const crypto::Hkdf kdf(config_.master);
  std::vector<std::uint32_t> ids(config_.count);
  std::iota(ids.begin(), ids.end(), config_.first_id);
  kdf.device_keys(ids, crypto::digest_size(config_.alg),
                  crypto::kDeviceKeyLabel,
                  [this](std::uint32_t id, BytesView key) {
                    macs_[id - config_.first_id].init(config_.alg, key);
                  });
  kdf.device_keys(ids, config_.content_size, kDeviceContentLabel,
                  [this](std::uint32_t id, BytesView content) {
                    const std::uint32_t i = id - config_.first_id;
                    contents_[i].assign(content.begin(), content.end());
                    if (i < config_.bad) {
                      // A compromised device attests over what is
                      // actually in its PMEM — which is not what the
                      // verifier expects.
                      contents_[i][0] ^= 0xff;
                    }
                  });
}

void AgentCore::compute_round(std::uint32_t tick) {
  if (cache_valid_ && cached_tick_ == tick) return;
  std::uint8_t tick_le[4];
  store_u32le(tick_le, tick);
  const BytesView suffix(tick_le, 4);

  // One batch sweep over the whole range — the SIMD backends pack
  // `lanes` devices per compression here, exactly like the verifier's
  // expected-token sweep on the other end of the wire.
  const crypto::Backend& backend = crypto::active_backend();
  constexpr std::size_t kChunk = 512;
  std::array<crypto::MacJob, kChunk> jobs;
  for (std::size_t base = 0; base < macs_.size();) {
    const std::size_t n = std::min(kChunk, macs_.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      jobs[i] = crypto::MacJob{&macs_[base + i], contents_[base + i], suffix};
    }
    backend.hmac_batch(jobs.data(), n, tokens_.data() + base);
    base += n;
  }
  cached_tick_ = tick;
  cache_valid_ = true;
  tokens_computed_ += macs_.size();
}

std::vector<Bytes> AgentCore::token_payloads(
    std::uint32_t tick, const std::vector<WantRange>& want) {
  compute_round(tick);
  const sap::IdentifyCodec codec(sap::IdentifyFormat::kExtended,
                                 crypto::digest_size(config_.alg));
  const std::size_t per_frame = kMaxPayload / codec.entry_size();

  // The wanted ids, clipped to our range, as [from, to) spans; one span
  // of the whole range when `want` is empty.
  const std::uint64_t lo = config_.first_id;
  const std::uint64_t hi = lo + config_.count;  // exclusive
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  if (want.empty()) spans.emplace_back(lo, hi);
  for (const WantRange& r : want) {
    const std::uint64_t from = std::max<std::uint64_t>(r.start, lo);
    const std::uint64_t to = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(r.start) + r.count, hi);
    if (from < to) spans.emplace_back(from, to);
  }
  // Answer their union once, ascending: ranges may overlap or repeat,
  // and the daemon's own are disjoint and ascending already.
  std::sort(spans.begin(), spans.end());
  std::vector<Bytes> payloads;
  std::size_t in_frame = per_frame;
  std::uint64_t next = lo;  // the lowest id not answered yet
  for (const auto& [from, to] : spans) {
    for (std::uint64_t id = std::max(from, next); id < to; ++id) {
      if (in_frame == per_frame) {
        payloads.emplace_back().reserve(per_frame * codec.entry_size());
        in_frame = 0;
      }
      codec.append(payloads.back(), static_cast<std::uint32_t>(id),
                   tokens_[id - lo].view(), sap::DeviceReportStatus::kEntryOk,
                   tick);
      ++in_frame;
    }
    next = std::max(next, to);
  }
  return payloads;
}

Bytes AgentCore::hello_payload(std::uint64_t epoch) const {
  return encode_hello(HelloPayload{config_.first_id, config_.count, epoch});
}

AgentRunner::AgentRunner(AgentRunnerConfig config)
    : config_(std::move(config)),
      core_(config_.agent),
      socket_(UdpSocket::bind(0)),
      shaper_(config_.shaper, config_.plan) {
  // Session epoch: journaled (crash-persistent, strictly increasing
  // across restarts) when a journal path is configured, otherwise the
  // monotonic clock — unique per process start either way.
  epoch_ = config_.journal_path.empty()
               ? monotonic_ns()
               : next_agent_epoch(config_.journal_path);
  loop_.add_fd(socket_.fd(), EPOLLIN, [this](std::uint32_t) { on_readable(); });
  loop_.set_wakeup_hook([this] {
    if (shutdown_requested_.exchange(0) != 0) {
      // Goodbye is best-effort — the daemon re-classifies our devices
      // unreachable either way; the metrics export is the durable part.
      send_frame(FrameKind::kBye, 0, {});
      metrics_.counter("wire.agent.graceful_shutdowns").inc();
      loop_.stop();
    }
  });
}

void AgentRunner::send_frame(FrameKind kind, std::uint32_t tick,
                             BytesView payload) {
  FrameHeader h;
  h.kind = kind;
  h.sender = config_.agent.first_id;
  h.tick = tick;
  h.seq = seq_++;
  const Bytes frame = encode_frame(h, payload);
  if (socket_.send_one(config_.daemon, frame)) {
    metrics_.counter("wire.agent.tx_datagrams").inc();
    metrics_.counter("wire.agent.tx_bytes").inc(frame.size());
  } else {
    metrics_.counter("wire.agent.tx_backpressure").inc();
  }
}

void AgentRunner::handle_chal(const Frame& frame) {
  // The payload is the fixed-size sap chal, optionally followed by the
  // daemon's want-range trailer (decode_chal itself is exact-size).
  const std::size_t chal_size = crypto::digest_size(config_.agent.alg);
  if (frame.payload.size() < chal_size) {
    metrics_.counter("wire.agent.bad_chal").inc();
    return;
  }
  const auto chal =
      sap::decode_chal(frame.payload.subspan(0, chal_size), chal_size);
  if (!chal.has_value()) {
    metrics_.counter("wire.agent.bad_chal").inc();
    return;
  }
  auto want = decode_want_ranges(frame.payload, chal_size);
  if (!want.has_value()) {
    metrics_.counter("wire.agent.bad_chal").inc();
    return;
  }
  metrics_.counter(want->empty() ? "wire.agent.chals" : "wire.agent.repolls")
      .inc();

  const std::vector<Bytes> payloads =
      core_.token_payloads(chal->tick, *want);
  const std::uint64_t elapsed = loop_.now_ns() - start_ns_;

  // Shape each kTokens frame, then push the survivors in one
  // sendmmsg flight.
  std::vector<Bytes> frames;
  frames.reserve(payloads.size());
  std::vector<SendDatagram> out;
  out.reserve(payloads.size());
  for (const Bytes& payload : payloads) {
    FrameHeader h;
    h.kind = FrameKind::kTokens;
    h.sender = config_.agent.first_id;
    h.tick = chal->tick;
    h.seq = seq_++;
    frames.push_back(encode_frame(h, payload));
    const auto verdict = shaper_.decide(elapsed, config_.agent.first_id);
    switch (verdict.fate) {
      case fault::TrafficShaper::Fate::kDrop:
        metrics_.counter("wire.agent.shaped_drops").inc();
        frames.pop_back();
        break;
      case fault::TrafficShaper::Fate::kDelay: {
        metrics_.counter("wire.agent.shaped_delays").inc();
        delayed_.push_back(std::move(frames.back()));
        frames.pop_back();
        loop_.schedule_after(verdict.delay_ns, [this] { flush_delayed(); });
        break;
      }
      case fault::TrafficShaper::Fate::kDeliver:
        break;
    }
  }
  for (const Bytes& f : frames) out.push_back(SendDatagram{config_.daemon, f});

  std::size_t sent = 0;
  while (sent < out.size()) {
    const std::size_t n = socket_.send_batch(out.data() + sent,
                                             out.size() - sent);
    if (n == 0) {
      // Socket buffer full: on loopback this clears as soon as the
      // daemon drains, so a tight retry is the right call here.
      metrics_.counter("wire.agent.tx_backpressure").inc();
      continue;
    }
    sent += n;
  }
  metrics_.counter("wire.agent.tx_datagrams").inc(sent);
  for (const auto& d : out) {
    metrics_.counter("wire.agent.tx_bytes").inc(d.data.size());
  }
}

void AgentRunner::flush_delayed() {
  while (!delayed_.empty()) {
    Bytes frame = std::move(delayed_.front());
    delayed_.pop_front();
    if (socket_.send_one(config_.daemon, frame)) {
      metrics_.counter("wire.agent.tx_datagrams").inc();
      metrics_.counter("wire.agent.tx_bytes").inc(frame.size());
    }
  }
}

void AgentRunner::on_readable() {
  RecvDatagram batch[UdpSocket::kBatch];
  for (;;) {
    const std::size_t n = socket_.recv_batch(batch, UdpSocket::kBatch);
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      metrics_.counter("wire.agent.rx_datagrams").inc();
      const auto frame = decode_frame(batch[i].data);
      if (!frame.has_value()) {
        metrics_.counter("wire.agent.decode_errors").inc();
        continue;
      }
      switch (frame->header.kind) {
        case FrameKind::kHelloAck:
          if (!registered_) {
            registered_ = true;
            if (hello_timer_ != 0) loop_.cancel(hello_timer_);
            hello_timer_ = 0;
          }
          break;
        case FrameKind::kChal:
          handle_chal(*frame);
          break;
        case FrameKind::kBye:
          loop_.stop();
          break;
        default:
          metrics_.counter("wire.agent.unexpected_kind").inc();
          break;
      }
    }
  }
}

void AgentRunner::send_hello_and_rearm() {
  if (registered_) return;
  send_frame(FrameKind::kHello, 0, core_.hello_payload(epoch_));
  hello_timer_ = loop_.schedule_after(config_.hello_retry_ms * 1'000'000,
                                      [this] { send_hello_and_rearm(); });
}

void AgentRunner::run() {
  start_ns_ = monotonic_ns();
  // Hello, re-sent until acked (the daemon may start after us).
  send_hello_and_rearm();
  loop_.run();
  write_metrics();
}

void AgentRunner::write_metrics() {
  if (config_.metrics_path.empty()) return;
  mirror_send_errors(socket_, stats_synced_, metrics_, "wire.agent");
  (void)write_text_atomic(config_.metrics_path, metrics_.to_json() + "\n");
}

}  // namespace cra::wire
