#include "sap/verifier.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"

namespace cra::sap {

namespace {

std::array<std::uint8_t, 4> u32le_bytes(std::uint32_t v) noexcept {
  std::array<std::uint8_t, 4> b{};
  store_u32le(b.data(), v);
  return b;
}

}  // namespace

Verifier::Verifier(SapConfig config, std::uint32_t device_count,
                   BytesView master)
    : config_(config),
      device_count_(device_count),
      kdf_(master),
      expected_(device_count),
      mac_cache_(device_count) {
  if (device_count_ == 0) {
    throw std::invalid_argument("Verifier: empty attestation group");
  }
  if (master.empty()) {
    throw std::invalid_argument("Verifier: empty master secret");
  }
}

void Verifier::check_id(net::NodeId id) const {
  if (id == 0 || id > device_count_) {
    throw std::out_of_range("Verifier: device id out of range");
  }
}

Bytes Verifier::device_key(net::NodeId id) const {
  check_id(id);
  return kdf_.device_key(id, config_.token_size());
}

Bytes Verifier::request_auth_key() const {
  if (!config_.authenticate_requests) return {};
  // The device keys' PRK: both derivations extract with an empty salt.
  return kdf_.expand(to_bytes("sap-request-auth-key"), 32);
}

void Verifier::set_expected_content(net::NodeId id, Bytes content) {
  check_id(id);
  expected_[id - 1] = std::move(content);
}

const Bytes& Verifier::expected_content(net::NodeId id) const {
  check_id(id);
  return expected_[id - 1];
}

const crypto::PrecomputedMac& Verifier::device_mac(net::NodeId id) const {
  check_id(id);
  auto& cache = mac_cache_[id - 1];
  if (!cache.ready()) {
    Bytes key = device_key(id);
    cache.init(config_.alg, key);
    crypto::secure_wipe(key);
  }
  return cache;
}

void Verifier::provision(std::span<const net::NodeId> ids) {
  for (const net::NodeId id : ids) check_id(id);
  kdf_.device_keys(ids, config_.token_size(), crypto::kDeviceKeyLabel,
                   [this](net::NodeId id, BytesView key) {
                     mac_cache_[id - 1].init(config_.alg, key);
                   });
}

void Verifier::expected_token_into(net::NodeId id, std::uint32_t chal,
                                   crypto::MacBuf& out) const {
  std::uint8_t chal_le[4];
  store_u32le(chal_le, chal);
  const crypto::PrecomputedMac& mac = device_mac(id);  // checks the id
  mac.mac_into(expected_[id - 1], BytesView(chal_le, 4), out);
}

Bytes Verifier::expected_token(net::NodeId id, std::uint32_t chal) const {
  crypto::MacBuf buf;
  expected_token_into(id, chal, buf);
  return Bytes(buf.bytes.begin(), buf.bytes.begin() + buf.len);
}

Bytes Verifier::expected_result(std::uint32_t chal) const {
  // RES_S is a pure fold over independent per-device MACs, so the whole
  // sweep batches through the active crypto backend: a SIMD backend
  // computes `lanes` device tokens per compression sweep, the scalar
  // reference walks them one by one — same tokens, same tally.
  Bytes acc(config_.token_size(), 0);
  std::uint8_t chal_le[4];
  store_u32le(chal_le, chal);
  const BytesView chal_view(chal_le, 4);
  const crypto::Backend& backend = crypto::active_backend();
  constexpr std::size_t kChunk = 256;
  std::array<crypto::MacJob, kChunk> jobs;
  std::array<crypto::MacBuf, kChunk> outs;
  for (net::NodeId base = 1; base <= device_count_;) {
    const std::size_t n = std::min<std::size_t>(
        kChunk, static_cast<std::size_t>(device_count_ - base) + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId id = base + static_cast<net::NodeId>(i);
      jobs[i] = {&device_mac(id), expected_[id - 1], chal_view};
    }
    backend.hmac_batch(jobs.data(), n, outs.data());
    for (std::size_t i = 0; i < n; ++i) xor_inplace(acc, outs[i].view());
    base += static_cast<net::NodeId>(n);
  }
  return acc;
}

bool Verifier::verify(BytesView h_s, std::uint32_t chal) const {
  return crypto::ct_equal(h_s, expected_result(chal));
}

Verifier::IdentifyOutcome Verifier::verify_identify(
    const std::vector<DeviceReport>& reports, std::uint32_t chal) const {
  IdentifyOutcome out;
  std::vector<bool> seen(device_count_ + 1, false);
  std::uint8_t chal_le[4];
  store_u32le(chal_le, chal);
  const BytesView chal_view(chal_le, 4);
  // All valid reports share the round challenge, so their expected
  // tokens form one batch for the active backend.
  std::vector<crypto::VerifyJob> jobs;
  std::vector<net::NodeId> job_ids;
  jobs.reserve(reports.size());
  job_ids.reserve(reports.size());
  for (const auto& report : reports) {
    if (report.id == 0 || report.id > device_count_) continue;
    seen[report.id] = true;
    jobs.push_back({&device_mac(report.id), expected_[report.id - 1],
                    chal_view, report.token});
    job_ids.push_back(report.id);
  }
  std::vector<std::uint8_t> ok(jobs.size());
  crypto::active_backend().verify_tokens_batch(jobs.data(), jobs.size(),
                                               ok.data());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!ok[i]) out.bad.push_back(job_ids[i]);
  }
  for (net::NodeId id = 1; id <= device_count_; ++id) {
    if (!seen[id]) out.missing.push_back(id);
  }
  return out;
}

const char* Verifier::device_status_name(DeviceStatus status) noexcept {
  switch (status) {
    case DeviceStatus::kHealthy: return "healthy";
    case DeviceStatus::kUnreachable: return "unreachable";
    case DeviceStatus::kUntrusted: return "untrusted";
    case DeviceStatus::kRebooted: return "rebooted";
  }
  return "?";
}

Verifier::Classification Verifier::classify(
    const std::vector<DeviceReport>& reports, std::uint32_t chal) const {
  Classification out;
  out.enabled = true;
  out.status.assign(device_count_, DeviceStatus::kUnreachable);

  // Pass 1: assign the verdicts that need no token (unreachable entries
  // and late joiners whose tick predates the challenge — a stale tick
  // would let Adv replay a pre-infection token, so those are untrusted
  // WITHOUT computing the expected token, exactly as the scalar path
  // short-circuited) and queue one token job per remaining entry.
  struct PendingToken {
    std::size_t report_idx;
    DeviceStatus on_match;  // mismatch is always kUntrusted
  };
  std::vector<DeviceStatus> verdict(reports.size());
  std::vector<bool> has_verdict(reports.size(), false);
  std::vector<PendingToken> pending;
  std::vector<std::array<std::uint8_t, 4>> tick_bytes;  // stable storage
  pending.reserve(reports.size());
  tick_bytes.reserve(reports.size());
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const auto& report = reports[r];
    if (report.id == 0 || report.id > device_count_) continue;
    switch (report.status) {
      case DeviceReportStatus::kEntryOk:
        pending.push_back({r, DeviceStatus::kHealthy});
        tick_bytes.push_back(u32le_bytes(chal));
        break;
      case DeviceReportStatus::kEntryLate:
        // A late joiner attested its *current* tick, which must not
        // predate the challenge. Valid evidence at a later tick proves
        // the state but not liveness through the round: rebooted.
        if (report.tick >= chal) {
          pending.push_back({r, DeviceStatus::kRebooted});
          tick_bytes.push_back(u32le_bytes(report.tick));
        } else {
          verdict[r] = DeviceStatus::kUntrusted;
          has_verdict[r] = true;
        }
        break;
      case DeviceReportStatus::kEntryRebooted:
        pending.push_back({r, DeviceStatus::kRebooted});
        tick_bytes.push_back(u32le_bytes(chal));
        break;
      case DeviceReportStatus::kEntryUnreachable:
        verdict[r] = DeviceStatus::kUnreachable;
        has_verdict[r] = true;
        break;
    }
  }

  // Pass 2: one backend batch for every token-bearing entry.
  std::vector<crypto::VerifyJob> jobs(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto& report = reports[pending[i].report_idx];
    jobs[i] = {&device_mac(report.id), expected_[report.id - 1],
               BytesView(tick_bytes[i].data(), 4), report.token};
  }
  std::vector<std::uint8_t> ok(jobs.size());
  crypto::active_backend().verify_tokens_batch(jobs.data(), jobs.size(),
                                               ok.data());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    verdict[pending[i].report_idx] =
        ok[i] ? pending[i].on_match : DeviceStatus::kUntrusted;
    has_verdict[pending[i].report_idx] = true;
  }

  // Apply in report order so a later entry for the same device still
  // overwrites an earlier one, as the serial loop did.
  for (std::size_t r = 0; r < reports.size(); ++r) {
    if (has_verdict[r]) out.status[reports[r].id - 1] = verdict[r];
  }
  for (net::NodeId id = 1; id <= device_count_; ++id) {
    switch (out.status[id - 1]) {
      case DeviceStatus::kHealthy: ++out.healthy; break;
      case DeviceStatus::kUnreachable:
        ++out.unreachable;
        out.unreachable_ids.push_back(id);
        break;
      case DeviceStatus::kUntrusted:
        ++out.untrusted;
        out.untrusted_ids.push_back(id);
        break;
      case DeviceStatus::kRebooted:
        ++out.rebooted;
        out.rebooted_ids.push_back(id);
        break;
    }
  }
  return out;
}

}  // namespace cra::sap
