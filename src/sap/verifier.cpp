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

void Verifier::provision(std::span<const net::NodeId> ids) const {
  for (const net::NodeId id : ids) check_id(id);
  kdf_.device_keys(ids, config_.token_size(), crypto::kDeviceKeyLabel,
                   [this](net::NodeId id, BytesView key) {
                     mac_cache_[id - 1].init(config_.alg, key);
                   });
}

Bytes Verifier::expected_token(net::NodeId id, std::uint32_t chal) const {
  const auto chal_le = u32le_bytes(chal);
  crypto::MacBuf buf;
  device_mac(id).mac_into(expected_[id - 1], chal_le, buf);  // checks the id
  return Bytes(buf.bytes.begin(), buf.bytes.begin() + buf.len);
}

std::vector<net::NodeId> Verifier::all_ids() const {
  std::vector<net::NodeId> ids(device_count_);
  for (net::NodeId id = 1; id <= device_count_; ++id) ids[id - 1] = id;
  return ids;
}

void Verifier::sweep(std::span<const net::NodeId> ids, std::uint32_t chal,
                     Bytes& res_s, std::uint8_t* table) const {
  // RES_S is a pure fold over independent per-device MACs, so the whole
  // sweep batches through the active crypto backend: a SIMD backend
  // computes `lanes` device tokens per compression sweep, the scalar
  // reference walks them one by one — same tokens, same tally.
  std::uint8_t chal_le[4];
  store_u32le(chal_le, chal);
  const BytesView chal_view(chal_le, 4);
  const std::size_t token_size = config_.token_size();
  const crypto::Backend& backend = crypto::active_backend();
  constexpr std::size_t kChunk = 256;
  std::array<crypto::MacJob, kChunk> jobs;
  std::array<crypto::MacBuf, kChunk> outs;
  std::array<net::NodeId, kChunk> cold;
  while (!ids.empty()) {
    const std::span<const net::NodeId> chunk =
        ids.first(std::min(kChunk, ids.size()));
    ids = ids.subspan(chunk.size());
    // A fresh verifier's first sweep derives the chunk's keys in one
    // batch, as provisioning does, not one HKDF per device_mac call.
    std::size_t n_cold = 0;
    for (const net::NodeId id : chunk) {
      check_id(id);
      if (!mac_cache_[id - 1].ready()) cold[n_cold++] = id;
    }
    if (n_cold != 0) provision(std::span(cold.data(), n_cold));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      jobs[i] = {&mac_cache_[chunk[i] - 1], expected_[chunk[i] - 1],
                 chal_view};
    }
    backend.hmac_batch(jobs.data(), chunk.size(), outs.data());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      xor_inplace(res_s, outs[i].view());
      if (table != nullptr) {
        std::copy_n(outs[i].bytes.data(), token_size,
                    table + (chunk[i] - 1) * token_size);
      }
    }
  }
}

Bytes Verifier::expected_result(std::uint32_t chal) const {
  Bytes acc(config_.token_size(), 0);
  sweep(all_ids(), chal, acc, nullptr);
  return acc;
}

void Verifier::Appraisal::open(std::uint32_t chal) {
  const Verifier& v = *verifier_;
  chal_ = chal;
  tokens_.resize(static_cast<std::size_t>(v.device_count_) *
                 v.config_.token_size());
  res_s_.clear();
  status_.assign(v.device_count_, DeviceStatus::kUnreachable);
}

void Verifier::Appraisal::begin(std::uint32_t chal) {
  const Verifier& v = *verifier_;
  open(chal);
  if (ids_.empty()) ids_ = v.all_ids();
  res_s_.assign(v.config_.token_size(), 0);
  v.sweep(ids_, chal, res_s_, tokens_.data());
}

bool Verifier::Appraisal::matches_table(const IdentifyEntry& entry) const {
  const std::size_t token_size = verifier_->config_.token_size();
  return crypto::ct_equal(
      entry.token,
      BytesView(tokens_.data() + (entry.id - 1) * token_size, token_size));
}

Verifier::DeviceStatus Verifier::Appraisal::judge(const IdentifyEntry& entry,
                                                  bool late_valid) const {
  switch (entry.status) {
    case DeviceReportStatus::kEntryOk:
      return matches_table(entry) ? DeviceStatus::kHealthy
                                  : DeviceStatus::kUntrusted;
    case DeviceReportStatus::kEntryRebooted:
      return matches_table(entry) ? DeviceStatus::kRebooted
                                  : DeviceStatus::kUntrusted;
    case DeviceReportStatus::kEntryLate: {
      // A late joiner attested its *current* tick, which must not
      // predate the challenge. Valid evidence at a later tick proves
      // the state but not liveness through the round: rebooted.
      if (entry.tick < chal_) return DeviceStatus::kUntrusted;
      const bool valid =
          entry.tick == chal_ ? matches_table(entry) : late_valid;
      return valid ? DeviceStatus::kRebooted : DeviceStatus::kUntrusted;
    }
    case DeviceReportStatus::kEntryUnreachable:
      return DeviceStatus::kUnreachable;
  }
  // well_formed() admits no other status.
  return status_[entry.id - 1];
}

void Verifier::Appraisal::absorb(BytesView entries) {
  if (!codec_.well_formed(entries)) return;
  const Verifier& v = *verifier_;
  const std::size_t n = codec_.entry_count(entries);
  const auto in_range = [&](const IdentifyEntry& e) {
    return e.id != 0 && e.id <= v.device_count_;
  };
  const auto on_demand = [&](const IdentifyEntry& e) {
    return e.status == DeviceReportStatus::kEntryLate && e.tick > chal_;
  };
  // Late entries at a tick after the challenge are the only ones the
  // table cannot judge: one backend batch covers all of this call's.
  std::vector<std::array<std::uint8_t, 4>> ticks;  // the jobs' suffixes
  std::vector<crypto::VerifyJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const IdentifyEntry e = codec_.entry(entries, i);
    if (!in_range(e) || !on_demand(e)) continue;
    if (ticks.empty()) ticks.reserve(n);  // keeps the views below valid
    ticks.push_back(u32le_bytes(e.tick));
    jobs.push_back({&v.device_mac(e.id), v.expected_[e.id - 1],
                    BytesView(ticks.back().data(), 4), e.token});
  }
  std::vector<std::uint8_t> late_ok(jobs.size());
  if (!jobs.empty()) {
    crypto::active_backend().verify_tokens_batch(jobs.data(), jobs.size(),
                                                 late_ok.data());
  }
  std::size_t late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const IdentifyEntry e = codec_.entry(entries, i);
    if (!in_range(e)) continue;
    const bool computed = on_demand(e);
    status_[e.id - 1] = judge(e, computed && late_ok[late] != 0);
    late += computed ? 1 : 0;
  }
}

Verifier::Classification Verifier::Appraisal::finish() const {
  Classification out;
  out.enabled = true;
  out.status = status_;
  for (net::NodeId id = 1; id <= status_.size(); ++id) {
    switch (status_[id - 1]) {
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

Verifier::Classification Verifier::classify(
    const std::vector<DeviceReport>& reports, std::uint32_t chal) const {
  Bytes entries;
  IdentifyCodec(IdentifyFormat::kExtended, config_.token_size())
      .append(entries, reports.data(), reports.size());
  Appraisal appraisal(*this, IdentifyFormat::kExtended);
  appraisal.begin(chal);
  appraisal.absorb(entries);
  return appraisal.finish();
}

}  // namespace cra::sap
