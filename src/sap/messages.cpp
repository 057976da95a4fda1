#include "sap/messages.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"

namespace cra::sap {

const char* qoa_name(QoaMode mode) noexcept {
  switch (mode) {
    case QoaMode::kBinary: return "binary";
    case QoaMode::kCount: return "count";
    case QoaMode::kIdentify: return "identify";
  }
  return "?";
}

namespace {

Bytes chal_auth_tag(std::uint32_t tick, BytesView auth_key) {
  Bytes message;
  append_u32le(message, tick);
  Bytes mac = crypto::hmac(crypto::HashAlg::kSha256, auth_key, message);
  mac.resize(kChalAuthSize);
  return mac;
}

}  // namespace

Bytes encode_chal(std::uint32_t tick, BytesView auth_key,
                  std::size_t chal_size) {
  if (chal_size < 4 + kChalAuthSize) {
    throw std::invalid_argument("encode_chal: chal_size too small");
  }
  Bytes out;
  out.reserve(chal_size);
  append_u32le(out, tick);
  if (auth_key.empty()) {
    out.resize(4 + kChalAuthSize, 0);
  } else {
    const Bytes tag = chal_auth_tag(tick, auth_key);
    out.insert(out.end(), tag.begin(), tag.end());
  }
  out.resize(chal_size, 0);
  return out;
}

std::optional<ChalView> decode_chal(BytesView payload,
                                    std::size_t chal_size) {
  if (payload.size() != chal_size || chal_size < 4 + kChalAuthSize) {
    return std::nullopt;
  }
  ChalView view;
  view.tick = read_u32le(payload, 0);
  view.auth.assign(payload.begin() + 4, payload.begin() + 4 + kChalAuthSize);
  return view;
}

bool chal_authentic(const ChalView& chal, BytesView auth_key) {
  if (auth_key.empty()) return true;  // authentication disabled
  return crypto::ct_equal(chal.auth, chal_auth_tag(chal.tick, auth_key));
}

const char* entry_status_name(DeviceReportStatus status) noexcept {
  switch (status) {
    case DeviceReportStatus::kEntryOk: return "ok";
    case DeviceReportStatus::kEntryLate: return "late";
    case DeviceReportStatus::kEntryUnreachable: return "unreachable";
    case DeviceReportStatus::kEntryRebooted: return "rebooted";
  }
  return "?";
}

void IdentifyCodec::append(Bytes& out, std::uint32_t id, BytesView token,
                           DeviceReportStatus status,
                           std::uint32_t tick) const {
  if (token.size() != token_size_) {
    throw std::invalid_argument("identify entry: bad token size");
  }
  const std::size_t at = out.size();
  out.resize(at + entry_size());
  store_u32le(out.data() + at, id);
  if (format_ == IdentifyFormat::kExtended) {
    out[at + 4] = static_cast<std::uint8_t>(status);
    store_u32le(out.data() + at + 5, tick);
  }
  std::copy(token.begin(), token.end(), out.data() + out.size() - token_size_);
}

void IdentifyCodec::append(Bytes& out, const DeviceReport* reports,
                           std::size_t n) const {
  out.reserve(out.size() + n * entry_size());
  for (std::size_t i = 0; i < n; ++i) {
    append(out, reports[i].id, reports[i].token, reports[i].status,
           reports[i].tick);
  }
}

bool IdentifyCodec::well_formed(BytesView payload) const noexcept {
  const std::size_t entry = entry_size();
  if (payload.size() % entry != 0) return false;
  if (format_ == IdentifyFormat::kLegacy) return true;
  for (std::size_t off = 4; off < payload.size(); off += entry) {
    if (payload[off] >
        static_cast<std::uint8_t>(DeviceReportStatus::kEntryRebooted)) {
      return false;
    }
  }
  return true;
}

std::optional<std::vector<DeviceReport>> IdentifyCodec::decode(
    BytesView payload) const {
  if (!well_formed(payload)) return std::nullopt;
  std::vector<DeviceReport> out(entry_count(payload));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const IdentifyEntry e = entry(payload, i);
    out[i] = {e.id, Bytes(e.token.begin(), e.token.end()), e.status, e.tick};
  }
  return out;
}

Bytes encode_count_token(BytesView token, std::uint32_t count) {
  Bytes out(token.begin(), token.end());
  append_u32le(out, count);
  return out;
}

std::optional<CountToken> decode_count_token(BytesView payload,
                                             std::size_t token_size) {
  if (payload.size() != token_size + 4) return std::nullopt;
  CountToken out;
  out.token.assign(payload.begin(),
                   payload.begin() + static_cast<std::ptrdiff_t>(token_size));
  out.count = read_u32le(payload, token_size);
  return out;
}

}  // namespace cra::sap
