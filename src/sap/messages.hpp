// Wire messages of SAP.
//
// Two message kinds flow in a round (paper Figure 1): the challenge
// (request, root -> leaves) and the token (report, leaves -> root).
// Payload layouts are fixed-size so the network utilization matches the
// model: |chal| = |token| = l bits.
//
//   chal  = tick(4, LE) || auth(16)          -- auth is HMAC_{K_req}(tick)
//                                               truncated, or zero padding
//   token = l bytes                           -- kBinary
//   token = l bytes || count(4, LE)           -- kCount
//   token = repeated entry                    -- kIdentify (one entry per
//                                                device in the subtree)
//
// The kIdentify entry has one owner, IdentifyCodec below: SAP's nodes,
// cra_agentd's token frames, cra_verifierd's round and its journal
// (wire/journal.hpp) all write entries through it, and the verifier's
// appraisal reads them in place (IdentifyEntry).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "sap/config.hpp"

namespace cra::sap {

enum MessageKind : std::uint32_t {
  kChalMsg = 1,
  kTokenMsg = 2,
  kRepollMsg = 3,  // lossy-network extension: parent re-requests a token
};

constexpr std::size_t kChalAuthSize = 16;

/// Build a challenge payload. `auth_key` empty -> zero padding.
Bytes encode_chal(std::uint32_t tick, BytesView auth_key,
                  std::size_t chal_size);

struct ChalView {
  std::uint32_t tick = 0;
  Bytes auth;  // kChalAuthSize bytes
};

/// Parse; returns nullopt when the payload is malformed (too short).
std::optional<ChalView> decode_chal(BytesView payload, std::size_t chal_size);

/// Verify the challenge authenticator (constant-time).
bool chal_authentic(const ChalView& chal, BytesView auth_key);

/// Per-entry status on the adaptive-timeout (degraded-mode) wire format.
/// Legacy kIdentify entries carry no status byte; decode_identify leaves
/// entries at kEntryOk.
enum class DeviceReportStatus : std::uint8_t {
  kEntryOk = 0,           // token computed in sync at the round tick
  kEntryLate = 1,         // device joined via re-poll; token for `tick`
  kEntryUnreachable = 2,  // parent gave up after its re-poll budget
  kEntryRebooted = 3,     // device restarted since the previous round
};

const char* entry_status_name(DeviceReportStatus status) noexcept;

/// kIdentify entries. `status`/`tick` ride after `token` so the legacy
/// two-field aggregate init keeps working; they only hit the wire on the
/// extended (adaptive) format.
struct DeviceReport {
  std::uint32_t id = 0;
  Bytes token;  // l bytes
  DeviceReportStatus status = DeviceReportStatus::kEntryOk;
  std::uint32_t tick = 0;  // tick the token was computed at (kEntryLate)
};

/// An entry as IdentifyCodec::entry() reads it: `token` views the payload.
struct IdentifyEntry {
  std::uint32_t id = 0;
  DeviceReportStatus status = DeviceReportStatus::kEntryOk;
  std::uint32_t tick = 0;
  BytesView token;
};

/// The two kIdentify entry forms:
///   legacy   entry = id(4, LE) || token(l bytes)
///   extended entry = id(4, LE) || status(1) || tick(4, LE) || token(l)
/// Adaptive-timeout rounds, the wire agents and the verifier daemon's
/// journal use the extended form. Unreachable entries still carry a
/// (zero) token so entries stay fixed-size and the report-chain deadline
/// math holds.
enum class IdentifyFormat : std::uint8_t { kLegacy, kExtended };

/// The kIdentify entry of one format and token size: its width, its
/// writer and its reader. A report is a concatenation of entries, so a
/// relay aggregates by appending a child's payload once well_formed()
/// accepts it.
class IdentifyCodec {
 public:
  IdentifyCodec(IdentifyFormat format, std::size_t token_size) noexcept
      : format_(format), token_size_(token_size) {}

  IdentifyFormat format() const noexcept { return format_; }
  /// Bytes per entry: id(4) [|| status(1) || tick(4)] || token.
  std::size_t entry_size() const noexcept {
    return (format_ == IdentifyFormat::kExtended ? 9 : 4) + token_size_;
  }
  /// Append one entry; the legacy form drops `status` and `tick`. Throws
  /// std::invalid_argument unless `token` is token_size bytes.
  void append(Bytes& out, std::uint32_t id, BytesView token,
              DeviceReportStatus status = DeviceReportStatus::kEntryOk,
              std::uint32_t tick = 0) const;
  /// Append the entries of `n` reports.
  void append(Bytes& out, const DeviceReport* reports, std::size_t n) const;
  /// The entries of `reports` as one payload.
  Bytes encode(const std::vector<DeviceReport>& reports) const {
    Bytes out;
    append(out, reports.data(), reports.size());
    return out;
  }
  /// The reader's rule: a whole number of entries, each extended entry
  /// with a status DeviceReportStatus defines.
  bool well_formed(BytesView payload) const noexcept;
  /// Whole entries in `payload`.
  std::size_t entry_count(BytesView payload) const noexcept {
    return payload.size() / entry_size();
  }
  /// Entry `i` (< entry_count) of a well-formed payload, read in place;
  /// legacy entries read as kEntryOk at tick 0.
  IdentifyEntry entry(BytesView payload, std::size_t i) const noexcept {
    const std::uint8_t* p = payload.data() + i * entry_size();
    IdentifyEntry out;
    out.id = load_u32le(p);
    if (format_ == IdentifyFormat::kExtended) {
      out.status = static_cast<DeviceReportStatus>(p[4]);
      out.tick = load_u32le(p + 5);
    }
    out.token = BytesView(p + entry_size() - token_size_, token_size_);
    return out;
  }
  /// A well-formed payload's entries, in order; nullopt for any other.
  std::optional<std::vector<DeviceReport>> decode(BytesView payload) const;

 private:
  IdentifyFormat format_;
  std::size_t token_size_;
};

/// Whole kIdentify payloads of DeviceReports, legacy and extended.
inline Bytes encode_identify(const std::vector<DeviceReport>& reports,
                             std::size_t token_size) {
  return IdentifyCodec(IdentifyFormat::kLegacy, token_size).encode(reports);
}
inline std::optional<std::vector<DeviceReport>> decode_identify(
    BytesView payload, std::size_t token_size) {
  return IdentifyCodec(IdentifyFormat::kLegacy, token_size).decode(payload);
}
inline Bytes encode_identify_ex(const std::vector<DeviceReport>& reports,
                                std::size_t token_size) {
  return IdentifyCodec(IdentifyFormat::kExtended, token_size).encode(reports);
}
inline std::optional<std::vector<DeviceReport>> decode_identify_ex(
    BytesView payload, std::size_t token_size) {
  return IdentifyCodec(IdentifyFormat::kExtended, token_size).decode(payload);
}

/// kCount payload helpers.
Bytes encode_count_token(BytesView token, std::uint32_t count);
struct CountToken {
  Bytes token;
  std::uint32_t count = 0;
};
std::optional<CountToken> decode_count_token(BytesView payload,
                                             std::size_t token_size);

}  // namespace cra::sap
