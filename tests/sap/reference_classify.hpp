// The identify appraisal's reference oracle, shared by the suites that
// check sap::Verifier::Appraisal: a copy of the two-pass classify the
// appraisal replaced, kept apart from the code under test. It takes
// decoded DeviceReports, so it judges what a payload says without the
// appraisal's in-place reader.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/backend.hpp"
#include "sap/messages.hpp"
#include "sap/verifier.hpp"

namespace cra::sap {

/// The two-pass classify the appraisal replaced: token-free verdicts
/// first, then one verify batch for every token-bearing entry, applied
/// in report order.
inline Verifier::Classification reference_classify(
    const Verifier& v, const std::vector<DeviceReport>& reports,
    std::uint32_t chal) {
  using DeviceStatus = Verifier::DeviceStatus;
  Verifier::Classification out;
  out.enabled = true;
  out.status.assign(v.device_count(), DeviceStatus::kUnreachable);
  struct PendingToken {
    std::size_t report_idx;
    DeviceStatus on_match;
  };
  std::vector<DeviceStatus> verdict(reports.size());
  std::vector<bool> has_verdict(reports.size(), false);
  std::vector<PendingToken> pending;
  std::vector<std::array<std::uint8_t, 4>> tick_bytes;
  const auto le = [](std::uint32_t t) {
    std::array<std::uint8_t, 4> b{};
    store_u32le(b.data(), t);
    return b;
  };
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const auto& report = reports[r];
    if (report.id == 0 || report.id > v.device_count()) continue;
    switch (report.status) {
      case DeviceReportStatus::kEntryOk:
        pending.push_back({r, DeviceStatus::kHealthy});
        tick_bytes.push_back(le(chal));
        break;
      case DeviceReportStatus::kEntryLate:
        if (report.tick >= chal) {
          pending.push_back({r, DeviceStatus::kRebooted});
          tick_bytes.push_back(le(report.tick));
        } else {
          verdict[r] = DeviceStatus::kUntrusted;
          has_verdict[r] = true;
        }
        break;
      case DeviceReportStatus::kEntryRebooted:
        pending.push_back({r, DeviceStatus::kRebooted});
        tick_bytes.push_back(le(chal));
        break;
      case DeviceReportStatus::kEntryUnreachable:
        verdict[r] = DeviceStatus::kUnreachable;
        has_verdict[r] = true;
        break;
    }
  }
  std::vector<crypto::VerifyJob> jobs(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto& report = reports[pending[i].report_idx];
    jobs[i] = {&v.device_mac(report.id), v.expected_content(report.id),
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
  for (std::size_t r = 0; r < reports.size(); ++r) {
    if (has_verdict[r]) out.status[reports[r].id - 1] = verdict[r];
  }
  for (net::NodeId id = 1; id <= v.device_count(); ++id) {
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
