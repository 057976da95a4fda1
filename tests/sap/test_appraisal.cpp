// Property tests for sap::Verifier's one appraisal path.
//
// Seeded report sequences from common/rng — duplicate ids, late entries
// at older, equal and later ticks, rebooted and unreachable entries,
// ids 0 and N+1, forged and wrong-length tokens — are judged three ways:
// by classify() on the whole sequence, by one Appraisal fed the same
// sequence in random splits, and by a copy of the earlier two-pass
// classify kept here as the reference oracle. All three must agree on
// every count, status and id list.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "crypto/tally.hpp"
#include "sap/verifier.hpp"

namespace cra::sap {
namespace {

using DeviceStatus = Verifier::DeviceStatus;

constexpr std::uint32_t kDevices = 24;
constexpr int kSequences = 300;

Verifier make_verifier(crypto::HashAlg alg = crypto::HashAlg::kSha1) {
  SapConfig c;
  c.alg = alg;
  Verifier v(c, kDevices, to_bytes("appraisal-master"));
  for (net::NodeId id = 1; id <= kDevices; ++id) {
    v.set_expected_content(id, to_bytes("cfg-" + std::to_string(id)));
  }
  return v;
}

/// The two-pass classify the appraisal replaced: token-free verdicts
/// first, then one verify batch for every token-bearing entry, applied
/// in report order.
Verifier::Classification reference_classify(
    const Verifier& v, const std::vector<DeviceReport>& reports,
    std::uint32_t chal) {
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

/// One seeded report sequence under challenge `chal`.
std::vector<DeviceReport> random_reports(Rng& rng, const Verifier& v,
                                         std::uint32_t chal) {
  const std::size_t token_size = v.config().token_size();
  std::vector<DeviceReport> out(rng.next_below(2 * kDevices + 1));
  for (DeviceReport& rep : out) {
    // Mostly real devices from a narrow range, so ids repeat.
    const std::uint64_t pick = rng.next_below(20);
    rep.id = pick == 0 ? 0
             : pick == 1
                 ? kDevices + 1
                 : static_cast<net::NodeId>(1 + rng.next_below(kDevices));
    rep.status = static_cast<DeviceReportStatus>(rng.next_below(4));
    rep.tick = chal;
    if (rep.status == DeviceReportStatus::kEntryLate) {
      const auto step = static_cast<std::uint32_t>(1 + rng.next_below(5));
      switch (rng.next_below(3)) {
        case 0: rep.tick = chal - step; break;  // older: a replay
        case 1: break;                          // the round's own tick
        default: rep.tick = chal + step; break;  // rebooted since
      }
    } else if (rng.next_bool(0.2)) {
      // Only late entries read their tick; the others must ignore it.
      rep.tick = static_cast<std::uint32_t>(rng.next());
    }
    const bool real = rep.id >= 1 && rep.id <= kDevices;
    switch (rng.next_below(6)) {
      case 0:
        rep.token = rng.next_bytes(token_size);  // forged
        break;
      case 1:
        rep.token = rng.next_bytes(rng.next_below(2 * token_size));
        break;
      case 2:
        // A valid token for the wrong challenge: a replay.
        rep.token = real ? v.expected_token(rep.id, chal + 7)
                         : rng.next_bytes(token_size);
        break;
      default:
        rep.token = real ? v.expected_token(rep.id, rep.tick)
                         : rng.next_bytes(token_size);
        break;
    }
    if (rep.status == DeviceReportStatus::kEntryUnreachable &&
        rng.next_bool(0.5)) {
      rep.token.assign(token_size, 0);
    }
  }
  return out;
}

void expect_same(const Verifier::Classification& got,
                 const Verifier::Classification& want,
                 const std::string& where) {
  EXPECT_EQ(got.enabled, want.enabled) << where;
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.healthy, want.healthy) << where;
  EXPECT_EQ(got.unreachable, want.unreachable) << where;
  EXPECT_EQ(got.untrusted, want.untrusted) << where;
  EXPECT_EQ(got.rebooted, want.rebooted) << where;
  EXPECT_EQ(got.untrusted_ids, want.untrusted_ids) << where;
  EXPECT_EQ(got.unreachable_ids, want.unreachable_ids) << where;
  EXPECT_EQ(got.rebooted_ids, want.rebooted_ids) << where;
}

void check_splits_agree(crypto::HashAlg alg, std::uint64_t seed) {
  const Verifier v = make_verifier(alg);
  Verifier::Appraisal appraisal(v);  // reused across every sequence
  Rng rng(seed);
  std::uint32_t statuses_seen[4] = {};
  for (int s = 0; s < kSequences; ++s) {
    const std::string where =
        "seed " + std::to_string(seed) + " sequence " + std::to_string(s);
    const auto chal = static_cast<std::uint32_t>(10 + rng.next_below(1000));
    const std::vector<DeviceReport> reports = random_reports(rng, v, chal);

    const Verifier::Classification want = reference_classify(v, reports, chal);
    expect_same(v.classify(reports, chal), want, where + " classify");

    appraisal.begin(chal);
    for (std::size_t at = 0; at < reports.size();) {
      const std::size_t len = rng.next_below(reports.size() - at + 1);
      appraisal.absorb(reports.data() + at, len);
      at += len;
    }
    expect_same(appraisal.finish(), want, where + " split");
    for (const DeviceStatus st : want.status) {
      ++statuses_seen[static_cast<int>(st)];
    }
  }
  // The generator must reach every verdict, not only rejections.
  for (const std::uint32_t n : statuses_seen) EXPECT_GT(n, 0u);
}

TEST(Appraisal, AnySplitMatchesClassifyAndTheTwoPassOracle) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    check_splits_agree(crypto::HashAlg::kSha1, seed);
  }
  check_splits_agree(crypto::HashAlg::kSha256, 4);  // 32-byte tokens
}

TEST(Appraisal, StaleLateEntryCostsNoCompression) {
  const Verifier v = make_verifier();
  const std::uint32_t chal = 40;
  Verifier::Appraisal appraisal(v);
  appraisal.begin(chal);

  // A replayed pre-challenge token, valid at its own tick.
  DeviceReport stale{3, v.expected_token(3, chal - 5),
                     DeviceReportStatus::kEntryLate, chal - 5};
  const std::uint64_t before = crypto::compression_calls_executed();
  appraisal.absorb(&stale, 1);
  EXPECT_EQ(crypto::compression_calls_executed() - before, 0u);

  // A late entry from after the challenge is the one that is computed.
  DeviceReport later{4, v.expected_token(4, chal + 2),
                     DeviceReportStatus::kEntryLate, chal + 2};
  const std::uint64_t mid = crypto::compression_calls_executed();
  appraisal.absorb(&later, 1);
  EXPECT_GT(crypto::compression_calls_executed() - mid, 0u);

  const Verifier::Classification out = appraisal.finish();
  EXPECT_EQ(out.status[2], DeviceStatus::kUntrusted);
  EXPECT_EQ(out.status[3], DeviceStatus::kRebooted);
  EXPECT_EQ(out.unreachable, kDevices - 2);
}

TEST(Appraisal, BeginDoesTheWorkOfExpectedResult) {
  const Verifier v = make_verifier();
  Verifier::Appraisal appraisal(v);
  (void)v.expected_result(1);  // derive and cache every device key first
  const std::uint64_t t0 = crypto::compression_calls_executed();
  const Bytes res_s = v.expected_result(77);
  const std::uint64_t t1 = crypto::compression_calls_executed();
  appraisal.begin(77);
  const std::uint64_t t2 = crypto::compression_calls_executed();
  EXPECT_EQ(t2 - t1, t1 - t0);
  EXPECT_EQ(Bytes(appraisal.expected_result().begin(),
                  appraisal.expected_result().end()),
            res_s);
}

TEST(Appraisal, FirstBeginDerivesKeysLikeProvisioning) {
  // A fresh verifier derives each sweep chunk's keys in one batch: the
  // same token table and RES_S, for no more compressions, as a verifier
  // provisioned up front. 600 devices make three chunks, the last
  // partial.
  constexpr std::uint32_t kMany = 600;
  const auto make = [] {
    Verifier v(SapConfig{}, kMany, to_bytes("appraisal-master"));
    for (net::NodeId id = 1; id <= kMany; ++id) {
      v.set_expected_content(id, to_bytes("cfg-" + std::to_string(id)));
    }
    return v;
  };
  const Verifier fresh = make();
  const Verifier provisioned = make();
  std::vector<net::NodeId> ids;
  for (net::NodeId id = 1; id <= kMany; ++id) ids.push_back(id);
  const std::uint32_t chal = 9;

  const std::uint64_t t0 = crypto::compression_calls_executed();
  provisioned.provision(ids);
  Verifier::Appraisal warm(provisioned);
  warm.begin(chal);
  const std::uint64_t t1 = crypto::compression_calls_executed();
  Verifier::Appraisal cold(fresh);
  cold.begin(chal);
  const std::uint64_t t2 = crypto::compression_calls_executed();
  EXPECT_LE(t2 - t1, t1 - t0);
  EXPECT_EQ(Bytes(cold.expected_result().begin(),
                  cold.expected_result().end()),
            Bytes(warm.expected_result().begin(),
                  warm.expected_result().end()));

  // Every table entry matches: the provisioned verifier's tokens are all
  // healthy against the fresh one's table.
  std::vector<DeviceReport> reports;
  for (const net::NodeId id : ids) {
    reports.push_back({id, provisioned.expected_token(id, chal),
                       DeviceReportStatus::kEntryOk, chal});
  }
  cold.absorb(reports.data(), reports.size());
  EXPECT_EQ(cold.finish().healthy, kMany);
}

}  // namespace
}  // namespace cra::sap
