// Seeded-mutation fuzzing of SAP's message decoders.
//
// decode_chal, decode_identify, decode_identify_ex and
// decode_count_token read what a device or Vrf receives from the
// network. The seed corpus holds what their encoders produce — chals
// with and without an authenticator, identify reports in both formats
// with good, forged, duplicate and out-of-range entries, count tokens —
// and fuzz::mutate (tests/common/fuzz_mutate.hpp) edits them with fixed
// seeds. Under ASan (the sanitize CI job) an over-read fails the run.
// Properties:
//   * decode(encode(x)) == x for every seed, and every payload a
//     decoder accepts re-encodes to its own bytes (the chal: to its tick
//     and authenticator);
//   * for every entry list decode_identify accepts, an Appraisal filled
//     the way a simulated identify round fills it (open, then one sweep
//     per part of the ids) gives as untrusted the in-range ids whose
//     last entry has a wrong token, and as unreachable the ids with no
//     entry. The rule SAP's legacy identify mode used before it judged
//     through the Appraisal is kept below as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "sap/messages.hpp"
#include "sap/verifier.hpp"

namespace cra::sap {
namespace {

using fuzz::mutate;

constexpr std::uint32_t kDevices = 24;
constexpr std::uint32_t kTick = 41;
constexpr std::size_t kTok = 20;  // HMAC-SHA1
constexpr std::size_t kChalSize = 4 + kChalAuthSize + 4;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterations = 1000;

std::string where(std::uint64_t seed, int iteration) {
  return "seed " + std::to_string(seed) + " iteration " +
         std::to_string(iteration);
}

Verifier make_verifier() {
  SapConfig cfg;
  cfg.qoa = QoaMode::kIdentify;
  Verifier v(cfg, kDevices, to_bytes("messages-fuzz-master"));
  for (net::NodeId id = 1; id <= kDevices; ++id) {
    v.set_expected_content(id, to_bytes("cfg-" + std::to_string(id)));
  }
  return v;
}

/// The legacy identify rule, as SAP's Verifier applied it: every
/// in-range entry's token is checked at the challenge in one batch;
/// `ok` holds one flag per entry in report order (out-of-range entries
/// count as ok and are skipped), and `missing` the ids with no entry.
struct LegacyOutcome {
  std::vector<std::uint8_t> ok;
  std::vector<net::NodeId> missing;
};

LegacyOutcome legacy_identify(const Verifier& v,
                              const std::vector<DeviceReport>& reports,
                              std::uint32_t chal) {
  LegacyOutcome out;
  out.ok.assign(reports.size(), 1);
  std::vector<bool> seen(v.device_count() + 1, false);
  std::uint8_t chal_le[4];
  store_u32le(chal_le, chal);
  std::vector<crypto::VerifyJob> jobs;
  std::vector<std::size_t> job_entry;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeviceReport& report = reports[i];
    if (report.id == 0 || report.id > v.device_count()) continue;
    seen[report.id] = true;
    jobs.push_back({&v.device_mac(report.id), v.expected_content(report.id),
                    BytesView(chal_le, 4), report.token});
    job_entry.push_back(i);
  }
  std::vector<std::uint8_t> ok(jobs.size());
  crypto::active_backend().verify_tokens_batch(jobs.data(), jobs.size(),
                                               ok.data());
  for (std::size_t j = 0; j < jobs.size(); ++j) out.ok[job_entry[j]] = ok[j];
  for (net::NodeId id = 1; id <= v.device_count(); ++id) {
    if (!seen[id]) out.missing.push_back(id);
  }
  return out;
}

/// The ids whose last in-range entry failed the legacy check, ascending.
std::vector<net::NodeId> last_entry_bad(
    const std::vector<DeviceReport>& reports, const LegacyOutcome& legacy) {
  std::map<net::NodeId, bool> last_ok;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].id == 0 || reports[i].id > kDevices) continue;
    last_ok[reports[i].id] = legacy.ok[i] != 0;
  }
  std::vector<net::NodeId> bad;
  for (const auto& [id, ok] : last_ok) {
    if (!ok) bad.push_back(id);
  }
  return bad;
}

/// The simulator's identify verdict on a legacy payload: open the
/// appraisal, sweep the ids in two parts into its table, absorb, finish.
Verifier::Classification appraise(const Verifier& v,
                                  Verifier::Appraisal& appraisal,
                                  BytesView payload) {
  std::vector<net::NodeId> low;
  std::vector<net::NodeId> high;
  for (net::NodeId id = 1; id <= kDevices; ++id) {
    (id % 3 == 0 ? high : low).push_back(id);
  }
  appraisal.open(kTick);
  Bytes share(kTok, 0);
  v.sweep(high, kTick, share, appraisal.table());
  v.sweep(low, kTick, share, appraisal.table());
  appraisal.absorb(payload);
  return appraisal.finish();
}

/// Legacy (kIdentify) entry lists: every device healthy, forged and
/// missing entries, duplicates in both orders, ids 0 and N+1.
std::vector<std::vector<DeviceReport>> identify_lists(const Verifier& v) {
  const auto good = [&](net::NodeId id) {
    return DeviceReport{id, v.expected_token(id, kTick)};
  };
  const auto forged = [](net::NodeId id) {
    return DeviceReport{id, Bytes(kTok, static_cast<std::uint8_t>(id))};
  };
  std::vector<std::vector<DeviceReport>> lists(4);
  for (net::NodeId id = 1; id <= kDevices; ++id) lists[0].push_back(good(id));
  for (net::NodeId id = 1; id <= kDevices; id += 2) {
    lists[1].push_back(id % 5 == 0 ? forged(id) : good(id));
  }
  lists[2] = {good(3), forged(3), forged(4), good(4), forged(0),
              forged(kDevices + 1), good(kDevices), good(3)};
  lists[3] = {forged(kDevices), good(1), good(2), good(kDevices)};
  return lists;
}

TEST(SapMessagesFuzz, EncodersRoundTrip) {
  const Verifier v = make_verifier();
  for (const auto& list : identify_lists(v)) {
    const auto back = decode_identify(encode_identify(list, kTok), kTok);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ((*back)[i].id, list[i].id);
      EXPECT_EQ((*back)[i].token, list[i].token);
      EXPECT_EQ((*back)[i].status, DeviceReportStatus::kEntryOk);
    }
  }
  std::vector<DeviceReport> ex = identify_lists(v)[2];
  for (std::size_t i = 0; i < ex.size(); ++i) {
    ex[i].status = static_cast<DeviceReportStatus>(i % 4);
    ex[i].tick = kTick + static_cast<std::uint32_t>(i);
  }
  const auto back = decode_identify_ex(encode_identify_ex(ex, kTok), kTok);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), ex.size());
  for (std::size_t i = 0; i < ex.size(); ++i) {
    EXPECT_EQ((*back)[i].id, ex[i].id);
    EXPECT_EQ((*back)[i].token, ex[i].token);
    EXPECT_EQ((*back)[i].status, ex[i].status);
    EXPECT_EQ((*back)[i].tick, ex[i].tick);
  }
  const Bytes token = v.expected_result(kTick);
  const auto count =
      decode_count_token(encode_count_token(token, 0xfeedbeef), kTok);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(count->token, token);
  EXPECT_EQ(count->count, 0xfeedbeefu);
  const Bytes key(32, 0x17);
  for (const BytesView k : {BytesView(key), BytesView()}) {
    const auto chal = decode_chal(encode_chal(kTick, k, kChalSize), kChalSize);
    ASSERT_TRUE(chal.has_value());
    EXPECT_EQ(chal->tick, kTick);
    EXPECT_EQ(chal->auth.size(), kChalAuthSize);
    EXPECT_TRUE(chal_authentic(*chal, k));
  }
}

TEST(SapMessagesFuzz, MutatedIdentifyReportsAppraiseAsTheLegacyRule) {
  const Verifier v = make_verifier();
  Verifier::Appraisal appraisal(v, IdentifyFormat::kLegacy);
  std::vector<Bytes> corpus;
  for (const auto& list : identify_lists(v)) {
    corpus.push_back(encode_identify(list, kTok));
  }
  // Each entry's id: the length-field edits aim at them.
  std::vector<std::size_t> ids;
  for (std::size_t at = 0; at < 8 * (4 + kTok); at += 4 + kTok) {
    ids.push_back(at);
  }
  std::size_t accepted = 0;
  std::size_t with_duplicates = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int it = 0; it < kIterations; ++it) {
      const std::string at = where(seed, it);
      const Bytes& base = corpus[rng.next_below(corpus.size())];
      const Bytes payload = mutate(rng, base, corpus, ids);
      const auto reports = decode_identify(payload, kTok);
      if (!reports.has_value()) {
        EXPECT_NE(payload.size() % (4 + kTok), 0u) << at;
        continue;
      }
      ++accepted;
      EXPECT_EQ(encode_identify(*reports, kTok), payload) << at;
      const LegacyOutcome legacy = legacy_identify(v, *reports, kTick);
      const Verifier::Classification census =
          appraise(v, appraisal, payload);
      EXPECT_EQ(census.untrusted_ids, last_entry_bad(*reports, legacy)) << at;
      EXPECT_EQ(census.unreachable_ids, legacy.missing) << at;
      EXPECT_EQ(census.rebooted, 0u) << at;
      EXPECT_EQ(census.healthy + census.untrusted + census.unreachable,
                kDevices)
          << at;
      // Where no id repeats, the legacy rule's own list is the verdict.
      std::vector<net::NodeId> in_range;
      std::vector<net::NodeId> legacy_bad;
      for (std::size_t i = 0; i < reports->size(); ++i) {
        const net::NodeId id = (*reports)[i].id;
        if (id == 0 || id > kDevices) continue;
        in_range.push_back(id);
        if (!legacy.ok[i]) legacy_bad.push_back(id);
      }
      std::sort(in_range.begin(), in_range.end());
      if (std::adjacent_find(in_range.begin(), in_range.end()) !=
          in_range.end()) {
        ++with_duplicates;
        continue;
      }
      std::sort(legacy_bad.begin(), legacy_bad.end());
      EXPECT_EQ(census.untrusted_ids, legacy_bad) << at;
    }
  }
  // The mutations reach both branches of the property.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(with_duplicates, 50u);
}

TEST(SapMessagesFuzz, MutatedPayloadsDecodeCanonically) {
  const Verifier v = make_verifier();
  const Bytes key(32, 0x17);
  std::vector<DeviceReport> ex = identify_lists(v)[2];
  for (std::size_t i = 0; i < ex.size(); ++i) {
    ex[i].status = static_cast<DeviceReportStatus>(i % 4);
    ex[i].tick = kTick + static_cast<std::uint32_t>(i % 3);
  }
  const std::vector<Bytes> corpus = {
      encode_chal(kTick, key, kChalSize),
      encode_chal(kTick + 1, {}, kChalSize),
      encode_identify_ex(ex, kTok),
      encode_identify_ex({ex.front()}, kTok),
      encode_count_token(v.expected_result(kTick), 30),
      encode_identify(identify_lists(v)[3], kTok),
  };
  // The chal's tick, each extended entry's id and tick, the count.
  std::vector<std::size_t> fields = {0, kTok};
  for (std::size_t at = 0; at < 4 * (9 + kTok); at += 9 + kTok) {
    fields.push_back(at);
    fields.push_back(at + 5);
  }
  std::size_t decoded[3] = {0, 0, 0};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int it = 0; it < kIterations; ++it) {
      const std::string at = where(seed, it);
      const Bytes payload = mutate(
          rng, corpus[rng.next_below(corpus.size())], corpus, fields);
      if (const auto chal = decode_chal(payload, kChalSize)) {
        ++decoded[0];
        EXPECT_EQ(payload.size(), kChalSize) << at;
        EXPECT_EQ(chal->tick, read_u32le(payload, 0)) << at;
        EXPECT_TRUE(std::equal(chal->auth.begin(), chal->auth.end(),
                               payload.begin() + 4))
            << at;
        // Authentic exactly when the tick and its tag are what Vrf sends.
        const Bytes sent = encode_chal(chal->tick, key, kChalSize);
        EXPECT_EQ(chal_authentic(*chal, key),
                  std::equal(sent.begin(), sent.begin() + 4 + kChalAuthSize,
                             payload.begin()))
            << at;
      }
      if (const auto reports = decode_identify_ex(payload, kTok)) {
        ++decoded[1];
        EXPECT_EQ(encode_identify_ex(*reports, kTok), payload) << at;
      }
      if (const auto count = decode_count_token(payload, kTok)) {
        ++decoded[2];
        EXPECT_EQ(encode_count_token(count->token, count->count), payload)
            << at;
      }
    }
  }
  for (const std::size_t n : decoded) EXPECT_GT(n, 100u);
}

}  // namespace
}  // namespace cra::sap
