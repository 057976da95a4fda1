// Property tests for sap::Verifier's one appraisal path.
//
// Seeded report sequences from common/rng — duplicate ids, late entries
// at older, equal and later ticks, rebooted and unreachable entries,
// ids 0 and N+1, forged, replayed and other devices' tokens — are
// judged three ways: by classify() on the whole sequence, by one
// Appraisal fed the sequence's encoding in random splits, and by the
// reference oracle (reference_classify.hpp), the earlier two-pass
// classify. All three must agree on every count, status and id list.
// Mutated encodings of such sequences, fed straight to absorb(), must
// change no status when the codec rejects them and otherwise give the
// oracle's census of what decode_identify_ex reads from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "common/rng.hpp"
#include "crypto/tally.hpp"
#include "net/topology.hpp"
#include "reference_classify.hpp"
#include "sap/messages.hpp"
#include "sap/verifier.hpp"
#include "swarm/runtime.hpp"

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
      case 1: {
        // Another device's valid token.
        const auto other =
            static_cast<net::NodeId>(1 + rng.next_below(kDevices));
        rep.token = v.expected_token(other, rep.tick);
        break;
      }
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
  // Reused across every sequence.
  Verifier::Appraisal appraisal(v, IdentifyFormat::kExtended);
  const std::size_t entry = 9 + v.config().token_size();
  Rng rng(seed);
  std::uint32_t statuses_seen[4] = {};
  for (int s = 0; s < kSequences; ++s) {
    const std::string where =
        "seed " + std::to_string(seed) + " sequence " + std::to_string(s);
    const auto chal = static_cast<std::uint32_t>(10 + rng.next_below(1000));
    const std::vector<DeviceReport> reports = random_reports(rng, v, chal);
    const Bytes payload =
        encode_identify_ex(reports, v.config().token_size());

    const Verifier::Classification want = reference_classify(v, reports, chal);
    expect_same(v.classify(reports, chal), want, where + " classify");

    appraisal.begin(chal);
    for (std::size_t at = 0; at < reports.size();) {
      const std::size_t len = rng.next_below(reports.size() - at + 1);
      appraisal.absorb(BytesView(payload).subspan(at * entry, len * entry));
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

TEST(Appraisal, ClassifyRefusesAWrongSizeToken) {
  // classify() encodes its reports first, and the codec's writer takes
  // only token_size-byte tokens.
  const Verifier v = make_verifier();
  const std::size_t ts = v.config().token_size();
  const Bytes good = v.expected_token(1, 5);
  for (const std::size_t size : {std::size_t{0}, ts - 1, ts + 1}) {
    const std::vector<DeviceReport> reports = {{1, good},
                                               {2, Bytes(size, 0x5a)}};
    EXPECT_THROW((void)v.classify(reports, 5), std::invalid_argument)
        << size;
  }
  EXPECT_EQ(v.classify({{1, good}}, 5).healthy, 1u);
}

TEST(Appraisal, MutatedEntryPayloadsAbsorbAsTheOracleOrNotAtAll) {
  // Encoded sequences, mutated, straight into absorb() after a first
  // payload: one the codec rejects leaves every status as that first
  // payload left it; one it accepts gives the oracle's census of both
  // payloads' entries as decode_identify_ex reads them.
  const Verifier v = make_verifier();
  const std::size_t ts = v.config().token_size();
  const std::size_t entry = 9 + ts;
  const std::uint32_t chal = 500;
  Verifier::Appraisal appraisal(v, IdentifyFormat::kExtended);
  Rng rng(77);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 8; ++i) {
    corpus.push_back(encode_identify_ex(random_reports(rng, v, chal), ts));
  }
  // The first entries' ids and ticks.
  std::vector<std::size_t> fields;
  for (std::size_t at = 0; at < 4 * entry; at += entry) {
    fields.push_back(at);
    fields.push_back(at + 5);
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Rng mut(seed);
    for (int it = 0; it < 400; ++it) {
      const std::string where =
          "seed " + std::to_string(seed) + " iteration " + std::to_string(it);
      const std::vector<DeviceReport> first = random_reports(mut, v, chal);
      const Bytes payload = fuzz::mutate(
          mut, corpus[mut.next_below(corpus.size())], corpus, fields);

      appraisal.begin(chal);
      appraisal.absorb(encode_identify_ex(first, ts));
      const Verifier::Classification before = appraisal.finish();
      appraisal.absorb(payload);
      const auto decoded = decode_identify_ex(payload, ts);
      EXPECT_EQ(decoded.has_value(),
                IdentifyCodec(IdentifyFormat::kExtended, ts)
                    .well_formed(payload))
          << where;
      if (!decoded.has_value()) {
        ++rejected;
        expect_same(appraisal.finish(), before, where + " rejected");
        continue;
      }
      ++accepted;
      std::vector<DeviceReport> both = first;
      both.insert(both.end(), decoded->begin(), decoded->end());
      expect_same(appraisal.finish(), reference_classify(v, both, chal),
                  where + " accepted");
    }
  }
  // The mutations reach both branches of the property.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(Appraisal, StaleLateEntryCostsNoCompression) {
  const Verifier v = make_verifier();
  const std::size_t ts = v.config().token_size();
  const std::uint32_t chal = 40;
  Verifier::Appraisal appraisal(v, IdentifyFormat::kExtended);
  appraisal.begin(chal);

  // A replayed pre-challenge token, valid at its own tick.
  const Bytes stale = encode_identify_ex(
      {{3, v.expected_token(3, chal - 5), DeviceReportStatus::kEntryLate,
        chal - 5}},
      ts);
  const std::uint64_t before = crypto::compression_calls_executed();
  appraisal.absorb(stale);
  EXPECT_EQ(crypto::compression_calls_executed() - before, 0u);

  // A late entry from after the challenge is the one that is computed.
  const Bytes later = encode_identify_ex(
      {{4, v.expected_token(4, chal + 2), DeviceReportStatus::kEntryLate,
        chal + 2}},
      ts);
  const std::uint64_t mid = crypto::compression_calls_executed();
  appraisal.absorb(later);
  EXPECT_GT(crypto::compression_calls_executed() - mid, 0u);

  const Verifier::Classification out = appraisal.finish();
  EXPECT_EQ(out.status[2], DeviceStatus::kUntrusted);
  EXPECT_EQ(out.status[3], DeviceStatus::kRebooted);
  EXPECT_EQ(out.unreachable, kDevices - 2);
}

TEST(Appraisal, BeginDoesTheWorkOfExpectedResult) {
  const Verifier v = make_verifier();
  Verifier::Appraisal appraisal(v, IdentifyFormat::kExtended);
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
  Verifier::Appraisal warm(provisioned, IdentifyFormat::kExtended);
  warm.begin(chal);
  const std::uint64_t t1 = crypto::compression_calls_executed();
  Verifier::Appraisal cold(fresh, IdentifyFormat::kExtended);
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
  cold.absorb(encode_identify_ex(reports, fresh.config().token_size()));
  EXPECT_EQ(cold.finish().healthy, kMany);
}

TEST(Sweep, AnyPartitionFoldsToTheWholeSweep) {
  // The simulator folds RES_S per shard and XORs the parts. Over seeded
  // random partitions of 1..N in random order, empty parts included,
  // and over the deployment tree's shard runs at 1, 3 and 8 shards: the
  // parts' RES_S fold to expected_result, every table row is that id's
  // res_i, and the parts cost the whole sweep's compressions.
  constexpr std::uint32_t kMany = 600;  // several 256-id chunks
  Verifier v(SapConfig{}, kMany, to_bytes("appraisal-master"));
  for (net::NodeId id = 1; id <= kMany; ++id) {
    v.set_expected_content(id, to_bytes("cfg-" + std::to_string(id)));
  }
  const std::size_t ts = v.config().token_size();
  const std::uint32_t chal = 31;
  (void)v.expected_result(1);  // provision every key: tally sweeps only
  const std::uint64_t t0 = crypto::compression_calls_executed();
  const Bytes whole = v.expected_result(chal);
  const std::uint64_t whole_cost = crypto::compression_calls_executed() - t0;
  std::vector<Bytes> res_i(kMany + 1);
  for (net::NodeId id = 1; id <= kMany; ++id) {
    res_i[id] = v.expected_token(id, chal);
  }

  using Partition = std::vector<std::vector<net::NodeId>>;
  std::vector<Partition> partitions;
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    Partition parts(1 + rng.next_below(6));
    for (net::NodeId id = 1; id <= kMany; ++id) {
      parts[rng.next_below(parts.size())].push_back(id);
    }
    for (auto& part : parts) std::shuffle(part.begin(), part.end(), rng);
    parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                     rng.next_below(parts.size() + 1)),
                 std::vector<net::NodeId>{});
    partitions.push_back(std::move(parts));
  }
  const net::Tree tree = net::balanced_kary_tree(kMany, 2);
  for (const std::uint32_t shards : {1u, 3u, 8u}) {
    sim::SimConfig placement;
    placement.shards = shards;
    const swarm::SwarmRuntime rt(tree, placement, net::LinkParams{},
                                 [](const net::Message&) {},
                                 [](const fault::FaultEvent&) {});
    Partition parts;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto run = rt.entities_of(s, 1);  // Vrf, entity 0, sweeps none
      parts.emplace_back(run.begin(), run.end());
    }
    partitions.push_back(std::move(parts));
  }

  for (std::size_t p = 0; p < partitions.size(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    Bytes folded(ts, 0);
    Bytes table(std::size_t{kMany} * ts, 0);
    std::uint64_t cost = 0;
    for (const auto& part : partitions[p]) {
      Bytes res_s(ts, 0);
      const std::uint64_t before = crypto::compression_calls_executed();
      v.sweep(part, chal, res_s, table.data());
      cost += crypto::compression_calls_executed() - before;
      xor_inplace(folded, res_s);
    }
    EXPECT_EQ(folded, whole);
    EXPECT_EQ(cost, whole_cost);
    for (net::NodeId id = 1; id <= kMany; ++id) {
      ASSERT_EQ(Bytes(table.begin() + (id - 1) * ts,
                      table.begin() + id * ts),
                res_i[id])
          << "id " << id;
    }
  }
}

}  // namespace
}  // namespace cra::sap
