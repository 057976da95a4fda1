// Crash-safety contract tests for the wire journal: CRC framing,
// torn-tail replay, atomic snapshots, VerifierState replay idempotence,
// and the every-byte-offset crash-point property — a WAL cut anywhere
// must replay a strict prefix and never resurrect an uncommitted
// record.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "wire/journal.hpp"
#include "journal_samples.hpp"

namespace cra::wire {
namespace {

using samples::kTok;
using samples::Record;
using samples::replay_stream;
using samples::sample_stream;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/cra_journal_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (const std::string& f : files_) ::unlink(f.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string path(const std::string& name) {
    const std::string p = dir_ + "/" + name;
    files_.push_back(p);
    files_.push_back(p + ".tmp");  // snapshot staging file
    return p;
  }

  static Bytes read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    Bytes out;
    char c;
    while (in.get(c)) out.push_back(static_cast<std::uint8_t>(c));
    return out;
  }

  static void write_file(const std::string& p, BytesView data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  static std::uint64_t file_size(const std::string& p) {
    struct stat st{};
    EXPECT_EQ(::stat(p.c_str(), &st), 0);
    return static_cast<std::uint64_t>(st.st_size);
  }

  std::string dir_;
  std::vector<std::string> files_;
};

std::vector<Record> replay_all(const std::string& p,
                               Journal::OpenStats* stats = nullptr) {
  std::vector<Record> got;
  Journal j = Journal::open(
      p,
      [&](std::uint8_t kind, BytesView payload) {
        got.emplace_back(kind, Bytes(payload.begin(), payload.end()));
      },
      stats);
  return got;
}

TEST_F(JournalTest, Crc32KnownAnswer) {
  // The canonical IEEE 802.3 check value for "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32_ieee(data), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee(BytesView{}), 0u);
}

TEST_F(JournalTest, EmptyFileReplaysNothing) {
  const std::string p = path("empty.wal");
  Journal::OpenStats stats;
  const auto got = replay_all(p, &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(file_size(p), 0u);
}

TEST_F(JournalTest, WalRoundTrip) {
  const std::string p = path("trip.wal");
  {
    Journal j = Journal::open(p, {});
    j.append(1, to_bytes("alpha"));
    j.append(2, to_bytes(""));
    j.append(7, to_bytes("a longer payload with some bytes"));
    j.sync();
  }
  Journal::OpenStats stats;
  const auto got = replay_all(p, &stats);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 1u);
  EXPECT_EQ(got[0].second, to_bytes("alpha"));
  EXPECT_EQ(got[1].first, 2u);
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_EQ(got[2].first, 7u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(JournalTest, TornTailIsTruncatedNotFatal) {
  const std::string p = path("torn.wal");
  {
    Journal j = Journal::open(p, {});
    j.append(1, to_bytes("committed"));
    j.sync();
  }
  const std::uint64_t committed = file_size(p);
  {
    // A crash mid-append: header promises more bytes than exist.
    std::ofstream out(p, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x12, 0x34};
    out.write(torn, sizeof torn);
  }
  Journal::OpenStats stats;
  const auto got = replay_all(p, &stats);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, to_bytes("committed"));
  EXPECT_EQ(stats.truncated_bytes, 6u);
  // The tail is gone for good: a second open sees a clean file.
  EXPECT_EQ(file_size(p), committed);
  Journal::OpenStats again;
  replay_all(p, &again);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST_F(JournalTest, BitFlipStopsReplayAtTheFlippedRecord) {
  const std::string p = path("flip.wal");
  {
    Journal j = Journal::open(p, {});
    j.append(1, to_bytes("first"));
    j.append(2, to_bytes("second"));
    j.append(3, to_bytes("third"));
    j.sync();
  }
  Bytes raw = read_file(p);
  // Record layout: len(4) || crc(4) || kind(1) || payload. Flip a
  // payload byte of the SECOND record.
  const std::size_t second_payload = (8 + 1 + 5) + 8 + 1;
  ASSERT_LT(second_payload, raw.size());
  raw[second_payload] ^= 0x01;
  write_file(p, raw);

  Journal::OpenStats stats;
  const auto got = replay_all(p, &stats);
  ASSERT_EQ(got.size(), 1u);  // third is unreachable behind the damage
  EXPECT_EQ(got[0].second, to_bytes("first"));
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(file_size(p), 8u + 1u + 5u);
}

TEST_F(JournalTest, OversizedLengthIsGarbageNotAnAllocation) {
  const std::string p = path("huge.wal");
  Bytes raw;
  append_u32le(raw, 0xFFFFFFFFu);  // len far beyond kMaxRecord
  append_u32le(raw, 0xdeadbeefu);
  raw.push_back(0x55);
  write_file(p, raw);
  Journal::OpenStats stats;
  const auto got = replay_all(p, &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.truncated_bytes, 9u);
  EXPECT_EQ(file_size(p), 0u);
}

TEST_F(JournalTest, ResetDropsEverything) {
  const std::string p = path("reset.wal");
  {
    Journal j = Journal::open(p, {});
    j.append(1, to_bytes("gone"));
    j.sync();
    EXPECT_GT(j.size_bytes(), 0u);
    j.reset();
    EXPECT_EQ(j.size_bytes(), 0u);
  }
  EXPECT_TRUE(replay_all(p).empty());
  EXPECT_EQ(file_size(p), 0u);
}

TEST_F(JournalTest, SnapshotRoundTrip) {
  const std::string p = path("state.snap");
  const Bytes payload = to_bytes("snapshot payload bytes");
  ASSERT_TRUE(write_snapshot_file(p, payload));
  const auto got = read_snapshot_file(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(JournalTest, MissingTruncatedAndCorruptSnapshotsReadAsAbsent) {
  const std::string p = path("bad.snap");
  EXPECT_FALSE(read_snapshot_file(p).has_value());  // missing

  const Bytes payload = to_bytes("some snapshot payload");
  ASSERT_TRUE(write_snapshot_file(p, payload));
  Bytes raw = read_file(p);

  Bytes cut(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(
                             raw.size() - 3));
  write_file(p, cut);
  EXPECT_FALSE(read_snapshot_file(p).has_value());  // truncated

  Bytes flipped = raw;
  flipped[flipped.size() - 1] ^= 0x80;
  write_file(p, flipped);
  EXPECT_FALSE(read_snapshot_file(p).has_value());  // bit-flipped

  write_file(p, raw);
  EXPECT_TRUE(read_snapshot_file(p).has_value());  // intact again
}

// --- VerifierState replay semantics ---

TEST_F(JournalTest, VerifierStateEncodeDecodeDigest) {
  const VerifierState st = replay_stream(sample_stream());
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.tick, 2u);
  EXPECT_TRUE(st.round_open);
  EXPECT_EQ(st.repoll_attempt, 1u);
  EXPECT_EQ(st.agents.size(), 2u);
  EXPECT_EQ(st.report_count(kTok), 5u);

  const Bytes enc = st.encode(kTok);
  const auto back = VerifierState::decode(enc, kTok);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->encode(kTok), enc);
  EXPECT_EQ(back->digest64(kTok), st.digest64(kTok));
  EXPECT_EQ(back->digest(kTok), st.digest(kTok));

  // Truncated payloads must decode as absent, never throw.
  for (const std::size_t cut : {std::size_t{0}, enc.size() / 2,
                                enc.size() - 1}) {
    EXPECT_FALSE(VerifierState::decode(BytesView(enc.data(), cut), kTok)
                     .has_value());
  }
}

TEST_F(JournalTest, SnapshotWhoseBitmapDisagreesWithItsReportsIsRejected) {
  // The daemon counts coverage from the report list and re-polls from
  // the bitmap: a device marked covered without a report would never be
  // re-polled and would close the round unreachable.
  const VerifierState st = replay_stream(sample_stream());
  ASSERT_TRUE(st.round_open);
  ASSERT_EQ(st.report_count(kTok), 5u);  // ids 1..5 of 8
  const Bytes enc = st.encode(kTok);
  ASSERT_TRUE(VerifierState::decode(enc, kTok).has_value());

  // Canonical layout: 21 fixed bytes, 22 per agent, the bitmap, the
  // report count, then the reports sorted by id.
  const std::size_t have_at = 21 + st.agents.size() * 22;
  const std::size_t reports_at = have_at + st.devices + 4;
  const std::size_t entry = 9 + kTok;
  const auto edited = [&](std::size_t at, std::uint8_t value) {
    Bytes b = enc;
    b[at] = value;
    return VerifierState::decode(b, kTok);
  };
  EXPECT_FALSE(edited(have_at + 5, 1).has_value());  // 6 covered, no report
  EXPECT_FALSE(edited(have_at + 2, 0).has_value());  // 3 reported, uncovered
  EXPECT_FALSE(edited(have_at, 2).has_value());      // neither 0 nor 1
  EXPECT_FALSE(edited(reports_at + entry, 1).has_value());  // id 1 twice
  EXPECT_FALSE(edited(reports_at, 9).has_value());   // beyond the swarm
  EXPECT_FALSE(edited(reports_at, 0).has_value());   // id 0
}

TEST_F(JournalTest, ReportWithUndefinedStatusIsRejected) {
  // decode_identify_ex rejects a frame with a status byte above
  // kEntryRebooted. Replay must too: an accepted entry would cover its
  // device, so it is never re-polled, while the appraisal gives it no
  // verdict and it closes the round unreachable.
  std::vector<samples::Record> recs = sample_stream();
  recs.resize(6);  // up to round 2's start
  std::vector<sap::DeviceReport> reps = {samples::make_report(1, 2),
                                         samples::make_report(2, 2)};
  const Bytes ok =
      VerifierState::encode_reports(2, reps.data(), reps.size(), kTok);
  Bytes bad = ok;
  bad[8 + (9 + kTok) + 4] = 7;  // device 2's status byte
  VerifierState st = replay_stream(recs);
  st.apply(VerifierState::kReports, bad, kTok);
  EXPECT_TRUE(st.reports.empty());
  EXPECT_EQ(st.have[0], 0);  // the whole record, as a frame
  EXPECT_EQ(st.have[1], 0);
  st.apply(VerifierState::kReports, ok, kTok);
  EXPECT_EQ(st.report_count(kTok), 2u);
  EXPECT_EQ(st.have[1], 1);

  // The snapshot of that state, with device 2's entry edited to 7.
  const Bytes enc = st.encode(kTok);
  ASSERT_TRUE(VerifierState::decode(enc, kTok).has_value());
  const std::size_t reports_at = 21 + st.agents.size() * 22 + st.devices + 4;
  Bytes edited = enc;
  edited[reports_at + (9 + kTok) + 4] = 7;
  EXPECT_FALSE(VerifierState::decode(edited, kTok).has_value());
  edited[reports_at + (9 + kTok) + 4] = 3;  // kEntryRebooted is defined
  EXPECT_TRUE(VerifierState::decode(edited, kTok).has_value());
}

TEST_F(JournalTest, ReportRecordAndSnapshotBytesAreKnownAnswers) {
  // A kReports record and an open round's snapshot, byte for byte, with
  // an entry of every status: the entry format may move between modules
  // only if these bytes stay. The record keeps arrival order; the
  // snapshot sorts by id.
  using S = sap::DeviceReportStatus;
  std::vector<sap::DeviceReport> reps = {
      samples::make_report(5, 4), samples::make_report(2, 4),
      samples::make_report(6, 0), samples::make_report(3, 9)};
  reps[0].status = S::kEntryRebooted;
  reps[2].status = S::kEntryUnreachable;
  reps[2].token.assign(kTok, 0);
  reps[3].status = S::kEntryLate;
  const std::string record_hex =
      "04000000040000000500000003040000004545454545454545020000000004000000"
      "1e1e1e1e1e1e1e1e0600000002000000000000000000000000030000000109000000"
      "3030303030303030";
  const std::string snapshot_hex =
      "08000000000000000400000001020000000100000001000000080000000b00000000"
      "0000007f00000112340001010001010000040000000200000000040000001e1e1e1e"
      "1e1e1e1e030000000109000000303030303030303005000000030400000045454545"
      "454545450600000002000000000000000000000000";
  const Bytes record =
      VerifierState::encode_reports(4, reps.data(), reps.size(), kTok);
  EXPECT_EQ(to_hex(record), record_hex);

  VerifierState st;
  st.devices = 8;
  st.put_agent({1, 8, 11, 0x0100007Fu, 0x3412});
  ASSERT_TRUE(st.start_round(4));
  st.apply(VerifierState::kReports, from_hex(record_hex), kTok);
  st.note_repoll(4, 2);
  const auto accepted = sap::decode_identify_ex(st.reports, kTok);
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(accepted->size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ((*accepted)[i].id, reps[i].id) << i;
    EXPECT_EQ((*accepted)[i].status, reps[i].status) << i;
    EXPECT_EQ((*accepted)[i].tick, reps[i].tick) << i;
    EXPECT_EQ((*accepted)[i].token, reps[i].token) << i;
  }
  const Bytes snapshot = st.encode(kTok);
  EXPECT_EQ(to_hex(snapshot), snapshot_hex);

  const auto back = VerifierState::decode(from_hex(snapshot_hex), kTok);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->encode(kTok), snapshot);
  EXPECT_EQ(back->digest(kTok), st.digest(kTok));
  EXPECT_EQ(back->have, st.have);
  EXPECT_EQ(back->repoll_attempt, 2u);
  const auto sorted = sap::decode_identify_ex(back->reports, kTok);
  ASSERT_TRUE(sorted.has_value());
  ASSERT_EQ(sorted->size(), reps.size());
  const std::size_t by_id[] = {1, 3, 0, 2};  // ids 2, 3, 5, 6
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const sap::DeviceReport& want = reps[by_id[i]];
    EXPECT_EQ((*sorted)[i].id, want.id) << i;
    EXPECT_EQ((*sorted)[i].status, want.status) << i;
    EXPECT_EQ((*sorted)[i].tick, want.tick) << i;
    EXPECT_EQ((*sorted)[i].token, want.token) << i;
  }
}

TEST_F(JournalTest, ReplayTwiceIsIdempotent) {
  // A crash between snapshot write and WAL reset replays the same
  // records on top of a state that already reflects them.
  const auto recs = sample_stream();
  const VerifierState once = replay_stream(recs);
  VerifierState twice = replay_stream(recs);
  for (const auto& [kind, payload] : recs) twice.apply(kind, payload, kTok);
  EXPECT_EQ(twice.digest64(kTok), once.digest64(kTok));
  EXPECT_EQ(twice.reports.size(), once.reports.size());
  EXPECT_EQ(twice.encode(kTok), once.encode(kTok));
}

TEST_F(JournalTest, CrashPointPropertyEveryByteOffset) {
  // Write the sample stream as a real WAL, then simulate a crash at
  // EVERY byte offset: the cut file must open without throwing, replay
  // a strict prefix of the committed records, and never produce a
  // record that was not fully written.
  const std::string full_path = path("full.wal");
  const auto recs = sample_stream();
  std::vector<std::uint64_t> boundaries{0};  // file size after k records
  {
    Journal j = Journal::open(full_path, {});
    for (const auto& [kind, payload] : recs) {
      j.append(kind, payload);
      boundaries.push_back(j.size_bytes());
    }
    j.sync();
  }
  const Bytes raw = read_file(full_path);
  ASSERT_EQ(raw.size(), boundaries.back());

  const std::string cut_path = path("cut.wal");
  for (std::size_t cut = 0; cut <= raw.size(); ++cut) {
    write_file(cut_path, BytesView(raw.data(), cut));
    std::vector<Record> got;
    ASSERT_NO_THROW({
      Journal j = Journal::open(
          cut_path, [&](std::uint8_t kind, BytesView payload) {
            got.emplace_back(kind, Bytes(payload.begin(), payload.end()));
          });
    }) << "cut at byte " << cut;

    // Expected: exactly the records whose bytes lie fully inside `cut`.
    std::size_t committed = 0;
    while (committed + 1 < boundaries.size() &&
           boundaries[committed + 1] <= cut) {
      ++committed;
    }
    ASSERT_EQ(got.size(), committed) << "cut at byte " << cut;
    for (std::size_t i = 0; i < committed; ++i) {
      EXPECT_EQ(got[i].first, recs[i].first) << "cut at byte " << cut;
      EXPECT_EQ(got[i].second, recs[i].second) << "cut at byte " << cut;
    }
    // And the torn tail was removed: the file now ends on a boundary.
    EXPECT_EQ(file_size(cut_path), boundaries[committed])
        << "cut at byte " << cut;
  }
}

TEST_F(JournalTest, NextAgentEpochIncrementsAcrossRestarts) {
  const std::string p = path("agent.epoch");
  EXPECT_EQ(next_agent_epoch(p), 1u);
  EXPECT_EQ(next_agent_epoch(p), 2u);
  EXPECT_EQ(next_agent_epoch(p), 3u);
  {
    // A torn tail (crash mid-append) must not roll the epoch backwards.
    std::ofstream out(p, std::ios::binary | std::ios::app);
    const char torn[] = {0x10, 0x00};
    out.write(torn, sizeof torn);
  }
  EXPECT_EQ(next_agent_epoch(p), 4u);
}

}  // namespace
}  // namespace cra::wire
