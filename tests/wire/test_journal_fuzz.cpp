// Seeded-mutation fuzzing of the journal and snapshot decoders.
//
// Inputs are the valid encodings the journal suite builds — the sample
// WAL stream, the junk-payload stream of its round-trip test, and the
// snapshots of replayed states — mutated by fuzz::mutate
// (tests/common/fuzz_mutate.hpp): bit flips, truncations, splices and
// length-field edits drawn from fixed-seed Rngs, so every run checks the
// same cases and a failure names its seed and iteration. Under ASan (the
// sanitize CI job) an over-read fails the run.
//
// The WAL is fuzzed at two levels:
//   * bytes of the file, the damage a torn write or a bad disk does.
//     CRC framing reduces it to a prefix of the original records, so
//     every property holds, replay-twice included.
//   * records re-framed with a valid CRC, which reach every apply()
//     parser. An edit can move a record ahead of its round's start (a
//     tick rewritten upwards): a WAL the daemon never writes, where a
//     second pass over the same records can act where the first did
//     not, so this level checks everything except replay-twice.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "common/rng.hpp"
#include "journal_samples.hpp"
#include "wire/journal.hpp"

namespace cra::wire {
namespace {

using fuzz::mutate;
using samples::kTok;
using samples::Record;
using samples::sample_stream;

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterations = 400;
constexpr std::uint32_t kDevices = 8;  // the sample deployment's size

class JournalFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/cra_journal_fuzz.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (const std::string& f : {wal(), snap(), snap() + ".tmp"}) {
      ::unlink(f.c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string wal() const { return dir_ + "/fuzz.wal"; }
  std::string snap() const { return dir_ + "/fuzz.snap"; }

  std::string dir_;
};

void write_file(const std::string& p, BytesView data) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

Bytes read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// `recs` framed into `path` by Journal itself; returns the file bytes.
Bytes frame(const std::string& path, const std::vector<Record>& recs) {
  ::unlink(path.c_str());
  {
    Journal j = Journal::open(path, {});
    for (const auto& [kind, payload] : recs) j.append(kind, payload);
  }
  return read_file(path);
}

/// Offsets of the record length fields in well-framed WAL bytes.
std::vector<std::size_t> record_offsets(const Bytes& wal) {
  std::vector<std::size_t> at;
  for (std::size_t pos = 0; pos + 8 <= wal.size();
       pos += 8 + read_u32le(wal, pos)) {
    at.push_back(pos);
  }
  return at;
}

/// Replay `path` on top of `st` as recovery does. No IO fails here, so
/// no exception may escape.
void replay(const std::string& path, VerifierState& st) {
  try {
    Journal j = Journal::open(path, [&](std::uint8_t kind, BytesView p) {
      st.apply(kind, p, kTok);
    });
  } catch (const std::exception& e) {
    ADD_FAILURE() << "replay threw: " << e.what();
  }
}

VerifierState fresh_state() {
  VerifierState st;
  st.devices = kDevices;
  return st;
}

/// The canonical-form property: every report carries a status the
/// appraisal defines, a state's encoding decodes, and the decoded state
/// encodes to the same bytes.
void expect_canonical(const VerifierState& st, const std::string& where) {
  EXPECT_TRUE(VerifierState::report_codec(kTok).well_formed(st.reports))
      << where;
  const Bytes enc = st.encode(kTok);
  const auto back = VerifierState::decode(enc, kTok);
  ASSERT_TRUE(back.has_value()) << where;
  EXPECT_EQ(back->encode(kTok), enc) << where;
}

std::string where(std::uint64_t seed, int iteration) {
  return "seed " + std::to_string(seed) + " iteration " +
         std::to_string(iteration);
}

TEST_F(JournalFuzz, DamagedWalReplaysToACanonicalIdempotentState) {
  const std::vector<Bytes> corpus = {
      frame(wal(), sample_stream()),
      frame(wal(), {{1, to_bytes("alpha")},
                    {2, to_bytes("")},
                    {7, to_bytes("a longer payload with some bytes")}})};
  const std::vector<std::size_t> fields[] = {record_offsets(corpus[0]),
                                             record_offsets(corpus[1])};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const std::size_t pick = rng.next_below(corpus.size());
      write_file(wal(), mutate(rng, corpus[pick], corpus, fields[pick]));
      VerifierState once = fresh_state();
      replay(wal(), once);
      expect_canonical(once, where(seed, i));
      // A crash between snapshot write and WAL reset replays the same
      // file over the state it already produced.
      VerifierState twice = once;
      replay(wal(), twice);
      EXPECT_EQ(twice.encode(kTok), once.encode(kTok)) << where(seed, i);
    }
  }
}

TEST_F(JournalFuzz, EditedRecordsReplayToACanonicalState) {
  const std::vector<Record> base = sample_stream();
  std::vector<Bytes> payloads;
  for (const auto& rec : base) payloads.push_back(rec.second);
  // Every record kind keeps a tick, first id or count in its first two
  // 32-bit fields; kReports's second one is its entry count.
  const std::vector<std::size_t> fields = {0, 4};
  std::size_t rounds_left_open = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      std::vector<Record> recs = base;
      const std::uint64_t edits = 1 + rng.next_below(3);
      for (std::uint64_t e = 0; e < edits; ++e) {
        Record& rec = recs[rng.next_below(recs.size())];
        switch (rng.next_below(4)) {
          case 0:
            rec.first = static_cast<std::uint8_t>(rng.next_below(8));
            break;
          case 1:
            recs.push_back(rec);  // a replayed duplicate, out of order
            break;
          default:
            rec.second = mutate(rng, rec.second, payloads, fields);
            break;
        }
      }
      (void)frame(wal(), recs);
      VerifierState st = fresh_state();
      replay(wal(), st);
      expect_canonical(st, where(seed, i));
      if (st.round_open) ++rounds_left_open;
    }
  }
  // The edits must leave the parsers real work, not only rejections.
  EXPECT_GT(rounds_left_open, 0u);
}

TEST_F(JournalFuzz, MutatedSnapshotsDecodeCanonicallyOrNotAtAll) {
  const std::vector<Record> stream = sample_stream();
  const VerifierState open = samples::replay_stream(stream);
  const VerifierState closed = samples::replay_stream(
      std::vector<Record>(stream.begin(), stream.begin() + 5));
  const std::vector<Bytes> corpus = {open.encode(kTok), closed.encode(kTok),
                                     fresh_state().encode(kTok)};
  // devices, the agent count, and the open round's report count.
  const std::vector<std::size_t> fields = {
      0, 17, 21 + open.agents.size() * 22 + kDevices};
  std::vector<Bytes> files;
  for (const Bytes& payload : corpus) {
    ASSERT_TRUE(write_snapshot_file(snap(), payload));
    files.push_back(read_file(snap()));
  }
  const std::vector<std::size_t> file_fields = {5};  // the payload length
  std::size_t accepted = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes payload = mutate(
          rng, corpus[rng.next_below(corpus.size())], corpus, fields);
      if (const auto st = VerifierState::decode(payload, kTok)) {
        ++accepted;
        expect_canonical(*st, where(seed, i));
      }
      write_file(snap(), mutate(rng, files[rng.next_below(files.size())],
                                files, file_fields));
      if (const auto read = read_snapshot_file(snap())) {
        if (const auto st = VerifierState::decode(*read, kTok)) {
          expect_canonical(*st, where(seed, i));
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace cra::wire
