// Seeded-mutation fuzzing of the wire's inbound decoders: the verifier
// daemon's, then the agent's.
//
// A datagram reaches the daemon's round through decode_frame, then the
// identify codec's well_formed (kTokens) or decode_hello (kHello), then
// VerifierState::accept_reports and the round's Appraisal of the
// appended entries — the path handle_tokens and handle_hello take. The
// seed corpus holds an agent's token frames, a frame of hand-built
// entries (late at older, equal and later ticks, rebooted, unreachable,
// ids 0 and N+1), hello frames in both forms, and a token frame one
// entry past the encoder's size cap; fuzz::mutate
// (tests/common/fuzz_mutate.hpp) edits them with fixed seeds. Under
// ASan (the sanitize CI job) an over-read fails the run.
// Properties:
//   * a datagram or payload that decodes re-encodes to its own bytes,
//     so decode(encode(x)) == x;
//   * only ids in [1, N] are accepted, each once, and no other device
//     gets a verdict;
//   * absorbing each frame's accepted entries on arrival gives the
//     Classification that the reference oracle (reference_classify.hpp)
//     gives on all of them, decoded.
//
// A chal frame reaches the agent's answer through decode_frame, then
// decode_chal, decode_want_ranges and AgentCore::token_payloads, the
// path AgentRunner::handle_chal takes. Chal frames carry no
// authentication on the wire. The seed corpus holds a plain challenge,
// re-polls whose want trailers are disjoint, overlapping, repeated or
// outside the agent's range, and a frame one range past the payload
// cap. Properties:
//   * an accepted trailer re-encodes to its own bytes;
//   * the agent answers exactly the wanted ids of its range (all of them
//     without a trailer), each once, at the challenge's tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "../sap/reference_classify.hpp"
#include "common/rng.hpp"
#include "sap/messages.hpp"
#include "sap/verifier.hpp"
#include "wire/agent.hpp"
#include "wire/frame.hpp"
#include "wire/journal.hpp"

namespace cra::wire {
namespace {

using DeviceStatus = sap::Verifier::DeviceStatus;
using fuzz::mutate;

constexpr std::uint32_t kDevices = 64;
constexpr std::uint32_t kTick = 9;
constexpr std::size_t kTok = 20;  // HMAC-SHA1
constexpr std::size_t kContentSize = 64;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterations = 1000;
const char* const kMaster = "frame-fuzz-master";

sap::Verifier make_verifier() {
  sap::SapConfig cfg;
  cfg.qoa = sap::QoaMode::kIdentify;
  sap::Verifier v(cfg, kDevices, to_bytes(kMaster));
  for (std::uint32_t id = 1; id <= kDevices; ++id) {
    v.set_expected_content(
        id, device_content(to_bytes(kMaster), id, kContentSize));
  }
  return v;
}

Bytes frame_of(FrameKind kind, std::uint32_t tick, std::uint32_t seq,
               BytesView payload) {
  FrameHeader h;
  h.kind = kind;
  h.sender = 1;
  h.tick = tick;
  h.seq = seq;
  return encode_frame(h, payload);
}

/// Entries that exercise every verdict rule.
std::vector<sap::DeviceReport> rule_entries(const sap::Verifier& v) {
  using S = sap::DeviceReportStatus;
  const auto entry = [&](std::uint32_t id, S status, std::uint32_t tick) {
    sap::DeviceReport rep;
    rep.id = id;
    rep.status = status;
    rep.tick = tick;
    rep.token = id >= 1 && id <= kDevices ? v.expected_token(id, tick)
                                          : Bytes(kTok, 0x5a);
    return rep;
  };
  std::vector<sap::DeviceReport> out = {
      entry(3, S::kEntryLate, kTick - 2),   // stale: untrusted
      entry(4, S::kEntryLate, kTick),       // judged against the table
      entry(5, S::kEntryLate, kTick + 3),   // computed on demand
      entry(6, S::kEntryRebooted, kTick),
      entry(7, S::kEntryUnreachable, kTick),
      entry(0, S::kEntryOk, kTick),
      entry(kDevices + 1, S::kEntryOk, kTick),
      entry(8, S::kEntryOk, kTick),
  };
  out[4].token.assign(kTok, 0);
  out.back().token[0] ^= 0x01;  // forged
  return out;
}

struct Corpus {
  std::vector<Bytes> frames;
  std::vector<std::size_t> fields;  // 32-bit header and payload fields
};

Corpus make_corpus(const sap::Verifier& v) {
  Corpus c;
  AgentConfig acfg;
  acfg.first_id = 1;
  acfg.count = kDevices;
  acfg.master = to_bytes(kMaster);
  acfg.bad = 1;
  AgentCore agent(acfg);
  std::uint32_t seq = 0;
  for (const Bytes& payload : agent.token_payloads(kTick, {})) {
    c.frames.push_back(frame_of(FrameKind::kTokens, kTick, seq++, payload));
  }
  c.frames.push_back(
      frame_of(FrameKind::kTokens, kTick, seq++,
               sap::encode_identify_ex(rule_entries(v), kTok)));
  const Bytes hello = encode_hello(HelloPayload{1, kDevices, 77});
  c.frames.push_back(frame_of(FrameKind::kHello, 0, seq++, hello));
  c.frames.push_back(frame_of(FrameKind::kHello, 0, seq++,
                              BytesView(hello.data(), 8)));  // legacy
  // A full token frame plus one more entry, with a payload length that
  // matches: longer than any frame the encoder emits, but within the
  // daemon's receive buffer.
  Bytes oversized = c.frames.front();
  const Bytes extra = sap::encode_identify_ex(
      {sap::DeviceReport{kDevices, v.expected_token(kDevices, kTick)}}, kTok);
  oversized.insert(oversized.end(), extra.begin(), extra.end());
  const std::size_t len = oversized.size() - kFrameHeaderSize;
  oversized[18] = static_cast<std::uint8_t>(len);
  oversized[19] = static_cast<std::uint8_t>(len >> 8);
  c.frames.push_back(oversized);
  // sender, tick, seq, and the first entry's id and tick (a hello's
  // first_id and count).
  c.fields = {6, 10, 14, kFrameHeaderSize, kFrameHeaderSize + 4,
              kFrameHeaderSize + 5};
  return c;
}

void expect_same(const sap::Verifier::Classification& got,
                 const sap::Verifier::Classification& want,
                 const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.healthy, want.healthy) << where;
  EXPECT_EQ(got.unreachable, want.unreachable) << where;
  EXPECT_EQ(got.untrusted, want.untrusted) << where;
  EXPECT_EQ(got.rebooted, want.rebooted) << where;
  EXPECT_EQ(got.untrusted_ids, want.untrusted_ids) << where;
  EXPECT_EQ(got.unreachable_ids, want.unreachable_ids) << where;
  EXPECT_EQ(got.rebooted_ids, want.rebooted_ids) << where;
}

std::string where(std::uint64_t seed, int iteration) {
  return "seed " + std::to_string(seed) + " iteration " +
         std::to_string(iteration);
}

/// One datagram through the daemon's inbound path, checking the codec
/// round trips on the way. Returns the number of entries accepted.
std::size_t deliver(const Bytes& datagram, VerifierState& st,
                    sap::Verifier::Appraisal& appraisal,
                    const std::string& at) {
  const auto frame = decode_frame(datagram);
  if (!frame.has_value()) return 0;
  EXPECT_LE(frame->payload.size(), kMaxPayload) << at;
  if (frame->payload.size() > kMaxPayload) return 0;
  EXPECT_EQ(encode_frame(frame->header, frame->payload), datagram) << at;
  const Bytes payload(frame->payload.begin(), frame->payload.end());
  switch (frame->header.kind) {
    case FrameKind::kTokens: {
      const auto reports = sap::decode_identify_ex(payload, kTok);
      EXPECT_EQ(reports.has_value(),
                VerifierState::report_codec(kTok).well_formed(payload))
          << at;
      if (!reports.has_value()) return 0;
      EXPECT_EQ(sap::encode_identify_ex(*reports, kTok), payload) << at;
      if (frame->header.tick != st.tick) return 0;  // a stale frame
      const std::size_t added = st.accept_reports(st.tick, payload, kTok);
      appraisal.absorb(BytesView(st.reports).last(added * (9 + kTok)));
      return added;
    }
    case FrameKind::kHello: {
      const auto hello = decode_hello(payload);
      if (!hello.has_value()) return 0;
      const auto back = decode_hello(encode_hello(*hello));
      EXPECT_TRUE(back.has_value()) << at;
      if (back.has_value()) {
        EXPECT_EQ(back->first_id, hello->first_id) << at;
        EXPECT_EQ(back->count, hello->count) << at;
        EXPECT_EQ(back->epoch, hello->epoch) << at;
      }
      if (payload.size() == 16) {
        EXPECT_EQ(encode_hello(*hello), payload) << at;
      }
      return 0;
    }
    default:
      return 0;
  }
}

TEST(FrameFuzz, MutatedFramesDecodeCanonicallyAndAppraiseAsClassify) {
  const sap::Verifier v = make_verifier();
  const Corpus corpus = make_corpus(v);
  // Every seed but the oversized last one is a frame the daemon takes.
  for (std::size_t i = 0; i < corpus.frames.size(); ++i) {
    EXPECT_EQ(decode_frame(corpus.frames[i]).has_value(),
              i + 1 < corpus.frames.size())
        << "seed frame " << i;
  }
  sap::Verifier::Appraisal appraisal(v, sap::IdentifyFormat::kExtended);
  std::size_t accepted = 0;
  std::uint32_t verdicts_seen[4] = {};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const std::string at = where(seed, i);
      VerifierState st;
      st.devices = kDevices;
      ASSERT_TRUE(st.start_round(kTick));
      appraisal.begin(kTick);
      const std::uint64_t datagrams = 1 + rng.next_below(3);
      for (std::uint64_t d = 0; d < datagrams; ++d) {
        const Bytes& seed_frame =
            corpus.frames[rng.next_below(corpus.frames.size())];
        accepted += deliver(mutate(rng, seed_frame, corpus.frames,
                                   corpus.fields),
                            st, appraisal, at);
      }

      const auto reports = sap::decode_identify_ex(st.reports, kTok);
      ASSERT_TRUE(reports.has_value()) << at;
      std::vector<bool> heard(kDevices + 1, false);
      for (const sap::DeviceReport& rep : *reports) {
        ASSERT_GE(rep.id, 1u) << at;
        ASSERT_LE(rep.id, kDevices) << at;
        EXPECT_FALSE(heard[rep.id]) << at << " id " << rep.id;
        heard[rep.id] = true;
      }
      const sap::Verifier::Classification got = appraisal.finish();
      ASSERT_EQ(got.status.size(), kDevices) << at;
      EXPECT_EQ(got.healthy + got.unreachable + got.untrusted + got.rebooted,
                kDevices)
          << at;
      for (std::uint32_t id = 1; id <= kDevices; ++id) {
        if (!heard[id]) {
          EXPECT_EQ(got.status[id - 1], DeviceStatus::kUnreachable) << at;
        }
        ++verdicts_seen[static_cast<int>(got.status[id - 1])];
      }
      expect_same(got, sap::reference_classify(v, *reports, kTick), at);
    }
  }
  // The mutations must leave the decoders real work, not only rejections.
  EXPECT_GT(accepted, 0u);
  for (const std::uint32_t n : verdicts_seen) EXPECT_GT(n, 0u);
}

constexpr std::uint32_t kAgentFirst = 17;  // ids 17..80
constexpr std::uint32_t kAgentCount = 64;

/// A kChal frame's payload: the challenge, then `want` as its trailer.
Bytes chal_payload(const std::vector<WantRange>& want) {
  Bytes payload = sap::encode_chal(kTick, to_bytes("chal-auth"), kTok);
  append_want_ranges(payload, want);
  return payload;
}

Corpus make_chal_corpus() {
  Corpus c;
  const std::vector<std::vector<WantRange>> trailers = {
      {},                                            // poll everything
      {{17, 5}, {30, 10}, {70, 11}},                 // the daemon's kind
      {{20, 30}, {25, 10}, {1, 100}, {60, 4}},       // overlapping
      std::vector<WantRange>(8, WantRange{17, 64}),  // repeated
      {{50, 4}, {1, 16}, {81, 100}, {0xfffffff0u, 0x20}, {40, 20}},
  };
  std::uint32_t seq = 0;
  for (const auto& want : trailers) {
    c.frames.push_back(
        frame_of(FrameKind::kChal, kTick, seq++, chal_payload(want)));
  }
  // As many ranges as fit, plus one more, with a payload length that
  // matches: over the payload cap, but within the receive buffer.
  const std::size_t fit = (kMaxPayload - kTok) / 8;
  Bytes oversized = frame_of(
      FrameKind::kChal, kTick, seq++,
      chal_payload(std::vector<WantRange>(fit, WantRange{40, 3})));
  append_want_ranges(oversized, {{41, 1}});
  const std::size_t len = oversized.size() - kFrameHeaderSize;
  oversized[18] = static_cast<std::uint8_t>(len);
  oversized[19] = static_cast<std::uint8_t>(len >> 8);
  c.frames.push_back(oversized);
  // sender, tick, seq, the challenge's tick, and the first two ranges.
  const std::size_t ranges = kFrameHeaderSize + kTok;
  c.fields = {6,          10,         14,          kFrameHeaderSize,
              ranges,     ranges + 4, ranges + 8,  ranges + 12};
  return c;
}

struct ChalTally {
  std::size_t trailers = 0;  // accepted chal frames with a trailer
  std::size_t answered = 0;  // entries answered
};

/// One datagram through the agent's inbound path and its answer.
void answer(const Bytes& datagram, AgentCore& agent, ChalTally& tally,
            const std::string& at) {
  const auto frame = decode_frame(datagram);
  if (!frame.has_value() || frame->header.kind != FrameKind::kChal) return;
  ASSERT_LE(frame->payload.size(), kMaxPayload) << at;
  if (frame->payload.size() < kTok) return;  // handle_chal's bad_chal
  const auto chal = sap::decode_chal(frame->payload.subspan(0, kTok), kTok);
  if (!chal.has_value()) return;
  const auto want = decode_want_ranges(frame->payload, kTok);
  if (!want.has_value()) return;
  Bytes again(frame->payload.begin(), frame->payload.begin() + kTok);
  append_want_ranges(again, *want);
  EXPECT_TRUE(std::equal(again.begin(), again.end(), frame->payload.begin(),
                         frame->payload.end()))
      << at;
  tally.trailers += want->empty() ? 0 : 1;

  std::vector<int> times(kAgentCount, 0);
  for (const Bytes& payload : agent.token_payloads(chal->tick, *want)) {
    EXPECT_LE(payload.size(), kMaxPayload) << at;
    const auto entries = sap::decode_identify_ex(payload, kTok);
    ASSERT_TRUE(entries.has_value()) << at;
    for (const sap::DeviceReport& e : *entries) {
      ASSERT_GE(e.id, kAgentFirst) << at;
      ASSERT_LT(e.id - kAgentFirst, kAgentCount) << at;
      EXPECT_EQ(e.tick, chal->tick) << at;
      ++times[e.id - kAgentFirst];
      ++tally.answered;
    }
  }
  for (std::uint32_t i = 0; i < kAgentCount; ++i) {
    const std::uint32_t id = kAgentFirst + i;
    const bool wanted =
        want->empty() ||
        std::any_of(want->begin(), want->end(), [id](const WantRange& r) {
          return id >= r.start && id - r.start < r.count;
        });
    EXPECT_EQ(times[i], wanted ? 1 : 0) << at << " id " << id;
  }
}

TEST(FrameFuzz, MutatedChalFramesAnswerEachWantedIdOnce) {
  const Corpus corpus = make_chal_corpus();
  for (std::size_t i = 0; i < corpus.frames.size(); ++i) {
    EXPECT_EQ(decode_frame(corpus.frames[i]).has_value(),
              i + 1 < corpus.frames.size())
        << "seed frame " << i;
  }
  AgentConfig acfg;
  acfg.first_id = kAgentFirst;
  acfg.count = kAgentCount;
  acfg.master = to_bytes(kMaster);
  AgentCore agent(acfg);
  ChalTally tally;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      const Bytes& seed_frame =
          corpus.frames[rng.next_below(corpus.frames.size())];
      answer(mutate(rng, seed_frame, corpus.frames, corpus.fields), agent,
             tally, where(seed, i));
    }
  }
  // The mutations must leave the decoders real work, not only rejections.
  EXPECT_GT(tally.trailers, 0u);
  EXPECT_GT(tally.answered, 0u);
}

}  // namespace
}  // namespace cra::wire
