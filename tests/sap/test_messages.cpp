#include "sap/messages.hpp"

#include <gtest/gtest.h>

namespace cra::sap {
namespace {

TEST(ChalCodec, RoundTripUnauthenticated) {
  const Bytes payload = encode_chal(12345, /*auth_key=*/{}, 20);
  EXPECT_EQ(payload.size(), 20u);
  const auto view = decode_chal(payload, 20);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tick, 12345u);
  EXPECT_TRUE(all_zero(view->auth));
  EXPECT_TRUE(chal_authentic(*view, {}));  // auth disabled: always true
}

TEST(ChalCodec, RoundTripAuthenticated) {
  const Bytes key = to_bytes("group-request-key");
  const Bytes payload = encode_chal(777, key, 20);
  const auto view = decode_chal(payload, 20);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tick, 777u);
  EXPECT_FALSE(all_zero(view->auth));
  EXPECT_TRUE(chal_authentic(*view, key));
}

TEST(ChalCodec, WrongKeyRejected) {
  const Bytes payload = encode_chal(777, to_bytes("right-key"), 20);
  const auto view = decode_chal(payload, 20);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(chal_authentic(*view, to_bytes("wrong-key")));
}

TEST(ChalCodec, SpoofedTickRejected) {
  // Adv rewrites the tick but cannot fix the authenticator.
  const Bytes key = to_bytes("k");
  Bytes payload = encode_chal(100, key, 20);
  payload[0] = 99;  // tick -> 99 (little-endian low byte)
  const auto view = decode_chal(payload, 20);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(chal_authentic(*view, key));
}

TEST(ChalCodec, MalformedPayloads) {
  EXPECT_FALSE(decode_chal(Bytes(19, 0), 20).has_value());
  EXPECT_FALSE(decode_chal(Bytes(21, 0), 20).has_value());
  EXPECT_THROW(encode_chal(1, {}, 8), std::invalid_argument);
}

TEST(ChalCodec, LargerSecurityParameter) {
  const Bytes payload = encode_chal(5, {}, 32);  // SHA-256 deployment
  EXPECT_EQ(payload.size(), 32u);
  EXPECT_TRUE(decode_chal(payload, 32).has_value());
}

TEST(IdentifyCodec, RoundTrip) {
  std::vector<DeviceReport> reports;
  for (std::uint32_t id : {1u, 7u, 42u}) {
    reports.push_back({id, Bytes(20, static_cast<std::uint8_t>(id))});
  }
  const Bytes payload = encode_identify(reports, 20);
  EXPECT_EQ(payload.size(), 3 * 24u);
  const auto decoded = decode_identify(payload, 20);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[1].id, 7u);
  EXPECT_EQ((*decoded)[1].token, Bytes(20, 7));
}

TEST(IdentifyCodec, EmptyListIsValid) {
  const Bytes payload = encode_identify({}, 20);
  EXPECT_TRUE(payload.empty());
  const auto decoded = decode_identify(payload, 20);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(IdentifyCodec, RejectsMisalignedPayload) {
  EXPECT_FALSE(decode_identify(Bytes(23, 0), 20).has_value());
  EXPECT_THROW(encode_identify({{1, Bytes(19, 0)}}, 20),
               std::invalid_argument);
}

TEST(IdentifyCodec, EntryReadsEveryFieldInPlace) {
  // The appraisal, the journal and the daemon read entries where they
  // lie: every field comes from the payload, and the token is a view
  // into it.
  const IdentifyCodec extended(IdentifyFormat::kExtended, 20);
  const IdentifyCodec legacy(IdentifyFormat::kLegacy, 20);
  const std::vector<DeviceReport> reports = {
      {1, Bytes(20, 1), DeviceReportStatus::kEntryLate, 9},
      {2, Bytes(20, 2), DeviceReportStatus::kEntryRebooted, 8},
      {3, Bytes(20, 3), DeviceReportStatus::kEntryUnreachable, 0}};
  const Bytes payload = extended.encode(reports);
  ASSERT_EQ(extended.entry_count(payload), 3u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const IdentifyEntry e = extended.entry(payload, i);
    EXPECT_EQ(e.id, reports[i].id);
    EXPECT_EQ(e.status, reports[i].status);
    EXPECT_EQ(e.tick, reports[i].tick);
    EXPECT_EQ(Bytes(e.token.begin(), e.token.end()), reports[i].token);
    EXPECT_EQ(e.token.data(), payload.data() + i * 29 + 9);
  }

  const Bytes two = legacy.encode({{5, Bytes(20, 5)}, {6, Bytes(20, 6)}});
  ASSERT_EQ(legacy.entry_count(two), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const IdentifyEntry e = legacy.entry(two, i);
    EXPECT_EQ(e.id, 5 + i);
    EXPECT_EQ(Bytes(e.token.begin(), e.token.end()),
              Bytes(20, static_cast<std::uint8_t>(5 + i)));
    EXPECT_EQ(e.status, DeviceReportStatus::kEntryOk);
    EXPECT_EQ(e.tick, 0u);
  }

  // The reader's rule decides what reaches entry(): no status 4.
  Bytes bad = payload;
  bad[4] = 4;
  EXPECT_FALSE(extended.well_formed(bad));
  EXPECT_FALSE(extended.decode(bad).has_value());
  EXPECT_FALSE(extended.well_formed(Bytes(30, 0)));
}

TEST(CountCodec, RoundTrip) {
  const Bytes token(20, 0xaa);
  const Bytes payload = encode_count_token(token, 999);
  EXPECT_EQ(payload.size(), 24u);
  const auto decoded = decode_count_token(payload, 20);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->token, token);
  EXPECT_EQ(decoded->count, 999u);
}

TEST(CountCodec, RejectsWrongSize) {
  EXPECT_FALSE(decode_count_token(Bytes(20, 0), 20).has_value());
  EXPECT_FALSE(decode_count_token(Bytes(25, 0), 20).has_value());
}

TEST(QoaNames, AllNamed) {
  EXPECT_STREQ(qoa_name(QoaMode::kBinary), "binary");
  EXPECT_STREQ(qoa_name(QoaMode::kCount), "count");
  EXPECT_STREQ(qoa_name(QoaMode::kIdentify), "identify");
}

}  // namespace
}  // namespace cra::sap
