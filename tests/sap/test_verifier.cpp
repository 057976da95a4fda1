#include "sap/verifier.hpp"

#include <gtest/gtest.h>

#include <set>

#include "crypto/ct.hpp"

namespace cra::sap {
namespace {

using DeviceStatus = Verifier::DeviceStatus;

SapConfig cfg() {
  SapConfig c;
  c.pmem_size = 1024;
  return c;
}

Verifier make_verifier(std::uint32_t n = 8) {
  Verifier v(cfg(), n, to_bytes("master-secret"));
  for (net::NodeId id = 1; id <= n; ++id) {
    v.set_expected_content(id, to_bytes("cfg-" + std::to_string(id)));
  }
  return v;
}

TEST(Verifier, KeysAreUniqueAndDeterministic) {
  Verifier v = make_verifier();
  std::set<Bytes> keys;
  for (net::NodeId id = 1; id <= 8; ++id) keys.insert(v.device_key(id));
  EXPECT_EQ(keys.size(), 8u);
  EXPECT_EQ(v.device_key(3), make_verifier().device_key(3));
  EXPECT_EQ(v.device_key(1).size(), 20u);  // l/8 for SHA-1
}

TEST(Verifier, ExpectedResultIsXorOfTokens) {
  Verifier v = make_verifier(3);
  const std::uint32_t chal = 55;
  Bytes acc(20, 0);
  for (net::NodeId id = 1; id <= 3; ++id) {
    xor_inplace(acc, v.expected_token(id, chal));
  }
  EXPECT_EQ(v.expected_result(chal), acc);
}

/// The binary verdict: H_S == RES_S, compared in constant time.
bool verify(const Verifier& v, BytesView h_s, std::uint32_t chal) {
  return crypto::ct_equal(h_s, v.expected_result(chal));
}

TEST(Verifier, VerifyAcceptsCorrectAggregate) {
  Verifier v = make_verifier();
  EXPECT_TRUE(verify(v, v.expected_result(9), 9));
}

TEST(Verifier, VerifyRejectsCorruptAggregate) {
  Verifier v = make_verifier();
  Bytes h = v.expected_result(9);
  h[0] = static_cast<std::uint8_t>(h[0] ^ 1);
  EXPECT_FALSE(verify(v, h, 9));
  EXPECT_FALSE(verify(v, Bytes(20, 0), 9));
  EXPECT_FALSE(verify(v, Bytes(19, 0), 9));  // wrong length
}

TEST(Verifier, VerifyIsChallengeSpecific) {
  Verifier v = make_verifier();
  EXPECT_FALSE(verify(v, v.expected_result(9), 10));
}

TEST(Verifier, TokensDependOnContentKeyAndChal) {
  Verifier v = make_verifier();
  EXPECT_NE(v.expected_token(1, 5), v.expected_token(2, 5));  // key+content
  EXPECT_NE(v.expected_token(1, 5), v.expected_token(1, 6));  // chal
  Verifier v2 = make_verifier();
  v2.set_expected_content(1, to_bytes("different"));
  EXPECT_NE(v.expected_token(1, 5), v2.expected_token(1, 5));  // content
}

TEST(Verifier, IdentifyClassification) {
  Verifier v = make_verifier(4);
  std::vector<DeviceReport> reports;
  reports.push_back({1, v.expected_token(1, 3)});       // good
  reports.push_back({2, Bytes(20, 0xff)});              // bad token
  reports.push_back({3, v.expected_token(3, 3)});       // good
  // device 4 missing
  const auto census = v.classify(reports, 3);
  EXPECT_EQ(census.untrusted_ids, std::vector<net::NodeId>{2});
  EXPECT_EQ(census.unreachable_ids, std::vector<net::NodeId>{4});
  EXPECT_EQ(census.healthy, 2u);
  EXPECT_FALSE(census.all_healthy());
}

TEST(Verifier, IdentifyAllGood) {
  Verifier v = make_verifier(3);
  std::vector<DeviceReport> reports;
  for (net::NodeId id = 1; id <= 3; ++id) {
    reports.push_back({id, v.expected_token(id, 7)});
  }
  EXPECT_TRUE(v.classify(reports, 7).all_healthy());
}

TEST(Verifier, IdentifyIgnoresBogusIds) {
  Verifier v = make_verifier(2);
  std::vector<DeviceReport> reports;
  reports.push_back({1, v.expected_token(1, 7)});
  reports.push_back({2, v.expected_token(2, 7)});
  reports.push_back({999, Bytes(20, 0)});  // out-of-range id: ignored
  reports.push_back({0, Bytes(20, 0)});    // Vrf's id: ignored
  EXPECT_TRUE(v.classify(reports, 7).all_healthy());
}

TEST(Verifier, IdentifyLastEntryForADeviceDecides) {
  // A report may carry two entries for one id (a duplicate, or a forged
  // copy beside the real one): the last decides, and the id is listed
  // once either way.
  Verifier v = make_verifier(3);
  const DeviceReport good{2, v.expected_token(2, 7)};
  const DeviceReport bad{2, Bytes(20, 0x5a)};
  const DeviceReport others[] = {{1, v.expected_token(1, 7)},
                                 {3, v.expected_token(3, 7)}};
  auto census = v.classify({others[0], good, others[1], bad}, 7);
  EXPECT_EQ(census.untrusted_ids, std::vector<net::NodeId>{2});
  EXPECT_EQ(census.status[1], DeviceStatus::kUntrusted);
  census = v.classify({bad, others[0], bad, others[1], good}, 7);
  EXPECT_TRUE(census.all_healthy());
  EXPECT_EQ(census.healthy, 3u);
}

TEST(Verifier, InputValidation) {
  EXPECT_THROW(Verifier(cfg(), 0, to_bytes("m")), std::invalid_argument);
  EXPECT_THROW(Verifier(cfg(), 5, {}), std::invalid_argument);
  Verifier v = make_verifier(2);
  EXPECT_THROW(v.device_key(0), std::out_of_range);
  EXPECT_THROW(v.device_key(3), std::out_of_range);
  EXPECT_THROW(v.expected_token(3, 1), std::out_of_range);
}

TEST(Verifier, RequestAuthKeyOnlyWhenEnabled) {
  Verifier off = make_verifier();
  EXPECT_TRUE(off.request_auth_key().empty());
  SapConfig c = cfg();
  c.authenticate_requests = true;
  Verifier on(c, 2, to_bytes("m"));
  EXPECT_EQ(on.request_auth_key().size(), 32u);
}

}  // namespace
}  // namespace cra::sap
