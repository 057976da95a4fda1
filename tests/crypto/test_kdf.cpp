// HKDF (RFC 5869 test vectors) and per-device key derivation.
#include "crypto/kdf.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/backend.hpp"

namespace cra::crypto {
namespace {

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltAndInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedOutput) {
  const Bytes prk(32, 1);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, ExpandIsPrefixConsistent) {
  const Bytes prk = hkdf_extract({}, to_bytes("ikm"));
  const Bytes long_out = hkdf_expand(prk, to_bytes("ctx"), 64);
  const Bytes short_out = hkdf_expand(prk, to_bytes("ctx"), 20);
  EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 20), short_out);
}

TEST(DeriveDeviceKey, UniquePerDevice) {
  const Bytes master = to_bytes("deployment-master-secret");
  std::set<Bytes> keys;
  for (std::uint32_t id = 1; id <= 200; ++id) {
    keys.insert(derive_device_key(master, id, 20));
  }
  EXPECT_EQ(keys.size(), 200u);  // no collisions across the fleet
}

TEST(DeriveDeviceKey, DeterministicAndLabelSeparated) {
  const Bytes master = to_bytes("m");
  EXPECT_EQ(derive_device_key(master, 5, 20), derive_device_key(master, 5, 20));
  EXPECT_NE(derive_device_key(master, 5, 20),
            derive_device_key(master, 5, 20, "other-label"));
}

TEST(DeriveDeviceKey, RequestedLength) {
  const Bytes master = to_bytes("m");
  EXPECT_EQ(derive_device_key(master, 1, 20).size(), 20u);
  EXPECT_EQ(derive_device_key(master, 1, 32).size(), 32u);
}

// Outputs pinned from the one-shot HKDF loop, before the cached and
// batched expand replaced it: every derivation path must reproduce them.
// HKDF outputs of one info are prefixes of each other, so each row holds
// the 64-byte output and shorter lengths check its prefix.
struct KnownAnswer {
  const char* label;
  std::uint32_t id;
  const char* okm64;
};
const KnownAnswer kKnownAnswers[] = {
    {"sap-device-key", 0u,
     "5a007330610999ac8ecad43dfb3fcf25ba82eb07d62d9f6dfedebc8e0bc67284"
     "50d464fde54f224cf5fdbfc2b538290b4b97085532926015f0e44bcc6bb19884"},
    {"sap-device-key", 1u,
     "2f9de9c838ea5d160f01f78c1959eb848aa4989b685014c94166906df06ea586"
     "0841da12c815e00ecc5bfa0beffea5cbee371e87b9fd291a5c3e2a40d10d910a"},
    {"sap-device-key", 0xFFFFFFFFu,
     "735934b23fc6f8952b480d6dabf37d9a135b3037fc9d7b2a7b639af22f2092c9"
     "248c9de0d3b84cca64dbac6ad5ef08940c3a9a0b5814e79588a23e42a55a91f3"},
    {"sap-firmware", 0u,
     "5f66ad73c8340e4def2e8f7d461caff82bb9975a95538b4a8c15656382c550f1"
     "9996ac01332d51fbba729574e286b4e82039e9f5a3ea4f8eac964608281ff030"},
    {"sap-firmware", 1u,
     "f710b9dd79c6bae0739b52e61dcc275d7f68c97fcad5c3fb59261094bf8060ba"
     "b78947cc17259aebd43feb959a162b629c17095060b9338bec21403e0548482b"},
    {"sap-firmware", 0xFFFFFFFFu,
     "58896c53c625ac4118706d5e643a818d7f79ff324ef348d41b46f0f924cf801c"
     "d8cb8ac898a4ac474f9aa88cea804f90e6c4ffdd924a68a47c269532ec8bcd5f"},
};
const Bytes kKatMaster = to_bytes("kdf-known-answer-master");
constexpr std::size_t kKatLengths[] = {20, 32, 64};

std::string pinned(const KnownAnswer& kat, std::size_t len) {
  return std::string(kat.okm64).substr(0, 2 * len);
}

TEST(DeriveDeviceKey, KnownAnswers) {
  for (const KnownAnswer& kat : kKnownAnswers) {
    for (const std::size_t len : kKatLengths) {
      EXPECT_EQ(to_hex(derive_device_key(kKatMaster, kat.id, len, kat.label)),
                pinned(kat, len))
          << kat.label << " id " << kat.id << " len " << len;
    }
  }
}

TEST(HkdfObject, SingleAndBatchedMatchKnownAnswersOnEveryBackend) {
  const Hkdf kdf(kKatMaster);
  // The pinned ids plus enough others to fill SIMD lanes and to span
  // several chunks, with a partial one at the end.
  std::vector<std::uint32_t> ids = {0, 1, 0xFFFFFFFFu};
  for (std::uint32_t id = 2; id < 600; ++id) ids.push_back(id);
  for (const Backend* backend : available_backends()) {
    ASSERT_TRUE(set_active_backend(backend->name()));
    for (const std::size_t len : kKatLengths) {
      for (const char* label : {"sap-device-key", "sap-firmware"}) {
        std::vector<Bytes> batched;
        kdf.device_keys(ids, len, label, [&](std::uint32_t id, BytesView okm) {
          EXPECT_EQ(id, ids[batched.size()]);
          batched.emplace_back(okm.begin(), okm.end());
        });
        ASSERT_EQ(batched.size(), ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(batched[i], kdf.device_key(ids[i], len, label))
              << backend->name() << " " << label << " id " << ids[i];
        }
        for (const KnownAnswer& kat : kKnownAnswers) {
          if (std::string(kat.label) != label) continue;
          EXPECT_EQ(to_hex(kdf.device_key(kat.id, len, label)),
                    pinned(kat, len))
              << backend->name() << " " << label << " id " << kat.id;
        }
      }
    }
  }
  ASSERT_TRUE(set_active_backend("auto"));
}

TEST(HkdfObject, ExpandMatchesOneShotHkdf) {
  const Bytes ikm = to_bytes("input keying material");
  const Bytes salt = to_bytes("salt");
  const Hkdf kdf(ikm, salt);
  for (const std::size_t len : {0u, 1u, 31u, 32u, 33u, 100u, 255u * 32u}) {
    EXPECT_EQ(kdf.expand(to_bytes("info"), len),
              hkdf(ikm, salt, to_bytes("info"), len))
        << len;
  }
  EXPECT_EQ(Hkdf::from_prk(hkdf_extract(salt, ikm)).expand({}, 42),
            hkdf(ikm, salt, {}, 42));
  EXPECT_THROW((void)kdf.expand({}, 255 * 32 + 1), std::invalid_argument);
  EXPECT_THROW(kdf.device_keys(std::vector<std::uint32_t>{1}, 255 * 32 + 1,
                               "l", [](std::uint32_t, BytesView) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cra::crypto
