// SHA-256 known-answer and property tests (FIPS 180-4 vectors).
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "crypto/sha1.hpp"
#include "crypto/tally.hpp"
#include "vectors.hpp"

namespace cra::crypto {
namespace {

/// The digest of `msg` with FIPS 180-4 padding spelled out: message ||
/// 0x80 || zeros || be64(bit length), fed to update() as whole blocks so
/// that finalize() never pads; the chaining value is then the digest.
template <typename H>
std::string spelled_out_digest(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % H::kBlockSize != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  H h;
  h.update(padded);
  Bytes digest;
  for (const std::uint32_t word : h.midstate()) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return to_hex(digest);
}

template <typename H>
void expect_padding_at_every_length() {
  Bytes msg;
  for (std::size_t len = 0; len <= 300; ++len) {
    reset_compression_tally();
    const auto d = H::digest(msg);
    EXPECT_EQ(compression_calls_executed(), H::compression_calls(len)) << len;
    EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
              spelled_out_digest<H>(msg))
        << len;
    msg.push_back(static_cast<std::uint8_t>(len * 7 + 1));
  }
}

// Both hashes share the padding code shape; every tail length of a
// block (including 55/56, where the length field spills into an extra
// block) is covered several times over.
TEST(ShaPadding, Sha1DigestMatchesSpelledOutPaddingAtEveryLength) {
  expect_padding_at_every_length<Sha1>();
}

TEST(ShaPadding, Sha256DigestMatchesSpelledOutPaddingAtEveryLength) {
  expect_padding_at_every_length<Sha256>();
}

TEST(Sha256, KnownAnswerVectors) {
  // FIPS 180-4 + NIST CAVP short-message cases, from the shared table
  // in vectors.hpp (includes a block-straddling 516-bit message).
  for (const auto& v : vectors::kSha256Vectors) {
    const Bytes msg = from_hex(v.msg_hex);
    const auto d = Sha256::digest(msg);
    EXPECT_EQ(to_hex(BytesView(d.data(), d.size())), v.digest_hex);
  }
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finalize();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = to_bytes("collective remote attestation of IoT swarms");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finalize(), Sha256::digest(msg)) << "split=" << split;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  // A minimal sanity sweep: flipping any single byte changes the digest.
  Bytes msg = to_bytes("base message for bit-flip sweep");
  const auto base = Sha256::digest(msg);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    Bytes flipped = msg;
    flipped[i] = static_cast<std::uint8_t>(flipped[i] ^ 0x01);
    EXPECT_NE(Sha256::digest(flipped), base) << "byte " << i;
  }
}

TEST(Sha256, CompressionCallCount) {
  EXPECT_EQ(Sha256::compression_calls(0), 1u);
  EXPECT_EQ(Sha256::compression_calls(55), 1u);
  EXPECT_EQ(Sha256::compression_calls(56), 2u);
  EXPECT_EQ(Sha256::compression_calls(64), 2u);
}

}  // namespace
}  // namespace cra::crypto
