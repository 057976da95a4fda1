// SHA-1 known-answer and property tests (FIPS 180-4 / RFC 3174 vectors).
#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "reference_sha1.hpp"
#include "vectors.hpp"

namespace cra::crypto {
namespace {

std::string sha1_hex(std::string_view msg) {
  const auto d = Sha1::digest(to_bytes(msg));
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(Sha1, KnownAnswerVectors) {
  // FIPS 180-4 / RFC 3174, from the shared table in vectors.hpp.
  for (const auto& v : vectors::kSha1Vectors) {
    const Bytes msg = from_hex(v.msg_hex);
    const auto d = Sha1::digest(msg);
    EXPECT_EQ(to_hex(BytesView(d.data(), d.size())), v.digest_hex);
  }
}

TEST(Sha1, MillionA) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finalize();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  EXPECT_EQ(sha1_hex(std::string(64, 'x')),
            Sha1::digest(to_bytes(std::string(64, 'x'))).size() == 20
                ? sha1_hex(std::string(64, 'x'))
                : "");
  // 55 and 56 bytes straddle the length-field boundary.
  const auto d55 = sha1_hex(std::string(55, 'y'));
  const auto d56 = sha1_hex(std::string(56, 'y'));
  EXPECT_NE(d55, d56);
  EXPECT_EQ(d55.size(), 40u);
}

TEST(Sha1, StreamingMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finalize(), Sha1::digest(msg)) << "split=" << split;
  }
}

TEST(Sha1, ResetReusesObject) {
  Sha1 h;
  h.update(to_bytes("garbage"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  const auto d = h.finalize();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, CompressionCallCount) {
  // <= 55 bytes fits one padded block.
  EXPECT_EQ(Sha1::compression_calls(0), 1u);
  EXPECT_EQ(Sha1::compression_calls(55), 1u);
  EXPECT_EQ(Sha1::compression_calls(56), 2u);
  EXPECT_EQ(Sha1::compression_calls(64), 2u);
  EXPECT_EQ(Sha1::compression_calls(119), 2u);
  EXPECT_EQ(Sha1::compression_calls(120), 3u);
  // The paper's PMEM: 50 KB + 9 pad bytes => 801 blocks.
  EXPECT_EQ(Sha1::compression_calls(50 * 1024), 801u);
}

TEST(Sha1, CompressionMatchesTheReferenceLoop) {
  // Seeded chaining values and blocks: one block of update() on a hash
  // resumed at the chaining value runs one compression, which must
  // leave the chaining value the reference loop does.
  Rng rng(0x5348'4131'6f72'61ULL);
  for (int i = 0; i < 10000; ++i) {
    Sha1::State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    const Bytes block = rng.next_bytes(Sha1::kBlockSize);

    Sha1 h = Sha1::resume(state, Sha1::kBlockSize);
    h.update(block);
    Sha1::State want = state;
    reference_sha1_compress(want, block.data());
    ASSERT_EQ(h.midstate(), want) << "pair " << i;
  }
}

}  // namespace
}  // namespace cra::crypto
