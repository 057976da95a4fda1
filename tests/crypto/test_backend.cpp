// Backend-equivalence suite: every registered crypto backend must be
// digest- and tally-identical to the scalar reference.
//
// Covers: NIST CAVP SHA-256 vectors (FIPS 180-4 examples + CAVP
// short-message cases), RFC 2202 / RFC 4231 HMAC vectors, batch-vs-serial
// equivalence at sizes that are not a multiple of the lane width, mixed
// message lengths in one batch (exercises the grouping + remainder
// paths), and runtime dispatch (forcing scalar on a SIMD machine yields
// identical tokens).
#include "crypto/backend.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/mac_cache.hpp"
#include "crypto/sha_mb.hpp"
#include "crypto/tally.hpp"
#include "vectors.hpp"

namespace cra::crypto {
namespace {

using vectors::kMacVectors;
using vectors::kSha1Vectors;
using vectors::kSha256Vectors;

/// Restores the process-wide active backend after each test.
class BackendTest : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_TRUE(set_active_backend("auto")); }
};

Bytes random_bytes(Rng& rng, std::size_t n) { return rng.next_bytes(n); }

void expect_hmac_batch_matches_serial(const Backend& backend, HashAlg alg,
                                      std::size_t n,
                                      const std::vector<std::size_t>& lens) {
  Rng rng(0xba7c4 + n);
  std::vector<Bytes> keys(n), prefixes(n), suffixes(n);
  std::vector<PrecomputedMac> macs(n);
  std::vector<MacJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = random_bytes(rng, 16 + i % 23);
    prefixes[i] = random_bytes(rng, lens[i % lens.size()]);
    suffixes[i] = random_bytes(rng, i % 9);
    macs[i].init(alg, keys[i]);
    jobs[i] = MacJob{&macs[i], prefixes[i], suffixes[i]};
  }
  std::vector<MacBuf> got(n);
  backend.hmac_batch(jobs.data(), n, got.data());
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes want = macs[i].mac(prefixes[i], suffixes[i]);
    ASSERT_EQ(to_hex(got[i].view()), to_hex(want))
        << backend.name() << " job " << i << " len " << prefixes[i].size();
  }
}

TEST_F(BackendTest, ScalarAlwaysRegistered) {
  const auto& all = available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front()->name(), "scalar");
  EXPECT_EQ(backend_by_name("scalar"), &scalar_backend());
  EXPECT_EQ(backend_by_name("no-such-backend"), nullptr);
  EXPECT_EQ(scalar_backend().lanes(HashAlg::kSha1), 1u);
  EXPECT_EQ(scalar_backend().lanes(HashAlg::kSha256), 1u);
}

TEST_F(BackendTest, Sha256CavpVectorsAllBackends) {
  for (const Backend* backend : available_backends()) {
    for (const auto& v : kSha256Vectors) {
      const Bytes msg = from_hex(v.msg_hex);
      // Replicate across more jobs than the lane width so the SIMD
      // groups actually engage (a singleton would fall back to scalar).
      const std::size_t n = backend->lanes(HashAlg::kSha256) * 2 + 1;
      std::vector<BytesView> msgs(n, BytesView(msg));
      std::vector<Sha256::Digest> got(n);
      backend->sha256_batch(msgs.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(to_hex(got[i]), v.digest_hex) << backend->name();
      }
    }
  }
}

TEST_F(BackendTest, Sha1VectorsAllBackends) {
  for (const Backend* backend : available_backends()) {
    for (const auto& v : kSha1Vectors) {
      const Bytes msg = from_hex(v.msg_hex);
      const std::size_t n = backend->lanes(HashAlg::kSha1) * 2 + 1;
      std::vector<BytesView> msgs(n, BytesView(msg));
      std::vector<Sha1::Digest> got(n);
      backend->sha1_batch(msgs.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(to_hex(got[i]), v.digest_hex) << backend->name();
      }
    }
  }
}

TEST_F(BackendTest, Rfc4231HmacSha256VectorsAllBackends) {
  for (const Backend* backend : available_backends()) {
    for (const auto& v : kMacVectors) {
      if (v.sha256_hex[0] == '\0') continue;
      const Bytes key = from_hex(v.key_hex);
      const Bytes msg = from_hex(v.msg_hex);
      const std::string want(v.sha256_hex);
      PrecomputedMac mac(HashAlg::kSha256, key);
      const std::size_t n = backend->lanes(HashAlg::kSha256) * 2;
      std::vector<MacJob> jobs(n, MacJob{&mac, msg, {}});
      std::vector<MacBuf> got(n);
      backend->hmac_batch(jobs.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(to_hex(got[i].view()).substr(0, want.size()), want)
            << backend->name();
      }
    }
  }
}

TEST_F(BackendTest, Rfc2202HmacSha1VectorsAllBackends) {
  for (const Backend* backend : available_backends()) {
    for (const auto& v : kMacVectors) {
      if (v.sha1_hex[0] == '\0') continue;
      const Bytes key = from_hex(v.key_hex);
      const Bytes msg = from_hex(v.msg_hex);
      PrecomputedMac mac(HashAlg::kSha1, key);
      const std::size_t n = backend->lanes(HashAlg::kSha1) * 2;
      std::vector<MacJob> jobs(n, MacJob{&mac, msg, {}});
      std::vector<MacBuf> got(n);
      backend->hmac_batch(jobs.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(to_hex(got[i].view()), v.sha1_hex) << backend->name();
      }
    }
  }
}

TEST_F(BackendTest, BatchMatchesSerialAtAwkwardSizes) {
  for (const Backend* backend : available_backends()) {
    for (const HashAlg alg : {HashAlg::kSha1, HashAlg::kSha256}) {
      const std::size_t lanes = backend->lanes(alg);
      // Token-sized messages at batch sizes that are never a multiple
      // of the lane width: 1, lanes-1, lanes+1, and a large batch.
      for (const std::size_t n :
           {std::size_t{1}, lanes > 1 ? lanes - 1 : std::size_t{3},
            lanes + 1, std::size_t{1000}}) {
        expect_hmac_batch_matches_serial(*backend, alg, n, {20});
      }
      // Mixed lengths in one batch: exercises grouping, multi-block
      // streams, and the odd-length scalar remainder together.
      expect_hmac_batch_matches_serial(*backend, alg, 4 * lanes + 3,
                                       {0, 1, 20, 55, 56, 64, 200, 1000});
    }
  }
}

// Degenerate batch sizes through every backend: zero jobs must be a
// no-op (no null-pointer touch, no lane packing on nothing), and a
// single job must take the scalar fallback and still match the serial
// reference. These are the edges the SIMD grouping code special-cases.
TEST_F(BackendTest, ZeroAndOneJobBatchesAllBackends) {
  for (const Backend* backend : available_backends()) {
    for (const HashAlg alg : {HashAlg::kSha1, HashAlg::kSha256}) {
      // n = 0 with null arrays: must return without reading anything.
      backend->hmac_batch(nullptr, 0, nullptr);
      EXPECT_EQ(backend->verify_tokens_batch(nullptr, 0, nullptr), 0u)
          << backend->name();

      // n = 1: exercises the below-lane-width scalar path.
      Rng rng(9);
      const Bytes key = random_bytes(rng, 20);
      PrecomputedMac mac(alg, key);
      const Bytes msg = to_bytes("single-job body");
      MacJob job{&mac, msg, {}};
      MacBuf out;
      backend->hmac_batch(&job, 1, &out);
      EXPECT_EQ(to_hex(out.view()), to_hex(mac.mac(msg))) << backend->name();

      const Bytes token = mac.mac(msg);
      VerifyJob good{&mac, msg, {}, token};
      std::uint8_t ok = 0xff;
      EXPECT_EQ(backend->verify_tokens_batch(&good, 1, &ok), 1u)
          << backend->name();
      EXPECT_EQ(ok, 1u);

      Bytes forged = token;
      forged[0] ^= 0x80;
      VerifyJob bad{&mac, msg, {}, forged};
      EXPECT_EQ(backend->verify_tokens_batch(&bad, 1, &ok), 0u)
          << backend->name();
      EXPECT_EQ(ok, 0u);
    }
  }
}

// Same for the raw digest batches.
TEST_F(BackendTest, ZeroAndOneMessageDigestBatches) {
  for (const Backend* backend : available_backends()) {
    backend->sha1_batch(nullptr, 0, nullptr);
    backend->sha256_batch(nullptr, 0, nullptr);
    const Bytes msg = to_bytes("abc");
    const BytesView view(msg);
    Sha1::Digest d1;
    backend->sha1_batch(&view, 1, &d1);
    EXPECT_EQ(to_hex(d1), "a9993e364706816aba3e25717850c26c9cd0d89d")
        << backend->name();
    Sha256::Digest d256;
    backend->sha256_batch(&view, 1, &d256);
    EXPECT_EQ(to_hex(d256),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << backend->name();
  }
}

TEST_F(BackendTest, VerifyTokensBatch) {
  const Backend& backend = active_backend();
  Rng rng(77);
  const std::size_t n = 4 * backend.lanes(HashAlg::kSha1) + 1;
  std::vector<Bytes> keys(n), msgs(n), tokens(n);
  std::vector<PrecomputedMac> macs(n);
  std::vector<VerifyJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = random_bytes(rng, 20);
    msgs[i] = random_bytes(rng, 24);
    macs[i].init(HashAlg::kSha1, keys[i]);
    tokens[i] = macs[i].mac(msgs[i]);
    if (i % 3 == 0) tokens[i][0] ^= 0x01;  // forge every third token
    jobs[i] = VerifyJob{&macs[i], msgs[i], {}, tokens[i]};
  }
  std::vector<std::uint8_t> ok(n, 0xff);
  const std::size_t matches =
      backend.verify_tokens_batch(jobs.data(), n, ok.data());
  std::size_t want = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ok[i], i % 3 == 0 ? 0 : 1) << i;
    want += i % 3 == 0 ? 0 : 1;
  }
  EXPECT_EQ(matches, want);
}

TEST_F(BackendTest, CompressionTallyBackendInvariant) {
  // The deterministic work counters may not depend on the backend: a
  // vector compress over L lanes counts L logical compressions.
  Rng rng(123);
  const std::size_t n = 257;
  std::vector<Bytes> keys(n), prefixes(n);
  std::vector<PrecomputedMac> macs(n);
  std::vector<MacJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = random_bytes(rng, 20);
    prefixes[i] = random_bytes(rng, i % 5 == 0 ? 200 : 20);
    macs[i].init(HashAlg::kSha1, keys[i]);
    jobs[i] = MacJob{&macs[i], prefixes[i], {}};
  }
  std::vector<MacBuf> out(n);
  std::vector<std::uint64_t> counts;
  for (const Backend* backend : available_backends()) {
    reset_compression_tally();
    backend->hmac_batch(jobs.data(), n, out.data());
    counts.push_back(compression_calls_executed());
  }
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0])
        << available_backends()[i]->name() << " vs scalar";
  }
}

TEST_F(BackendTest, RuntimeDispatchForcedScalarIdenticalTokens) {
  // Forcing scalar on a SIMD-capable machine must produce the exact
  // same tokens the auto-dispatched backend does.
  Rng rng(2026);
  const std::size_t n = 100;
  std::vector<Bytes> keys(n), msgs(n);
  std::vector<PrecomputedMac> macs(n);
  std::vector<MacJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = random_bytes(rng, 20);
    msgs[i] = random_bytes(rng, 24);
    macs[i].init(HashAlg::kSha1, keys[i]);
    jobs[i] = MacJob{&macs[i], msgs[i], {}};
  }
  ASSERT_TRUE(set_active_backend("auto"));
  std::vector<MacBuf> auto_out(n);
  active_backend().hmac_batch(jobs.data(), n, auto_out.data());

  ASSERT_TRUE(set_active_backend("scalar"));
  EXPECT_STREQ(active_backend().name(), "scalar");
  std::vector<MacBuf> scalar_out(n);
  active_backend().hmac_batch(jobs.data(), n, scalar_out.data());

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(to_hex(auto_out[i].view()), to_hex(scalar_out[i].view())) << i;
  }
  EXPECT_FALSE(set_active_backend("no-such-backend"));
  EXPECT_STREQ(active_backend().name(), "scalar");  // unchanged on failure
}

#if defined(__x86_64__) || defined(_M_X64)
/// The padded stream of `msg` after `absorbed` bytes: msg || 0x80 ||
/// zeros || the 64-bit big-endian bit length of absorbed + msg.
Bytes padded(BytesView msg, std::size_t absorbed) {
  Bytes out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = (absorbed + msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return out;
}

/// Digest bytes of lane l from word-major kernel state.
Bytes lane_digest(const std::uint32_t* words, std::size_t lanes,
                  std::size_t l, std::size_t nwords) {
  Bytes out;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint32_t v = words[w * lanes + l];
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
  return out;
}

template <typename Words>
void load_lane(std::uint32_t* words, std::size_t lanes, std::size_t l,
               const Words& state) {
  for (std::size_t w = 0; w < state.size(); ++w) {
    words[w * lanes + l] = state[w];
  }
}

TEST_F(BackendTest, Sse2KernelsMatchTheScalarReference) {
  // The SIMD backend runs the 8-lane AVX2 kernels wherever AVX2 is
  // present, so the 4-lane SSE2 kernels it falls back to are called
  // directly here: a resumed HMAC of one and two inner blocks per lane,
  // and a plain hash from the IV.
  constexpr std::size_t kLanes = 4;
  Rng rng(4);
  for (const HashAlg alg : {HashAlg::kSha1, HashAlg::kSha256}) {
    const bool sha1 = alg == HashAlg::kSha1;
    const std::size_t nwords = sha1 ? 5 : 8;
    for (const std::size_t len : {24u, 100u}) {
      std::vector<PrecomputedMac> macs(kLanes);
      std::vector<Bytes> msgs(kLanes), streams(kLanes);
      std::uint32_t inner[8 * kLanes], outer[8 * kLanes], out[8 * kLanes];
      const std::uint8_t* blocks[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        macs[l].init(alg, random_bytes(rng, 20));
        msgs[l] = random_bytes(rng, len);
        streams[l] = padded(msgs[l], 64);
        blocks[l] = streams[l].data();
        if (sha1) {
          load_lane(inner, kLanes, l, macs[l].sha1().inner_midstate());
          load_lane(outer, kLanes, l, macs[l].sha1().outer_midstate());
        } else {
          load_lane(inner, kLanes, l, macs[l].sha256().inner_midstate());
          load_lane(outer, kLanes, l, macs[l].sha256().outer_midstate());
        }
      }
      const std::size_t nblocks = streams[0].size() / 64;
      (sha1 ? mb::sha1_hmac_x4_sse2 : mb::sha256_hmac_x4_sse2)(
          inner, outer, blocks, nblocks, out);
      for (std::size_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(to_hex(lane_digest(out, kLanes, l, nwords)),
                  to_hex(macs[l].mac(msgs[l])))
            << (sha1 ? "sha1" : "sha256") << " len " << len << " lane " << l;
      }

      // The hash kernel from each lane's IV over the same messages.
      std::uint32_t states[8 * kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        streams[l] = padded(msgs[l], 0);
        blocks[l] = streams[l].data();
        if (sha1) {
          load_lane(states, kLanes, l, Sha1().midstate());
        } else {
          load_lane(states, kLanes, l, Sha256().midstate());
        }
      }
      (sha1 ? mb::sha1_x4_sse2 : mb::sha256_x4_sse2)(
          states, blocks, streams[0].size() / 64);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const Bytes got = lane_digest(states, kLanes, l, nwords);
        if (sha1) {
          const auto want = Sha1::digest(msgs[l]);
          EXPECT_EQ(to_hex(got), to_hex(BytesView(want.data(), want.size())))
              << "sha1 hash len " << len << " lane " << l;
        } else {
          const auto want = Sha256::digest(msgs[l]);
          EXPECT_EQ(to_hex(got), to_hex(BytesView(want.data(), want.size())))
              << "sha256 hash len " << len << " lane " << l;
        }
      }
    }
  }
}
#endif  // x86-64

}  // namespace
}  // namespace cra::crypto
