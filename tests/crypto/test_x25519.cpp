// X25519 against the RFC 7748 test vectors and DH properties, and the
// fixed-base comb in x25519_base against the Montgomery ladder.
#include "crypto/x25519.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace cra::crypto {
namespace {

TEST(X25519, Rfc7748Vector1) {
  const Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes u = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const Bytes scalar = from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const Bytes u = from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellmanVector) {
  // §6.1: Alice and Bob derive the same shared secret.
  const Bytes alice_sk = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes bob_sk = from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const Bytes alice_pk = x25519_base(alice_sk);
  const Bytes bob_pk = x25519_base(bob_sk);
  EXPECT_EQ(to_hex(alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const Bytes shared_a = x25519(alice_sk, bob_pk);
  const Bytes shared_b = x25519(bob_sk, alice_pk);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(to_hex(shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, Rfc7748IteratedVector1000) {
  // §5.2: k = u = base; iterate k' = X25519(k, u); u' = k (1,000 times).
  X25519Key k{};
  k[0] = 9;
  X25519Key u = k;
  for (int i = 0; i < 1000; ++i) {
    const X25519Key next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(BytesView(k.data(), k.size())),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, SharedSecretPropertyRandomKeys) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    const Bytes a = rng.next_bytes(32);
    const Bytes b = rng.next_bytes(32);
    const Bytes shared_ab = x25519(a, x25519_base(b));
    const Bytes shared_ba = x25519(b, x25519_base(a));
    EXPECT_EQ(shared_ab, shared_ba) << "trial " << trial;
    EXPECT_FALSE(all_zero(shared_ab));
  }
}

TEST(X25519, ClampingMakesCofactorBitsIrrelevant) {
  Rng rng(99);
  Bytes sk = rng.next_bytes(32);
  Bytes sk_mutated = sk;
  sk_mutated[0] = static_cast<std::uint8_t>(sk_mutated[0] ^ 0x07);  // low bits
  sk_mutated[31] = static_cast<std::uint8_t>((sk_mutated[31] & 0x3f) | 0x80);
  // Clamping zeroes the low 3 bits and fixes the top two, so both keys
  // act identically.
  EXPECT_EQ(x25519_base(sk), x25519_base(sk_mutated));
}

TEST(X25519, RejectsBadSizes) {
  EXPECT_THROW(x25519(Bytes(31, 0), Bytes(32, 9)), std::invalid_argument);
  EXPECT_THROW(x25519(Bytes(32, 1), Bytes(33, 9)), std::invalid_argument);
  EXPECT_THROW(x25519_base(Bytes(16, 1)), std::invalid_argument);
}

TEST(X25519, HighBitOfUCoordinateIgnored) {
  // RFC 7748: the top bit of the u-coordinate must be masked.
  Rng rng(5);
  const Bytes sk = rng.next_bytes(32);
  Bytes u = x25519_base(rng.next_bytes(32));
  Bytes u_highbit = u;
  u_highbit[31] = static_cast<std::uint8_t>(u_highbit[31] | 0x80);
  EXPECT_EQ(x25519(sk, u), x25519(sk, u_highbit));
}

X25519Key ladder_base(const X25519Key& k) {
  X25519Key nine{};
  nine[0] = 9;
  return x25519(k, nine);
}

X25519Key random_scalar(Rng& rng) {
  X25519Key k;
  for (std::size_t w = 0; w < 4; ++w) {
    const std::uint64_t v = rng.next();
    for (std::size_t b = 0; b < 8; ++b) {
      k[8 * w + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  return k;
}

TEST(X25519, BaseMatchesLadderOnSeededScalars) {
  std::vector<X25519Key> scalars;
  scalars.push_back(X25519Key{});  // all zero
  X25519Key ones;
  ones.fill(0xff);
  scalars.push_back(ones);
  for (std::size_t bit = 0; bit < 256; ++bit) {
    X25519Key k{};
    k[bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
    scalars.push_back(k);
  }
  // Nibbles of 8, or of 7 after a carry, make every signed radix-16
  // digit carry into the next, up to a top digit of 8.
  for (const std::uint8_t first : {0x77, 0x78, 0x87, 0x88}) {
    for (const std::uint8_t rest : {0x77, 0x88}) {
      X25519Key k;
      k.fill(rest);
      k[0] = first;
      scalars.push_back(k);
    }
  }
  Rng rng(7748);
  for (int i = 0; i < 10'000; ++i) scalars.push_back(random_scalar(rng));
  for (const X25519Key& k : scalars) {
    ASSERT_EQ(x25519_base(k), ladder_base(k))
        << "scalar " << to_hex(BytesView(k.data(), k.size()));
  }
}

TEST(X25519, ConcurrentCallsMatchSerial) {
  // Run on its own, as ctest and the TSan job run it, the threads make
  // the process's first x25519_base calls and race to build the comb
  // table.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 256;
  struct Result {
    X25519Key scalar, pub, shared;
  };
  std::vector<std::vector<Result>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      const X25519Key peer = ladder_base(random_scalar(rng));
      start.arrive_and_wait();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const X25519Key k = random_scalar(rng);
        results[t].push_back({k, x25519_base(k), x25519(k, peer)});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(100 + t);
    const X25519Key peer = ladder_base(random_scalar(rng));
    ASSERT_EQ(results[t].size(), kPerThread);
    for (const Result& r : results[t]) {
      ASSERT_EQ(r.scalar, random_scalar(rng));
      EXPECT_EQ(r.pub, x25519_base(r.scalar)) << "thread " << t;
      EXPECT_EQ(r.pub, ladder_base(r.scalar)) << "thread " << t;
      EXPECT_EQ(r.shared, x25519(r.scalar, peer)) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace cra::crypto
