// Generic lane-parallel SHA-1 / SHA-256 compression, parameterized over
// a vector-ops traits class.
//
// This header is included ONLY by the per-ISA translation units
// (sha_mb_sse2.cpp, sha_mb_avx2.cpp) so every instantiation is compiled
// under exactly the -m flags of its TU — the functions here must never
// be instantiated from portably-compiled code, or illegal instructions
// would leak into it. That is also why everything lives in a detail
// namespace with internal linkage helpers rather than in sha_mb.hpp.
//
// A traits class V supplies:
//   using Reg                       — the vector register type
//   static constexpr int kLanes     — 32-bit words per register
//   Reg add(Reg, Reg)               — lane-wise uint32 add
//   Reg xor_(Reg, Reg) / and_(...) / or_(...) / andnot(a, b)  (~a & b)
//   Reg shr(Reg, int)               — lane-wise logical right shift
//   template <int N> Reg rotr(Reg)  — lane-wise rotate right
//   Reg broadcast(uint32)           — all lanes = constant
//   Reg load_state(p) / store_state(p, Reg) — kLanes words at p
//   Reg load_word(blocks, blk, w)   — big-endian word w of block blk,
//                                     gathered across all lanes
//
// Sha1Lanes<V> and Sha256Lanes<V> bind one hash to V: its chaining
// words and one compression of a block's 16 message words. Over them,
// hash_multiway runs each lane's blocks from its chaining value, and
// hmac_multiway runs a resumed HMAC: the inner blocks from the inner
// midstates, then the one outer block from the outer midstates. The
// outer block is the inner digest padded, so its message words are the
// inner state registers themselves and never leave the registers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cra::crypto::mb::detail {

inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

template <class Ops>
struct Sha256Lanes {
  using V = Ops;
  using Reg = typename V::Reg;
  static constexpr int kWords = 8;
  static constexpr int kSchedule = 64;

  /// One compression of the message words in msg[0..15] into s; the
  /// rest of msg is the schedule it expands.
  static void compress(Reg (&s)[kWords], Reg (&msg)[kSchedule]) noexcept {
    for (int t = 16; t < 64; ++t) {
      const Reg w15 = msg[t - 15];
      const Reg w2 = msg[t - 2];
      const Reg s0 = V::xor_(V::xor_(V::template rotr<7>(w15),
                                     V::template rotr<18>(w15)),
                             V::shr(w15, 3));
      const Reg s1 = V::xor_(V::xor_(V::template rotr<17>(w2),
                                     V::template rotr<19>(w2)),
                             V::shr(w2, 10));
      msg[t] = V::add(V::add(msg[t - 16], s0), V::add(msg[t - 7], s1));
    }

    Reg a = s[0], b = s[1], c = s[2], d = s[3];
    Reg e = s[4], f = s[5], g = s[6], h = s[7];
    for (int t = 0; t < 64; ++t) {
      const Reg s1 = V::xor_(V::xor_(V::template rotr<6>(e),
                                     V::template rotr<11>(e)),
                             V::template rotr<25>(e));
      const Reg ch = V::xor_(V::and_(e, f), V::andnot(e, g));
      const Reg t1 = V::add(V::add(h, s1),
                            V::add(V::add(ch, V::broadcast(kSha256K[t])),
                                   msg[t]));
      const Reg s0 = V::xor_(V::xor_(V::template rotr<2>(a),
                                     V::template rotr<13>(a)),
                             V::template rotr<22>(a));
      const Reg maj = V::or_(V::and_(a, b), V::and_(c, V::or_(a, b)));
      const Reg t2 = V::add(s0, maj);
      h = g;
      g = f;
      f = e;
      e = V::add(d, t1);
      d = c;
      c = b;
      b = a;
      a = V::add(t1, t2);
    }
    s[0] = V::add(s[0], a);
    s[1] = V::add(s[1], b);
    s[2] = V::add(s[2], c);
    s[3] = V::add(s[3], d);
    s[4] = V::add(s[4], e);
    s[5] = V::add(s[5], f);
    s[6] = V::add(s[6], g);
    s[7] = V::add(s[7], h);
  }
};

template <class Ops>
struct Sha1Lanes {
  using V = Ops;
  using Reg = typename V::Reg;
  static constexpr int kWords = 5;
  static constexpr int kSchedule = 80;

  /// One compression of the message words in msg[0..15] into s; the
  /// rest of msg is the schedule it expands. Each 20-step group runs
  /// with its round function and constant fixed.
  static void compress(Reg (&s)[kWords], Reg (&msg)[kSchedule]) noexcept {
    for (int t = 16; t < 80; ++t) {
      const Reg x = V::xor_(V::xor_(msg[t - 3], msg[t - 8]),
                            V::xor_(msg[t - 14], msg[t - 16]));
      msg[t] = V::template rotr<31>(x);  // rotl 1
    }

    Reg a = s[0], b = s[1], c = s[2], d = s[3], e = s[4];
    const auto group = [&](int from, std::uint32_t k, auto f) {
      const Reg kk = V::broadcast(k);
      for (int t = from; t < from + 20; ++t) {
        const Reg tmp = V::add(V::add(V::template rotr<27>(a), f(b, c, d)),
                               V::add(V::add(e, kk), msg[t]));  // rotl 5
        e = d;
        d = c;
        c = V::template rotr<2>(b);  // rotl 30
        b = a;
        a = tmp;
      }
    };
    const auto parity = [](Reg x, Reg y, Reg z) {
      return V::xor_(V::xor_(x, y), z);
    };
    group(0, 0x5a827999u, [](Reg x, Reg y, Reg z) {  // Ch
      return V::xor_(z, V::and_(x, V::xor_(y, z)));
    });
    group(20, 0x6ed9eba1u, parity);
    group(40, 0x8f1bbcdcu, [](Reg x, Reg y, Reg z) {  // Maj
      return V::or_(V::and_(x, y), V::and_(z, V::or_(x, y)));
    });
    group(60, 0xca62c1d6u, parity);
    s[0] = V::add(s[0], a);
    s[1] = V::add(s[1], b);
    s[2] = V::add(s[2], c);
    s[3] = V::add(s[3], d);
    s[4] = V::add(s[4], e);
  }
};

/// Each lane's `nblocks` blocks from blocks[l], compressed into s.
template <class H>
void absorb(typename H::Reg (&s)[H::kWords], const std::uint8_t* const* blocks,
            std::size_t nblocks) noexcept {
  typename H::Reg msg[H::kSchedule];
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    for (int t = 0; t < 16; ++t) msg[t] = H::V::load_word(blocks, blk, t);
    H::compress(s, msg);
  }
}

/// Lane l hashes its own `nblocks` blocks from blocks[l], starting at
/// and leaving its chaining value in the word-major `states`.
template <class H>
void hash_multiway(std::uint32_t* states, const std::uint8_t* const* blocks,
                   std::size_t nblocks) noexcept {
  using V = typename H::V;
  constexpr int L = V::kLanes;
  typename H::Reg s[H::kWords];
  for (int w = 0; w < H::kWords; ++w) s[w] = V::load_state(states + w * L);
  absorb<H>(s, blocks, nblocks);
  for (int w = 0; w < H::kWords; ++w) V::store_state(states + w * L, s[w]);
}

/// Lane l's resumed HMAC: its `nblocks` padded inner blocks from
/// blocks[l] on the inner midstate, then one outer block on the outer
/// midstate, whose digest words go to `out`. All three state arrays
/// are word-major.
template <class H>
void hmac_multiway(const std::uint32_t* inner, const std::uint32_t* outer,
                   const std::uint8_t* const* blocks, std::size_t nblocks,
                   std::uint32_t* out) noexcept {
  using V = typename H::V;
  constexpr int L = V::kLanes;
  typename H::Reg s[H::kWords];
  for (int w = 0; w < H::kWords; ++w) s[w] = V::load_state(inner + w * L);
  absorb<H>(s, blocks, nblocks);

  // The outer message is the inner digest after the one opad block: the
  // inner state words, the 0x80 pad byte, zeros, and the bit length.
  typename H::Reg msg[H::kSchedule];
  for (int w = 0; w < H::kWords; ++w) msg[w] = s[w];
  msg[H::kWords] = V::broadcast(0x80000000u);
  for (int w = H::kWords + 1; w < 15; ++w) msg[w] = V::broadcast(0);
  msg[15] = V::broadcast((64 + 4 * H::kWords) * 8);
  for (int w = 0; w < H::kWords; ++w) s[w] = V::load_state(outer + w * L);
  H::compress(s, msg);
  for (int w = 0; w < H::kWords; ++w) V::store_state(out + w * L, s[w]);
}

}  // namespace cra::crypto::mb::detail
