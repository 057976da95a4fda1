#include "crypto/x25519.hpp"

#include <stdexcept>

namespace cra::crypto {
namespace {

// Field arithmetic modulo p = 2^255 - 19, radix 2^51 (five limbs).
//
// Limb bounds. fe_mul, fe_sq and fe_frombytes return "reduced"
// elements: every limb is below 2^51 + 2^13. fe_mul and fe_sq accept
// limbs below 2^54, where the widest column sum is 77 * 2^108 < 2^115
// and every carry still fits 64 bits. The sum of two reduced elements
// is below 2^52 + 2^14. fe_sub adds 2p, whose limbs are at least
// 2^52 - 38, so its subtrahend must be reduced; fe_sub4 adds 4p (limbs
// at least 2^53 - 76) and takes any subtrahend below 2^53, such as a
// sum or an fe_sub difference of reduced elements. Either adds below
// 2^53 to the minuend's limbs.
using u64 = std::uint64_t;
__extension__ typedef unsigned __int128 u128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

struct Fe {
  u64 v[5];
};

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe out;
  for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + b.v[i];
  return out;
}

/// a - b + k*p, so that no limb goes negative; p's limbs in radix 2^51
/// are 2^51 - 19 and then 2^51 - 1.
Fe fe_sub_kp(const Fe& a, const Fe& b, u64 k) {
  Fe out;
  out.v[0] = a.v[0] + k * (kMask51 - 18) - b.v[0];
  for (int i = 1; i < 5; ++i) out.v[i] = a.v[i] + k * kMask51 - b.v[i];
  return out;
}

/// a - b + 2p: b must be reduced.
Fe fe_sub(const Fe& a, const Fe& b) { return fe_sub_kp(a, b, 2); }

/// a - b + 4p: b may be any sum or fe_sub difference of reduced elements.
Fe fe_sub4(const Fe& a, const Fe& b) { return fe_sub_kp(a, b, 4); }

/// Carries five column sums into a reduced element; 2^255 = 19 mod p.
/// fe_carry, fe_mul and fe_sq are forced inline: as calls, their 128-bit
/// column sums pass through memory, and a run of squarings cannot keep
/// its limbs in registers.
[[gnu::always_inline]] inline Fe fe_carry(u128 t0, u128 t1, u128 t2,
                                          u128 t3, u128 t4) {
  Fe out;
  out.v[0] = static_cast<u64>(t0) & kMask51;
  t1 += static_cast<u64>(t0 >> 51);
  out.v[1] = static_cast<u64>(t1) & kMask51;
  t2 += static_cast<u64>(t1 >> 51);
  out.v[2] = static_cast<u64>(t2) & kMask51;
  t3 += static_cast<u64>(t2 >> 51);
  out.v[3] = static_cast<u64>(t3) & kMask51;
  t4 += static_cast<u64>(t3 >> 51);
  out.v[4] = static_cast<u64>(t4) & kMask51;
  out.v[0] += static_cast<u64>(t4 >> 51) * 19;
  out.v[1] += out.v[0] >> 51;
  out.v[0] &= kMask51;
  return out;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
             a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
            b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
            b4_19 = b4 * 19;
  return fe_carry(
      a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19,
      a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19,
      a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19,
      a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19,
      a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0);
}

/// a^2 in 15 products: the cross terms of fe_mul(a, a) appear twice.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
             a4 = a.v[4];
  const u64 d0 = a.v[0] * 2, d1 = a.v[1] * 2;
  const u64 d2_19 = a.v[2] * 38, d4_19 = a.v[4] * 38;
  const u64 a3_19 = a.v[3] * 19, a4_19 = a.v[4] * 19;
  return fe_carry(a0 * a0 + a1 * d4_19 + a3 * d2_19,
                  a1 * d0 + a2 * d4_19 + a3 * a3_19,
                  a2 * d0 + a1 * a1 + a3 * d4_19,
                  a3 * d0 + a2 * d1 + a4 * a4_19,
                  a4 * d0 + a3 * d1 + a2 * a2);
}

/// a = a^(2^n), in place.
void fe_sqn(Fe& a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
}

Fe fe_mul_small(const Fe& a, u64 s) {
  return fe_carry(u128{a.v[0]} * s, u128{a.v[1]} * s, u128{a.v[2]} * s,
                  u128{a.v[3]} * s, u128{a.v[4]} * s);
}

/// Constant-time a = b when bit == 1.
void fe_cmov(Fe& a, const Fe& b, u64 bit) {
  const u64 mask = 0 - bit;  // all-ones when bit == 1
  for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

/// Constant-time swap of (a, b) when bit == 1.
void fe_cswap(Fe& a, Fe& b, u64 bit) {
  const u64 mask = 0 - bit;  // all-ones when bit == 1
  for (int i = 0; i < 5; ++i) {
    const u64 x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

/// Inversion via Fermat: a^(p-2) mod p, addition-chain from curve25519-donna.
Fe fe_invert(const Fe& z) {
  const Fe z2 = fe_sq(z);                   // 2
  Fe t = z2;
  fe_sqn(t, 2);
  const Fe z9 = fe_mul(t, z);               // 9
  const Fe z11 = fe_mul(z9, z2);            // 11
  const Fe z2_5_0 = fe_mul(fe_sq(z11), z9); // 2^5 - 2^0 = 31
  t = z2_5_0;
  fe_sqn(t, 5);
  const Fe z2_10_0 = fe_mul(t, z2_5_0);     // 2^10 - 2^0
  t = z2_10_0;
  fe_sqn(t, 10);
  const Fe z2_20_0 = fe_mul(t, z2_10_0);    // 2^20 - 2^0
  t = z2_20_0;
  fe_sqn(t, 20);
  t = fe_mul(t, z2_20_0);                   // 2^40 - 2^0
  fe_sqn(t, 10);
  const Fe z2_50_0 = fe_mul(t, z2_10_0);    // 2^50 - 2^0
  t = z2_50_0;
  fe_sqn(t, 50);
  const Fe z2_100_0 = fe_mul(t, z2_50_0);   // 2^100 - 2^0
  t = z2_100_0;
  fe_sqn(t, 100);
  t = fe_mul(t, z2_100_0);                  // 2^200 - 2^0
  fe_sqn(t, 50);
  t = fe_mul(t, z2_50_0);                   // 2^250 - 2^0
  fe_sqn(t, 5);                             // 2^255 - 2^5
  return fe_mul(t, z11);                    // 2^255 - 21 = p - 2
}

Fe fe_frombytes(const std::uint8_t* s) {
  auto load64 = [&](int off) {
    u64 r = 0;
    for (int i = 7; i >= 0; --i) r = (r << 8) | s[off + i];
    return r;
  };
  Fe out;
  out.v[0] = load64(0) & kMask51;
  out.v[1] = (load64(6) >> 3) & kMask51;
  out.v[2] = (load64(12) >> 6) & kMask51;
  out.v[3] = (load64(19) >> 1) & kMask51;
  out.v[4] = (load64(24) >> 12) & kMask51;  // top bit of byte 31 masked
  return out;
}

void fe_tobytes(std::uint8_t* out, const Fe& in) {
  // Canonical contraction (the curve25519-donna fcontract sequence).
  Fe h = in;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      h.v[i + 1] += h.v[i] >> 51;
      h.v[i] &= kMask51;
    }
    h.v[0] += 19 * (h.v[4] >> 51);
    h.v[4] &= kMask51;
  }
  // Now 0 <= h < 2^255. Add 19 (maps [p, 2^255) onto >= 2^255 + ...).
  h.v[0] += 19;
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[0] += 19 * (h.v[4] >> 51);
  h.v[4] &= kMask51;
  // Add 2^255 - 19 (as per-limb offsets); the result is offset by 2^255
  // exactly when the original value was >= p, so discarding bit 255
  // yields the canonical representative in both cases.
  h.v[0] += (u64{1} << 51) - 19;
  h.v[1] += (u64{1} << 51) - 1;
  h.v[2] += (u64{1} << 51) - 1;
  h.v[3] += (u64{1} << 51) - 1;
  h.v[4] += (u64{1} << 51) - 1;
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[4] &= kMask51;  // discard 2^255
  std::uint64_t packed[4];
  packed[0] = h.v[0] | (h.v[1] << 51);
  packed[1] = (h.v[1] >> 13) | (h.v[2] << 38);
  packed[2] = (h.v[2] >> 26) | (h.v[3] << 25);
  packed[3] = (h.v[3] >> 39) | (h.v[4] << 12);
  for (int w = 0; w < 4; ++w) {
    for (int b = 0; b < 8; ++b) {
      out[8 * w + b] = static_cast<std::uint8_t>(packed[w] >> (8 * b));
    }
  }
}

X25519Key clamp(X25519Key k) {
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
  return k;
}

// The twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 (edwards25519),
// birationally equivalent to curve25519 by u = (1 + y) / (1 - y). Point
// representations and formulas follow ref10's ge_*.
struct GeP2 {  // (X:Y:Z): x = X/Z, y = Y/Z
  Fe x, y, z;
};
struct GeP3 {  // (X:Y:Z:T), with T = XY/Z
  Fe x, y, z, t;
};
struct GeP1P1 {  // ((X:Z), (Y:T)): x = X/Z, y = Y/T
  Fe x, y, z, t;
};
struct GePrecomp {  // affine (y + x, y - x, 2d·x·y)
  Fe yplusx, yminusx, xy2d;
};

/// p + q: the unified (complete) mixed addition. p must be reduced.
/// Output limbs stay below 2^54.
GeP1P1 ge_madd(const GeP3& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe c = fe_mul(q.xy2d, p.t);
  const Fe d = fe_add(p.z, p.z);
  return GeP1P1{fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

/// 2p. Both subtrahends below are sums or differences of reduced
/// elements, so both take the 4p bias. Output limbs stay below 2^54.
GeP1P1 ge_dbl(const GeP2& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe zz2 = fe_add(zz, zz);
  const Fe xy_sq = fe_sq(fe_add(p.x, p.y));
  const Fe sum = fe_add(yy, xx);
  const Fe diff = fe_sub(yy, xx);
  return GeP1P1{fe_sub4(xy_sq, sum), sum, diff, fe_sub4(zz2, diff)};
}

GeP2 ge_to_p2(const GeP1P1& r) {
  return GeP2{fe_mul(r.x, r.t), fe_mul(r.y, r.z), fe_mul(r.z, r.t)};
}

GeP3 ge_to_p3(const GeP1P1& r) {
  return GeP3{fe_mul(r.x, r.t), fe_mul(r.y, r.z), fe_mul(r.z, r.t),
              fe_mul(r.x, r.y)};
}

/// 2^n p, for n >= 1.
GeP3 ge_dbl_n(const GeP3& p, int n) {
  GeP2 s{p.x, p.y, p.z};
  for (int i = 1; i < n; ++i) s = ge_to_p2(ge_dbl(s));
  return ge_to_p3(ge_dbl(s));
}

/// Row i, entry j holds (j + 1) * 256^i * B, so the signed radix-16
/// digits of a scalar pick one entry per row, twice over (odd digits,
/// four doublings, even digits).
using CombRow = GePrecomp[8];
struct CombTable {
  CombRow rows[32];
};

/// The affine precomputed form of p, with one inversion; x is reduced.
GePrecomp ge_precomp(const GeP3& p, const Fe& d2) {
  const Fe zi = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zi);
  const Fe y = fe_mul(p.y, zi);
  return GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), d2)};
}

CombTable build_comb_table() {
  auto small = [](u64 s) { return Fe{{s, 0, 0, 0, 0}}; };
  // d = -121665/121666; B = (x, 4/5), the image of the u = 9 base point
  // (y = (u - 1)/(u + 1)). Only y matters to u, so either root x would
  // do; this is RFC 8032's, little-endian.
  const Fe d = fe_sub(fe_zero(),
                      fe_mul(small(121665), fe_invert(small(121666))));
  const Fe d2 = fe_add(d, d);
  static constexpr std::uint8_t kBaseX[32] = {
      0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
      0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
      0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};
  const Fe bx = fe_frombytes(kBaseX);
  const Fe by = fe_mul(small(4), fe_invert(small(5)));
  GeP3 row_base{bx, by, fe_one(), fe_mul(bx, by)};  // 256^i * B
  CombTable table;
  for (CombRow& row : table.rows) {
    row[0] = ge_precomp(row_base, d2);
    GeP3 acc = row_base;
    for (int j = 1; j < 8; ++j) {
      acc = ge_to_p3(ge_madd(acc, row[0]));
      row[j] = ge_precomp(acc, d2);
    }
    row_base = ge_dbl_n(row_base, 8);
  }
  return table;
}

const CombTable& comb_table() {
  static const CombTable table = build_comb_table();
  return table;
}

/// digit * (row's base point), for digit in [-8, 8]: every entry is
/// read and masked in, and the negation is a masked swap, so neither
/// an address nor a branch depends on the digit.
GePrecomp ge_select(const CombRow& row, std::int8_t digit) {
  const u64 neg = static_cast<u64>(static_cast<std::int64_t>(digit)) >> 63;
  const u64 abs = (static_cast<u64>(static_cast<std::int64_t>(digit)) ^
                   (0 - neg)) + neg;
  u64 mask[8];
  for (u64 j = 0; j < 8; ++j) {
    mask[j] = 0 - (((abs ^ (j + 1)) - 1) >> 63);  // abs == j + 1
  }
  // One limb at a time, so the OR of the masked entries stays in a
  // register; unrolled, the eight loads issue together.
  const auto pick = [&](Fe GePrecomp::*field) {
    Fe out;
    for (int i = 0; i < 5; ++i) {
      u64 acc = 0;
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) acc |= mask[j] & (row[j].*field).v[i];
      out.v[i] = acc;
    }
    return out;
  };
  GePrecomp t{pick(&GePrecomp::yplusx), pick(&GePrecomp::yminusx),
              pick(&GePrecomp::xy2d)};
  const u64 zero = (abs - 1) >> 63;  // digit 0: the identity (1, 1, 0)
  t.yplusx.v[0] |= zero;
  t.yminusx.v[0] |= zero;
  // -(x, y) = (-x, y): swap y + x with y - x and negate 2d·x·y, an
  // fe_mul output and so reduced.
  const Fe minus_xy2d = fe_sub(fe_zero(), t.xy2d);
  fe_cswap(t.yplusx, t.yminusx, neg);
  fe_cmov(t.xy2d, minus_xy2d, neg);
  return t;
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& u_bytes) {
  const X25519Key k = clamp(scalar);

  const Fe x1 = fe_frombytes(u_bytes.data());
  Fe x2 = fe_one(), z2 = fe_zero();
  Fe x3 = x1, z3 = fe_one();
  u64 swap = 0;

  // Every fe_sub in the step subtracts a reduced element: the inputs and
  // each fe_mul or fe_sq output.
  for (int t = 254; t >= 0; --t) {
    const u64 bit = (k[static_cast<std::size_t>(t) / 8] >>
                     (static_cast<std::size_t>(t) % 8)) & 1;
    swap ^= bit;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = bit;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    const Fe dacb = fe_add(da, cb);
    x3 = fe_sq(dacb);
    const Fe da_cb = fe_sub(da, cb);
    z3 = fe_mul(x1, fe_sq(da_cb));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  const Fe result = fe_mul(x2, fe_invert(z2));
  X25519Key out;
  fe_tobytes(out.data(), result);
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  const X25519Key k = clamp(scalar);
  // Signed radix-16 digits e[i] in [-8, 8), e[63] in [4, 8]: the
  // clamped k < 2^255 keeps the last carry inside the top digit.
  std::int8_t e[64];
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(k[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(k[i] >> 4);
  }
  int carry = 0;
  for (std::size_t i = 0; i < 63; ++i) {
    const int v = e[i] + carry;
    carry = (v + 8) >> 4;
    e[i] = static_cast<std::int8_t>(v - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // [k]B = 16 * sum e[2m+1] 256^m B + sum e[2m] 256^m B, and row m holds
  // the multiples of 256^m B: the odd digits, 4 doublings, the even.
  const CombTable& table = comb_table();
  GeP3 h{fe_zero(), fe_one(), fe_one(), fe_zero()};
  for (std::size_t i = 1; i < 64; i += 2) {
    h = ge_to_p3(ge_madd(h, ge_select(table.rows[i / 2], e[i])));
  }
  h = ge_dbl_n(h, 4);
  for (std::size_t i = 0; i < 64; i += 2) {
    h = ge_to_p3(ge_madd(h, ge_select(table.rows[i / 2], e[i])));
  }
  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y); Y is reduced.
  const Fe u = fe_mul(fe_add(h.z, h.y), fe_invert(fe_sub(h.z, h.y)));
  X25519Key out;
  fe_tobytes(out.data(), u);
  return out;
}

Bytes x25519(BytesView scalar, BytesView u) {
  if (scalar.size() != kX25519KeySize || u.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  X25519Key s, p;
  std::copy(scalar.begin(), scalar.end(), s.begin());
  std::copy(u.begin(), u.end(), p.begin());
  const X25519Key r = x25519(s, p);
  return Bytes(r.begin(), r.end());
}

Bytes x25519_base(BytesView scalar) {
  if (scalar.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519_base: scalar must be 32 bytes");
  }
  X25519Key s;
  std::copy(scalar.begin(), scalar.end(), s.begin());
  const X25519Key r = x25519_base(s);
  return Bytes(r.begin(), r.end());
}

}  // namespace cra::crypto
