// X25519 Diffie-Hellman (RFC 7748), implemented from scratch.
//
// SEDA's join phase establishes pairwise keys between neighbors from
// their certified static public keys. With X25519 in the substrate that
// exchange is real cryptography: both endpoints derive the identical
// shared secret from (their own private key, the peer's public key),
// and the pairwise MAC key is HKDF of that secret.
//
// Implementation: 5×51-bit limb field arithmetic over 2^255 − 19 with
// 128-bit intermediate products, a dedicated squaring, and two paths:
//   * x25519(k, u) runs the RFC 7748 Montgomery ladder with
//     constant-time conditional swaps;
//   * x25519_base(k) computes [k]B on the birationally equivalent
//     edwards25519 with ref10's signed radix-16 fixed-base comb (64
//     mixed additions and 4 doublings over a 32×8 table of affine
//     points built once, on first use, and read through constant-time
//     masked selects), then maps the point to u = (Z + Y)/(Z − Y).
// Both clamp the scalar and return the same bytes for the base point:
// X25519.BaseMatchesLadderOnSeededScalars in
// tests/crypto/test_x25519.cpp checks x25519_base(k) == x25519(k, 9)
// on 10⁴ seeded scalars and on edge scalars, beside the RFC test
// vectors (including the 1,000-iteration vector).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace cra::crypto {

constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// The raw function: scalar * u-coordinate point (RFC 7748 §5).
/// The scalar is clamped internally as the RFC requires.
X25519Key x25519(const X25519Key& scalar, const X25519Key& u);

/// scalar * base point (u = 9): derive the public key for a private key.
/// Equal to x25519(scalar, 9), by the fixed-base comb.
X25519Key x25519_base(const X25519Key& scalar);

/// Convenience over Bytes (must be exactly 32 bytes; throws otherwise).
Bytes x25519(BytesView scalar, BytesView u);
Bytes x25519_base(BytesView scalar);

}  // namespace cra::crypto
