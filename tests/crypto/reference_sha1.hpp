// SHA-1's reference compression for the suites that check
// crypto::Sha1: the 80-word loop that branches on the step number,
// as Sha1::process_block ran before it was unrolled over a rolling
// 16-word schedule, kept apart from the code under test.
#pragma once

#include <bit>
#include <cstdint>

#include "crypto/sha1.hpp"

namespace cra::crypto {

/// One compression of the 64-byte `block` into the chaining value `s`.
inline void reference_sha1_compress(Sha1::State& s,
                                    const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = std::rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = s[0], b = s[1], c = s[2], d = s[3], e = s[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    const std::uint32_t temp = std::rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = temp;
  }
  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
  s[4] += e;
}

}  // namespace cra::crypto
