#include "crypto/sha1.hpp"

#include <bit>
#include <cstring>

#include "crypto/ct.hpp"
#include "crypto/tally.hpp"

namespace cra::crypto {

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha1 Sha1::resume(const State& s, std::uint64_t bytes_hashed) noexcept {
  Sha1 h;
  h.state_ = s;
  h.total_len_ = bytes_hashed;
  return h;
}

void Sha1::wipe() noexcept {
  secure_wipe(state_);
  secure_wipe(buffer_);
  buffer_len_ = 0;
  total_len_ = 0;
  reset();
}

namespace {

// The round functions of the four 20-step groups (FIPS 180-4 4.1.1),
// Ch and Maj in their two-operation forms.
std::uint32_t ch(std::uint32_t b, std::uint32_t c, std::uint32_t d) noexcept {
  return d ^ (b & (c ^ d));
}
std::uint32_t parity(std::uint32_t b, std::uint32_t c,
                     std::uint32_t d) noexcept {
  return b ^ c ^ d;
}
std::uint32_t maj(std::uint32_t b, std::uint32_t c, std::uint32_t d) noexcept {
  return (b & c) | (d & (b | c));
}

using RoundFn = std::uint32_t (*)(std::uint32_t, std::uint32_t,
                                  std::uint32_t) noexcept;

/// Schedule word t. The schedule rolls over 16 words: from step 16 on,
/// word t replaces word t - 16 in the slot they share.
template <int T>
std::uint32_t word(std::uint32_t (&w)[16]) noexcept {
  if constexpr (T >= 16) {
    w[T % 16] = std::rotl(
        w[(T - 3) % 16] ^ w[(T - 8) % 16] ^ w[(T - 14) % 16] ^ w[T % 16], 1);
  }
  return w[T % 16];
}

/// One step. Instead of shifting a..e down, the caller renames them:
/// the new a is written over e, and b becomes the new c in place.
template <RoundFn F, std::uint32_t K>
void step(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
          std::uint32_t& e, std::uint32_t w) noexcept {
  e += std::rotl(a, 5) + F(b, c, d) + K + w;
  b = std::rotl(b, 30);
}

/// Steps T..T+4; after five renamings the names are back in place.
template <RoundFn F, std::uint32_t K, int T>
void five(std::uint32_t (&w)[16], std::uint32_t& a, std::uint32_t& b,
          std::uint32_t& c, std::uint32_t& d, std::uint32_t& e) noexcept {
  step<F, K>(a, b, c, d, e, word<T>(w));
  step<F, K>(e, a, b, c, d, word<T + 1>(w));
  step<F, K>(d, e, a, b, c, word<T + 2>(w));
  step<F, K>(c, d, e, a, b, word<T + 3>(w));
  step<F, K>(b, c, d, e, a, word<T + 4>(w));
}

/// Steps T..T+19, one group with its round function and constant.
template <RoundFn F, std::uint32_t K, int T>
void group(std::uint32_t (&w)[16], std::uint32_t& a, std::uint32_t& b,
           std::uint32_t& c, std::uint32_t& d, std::uint32_t& e) noexcept {
  five<F, K, T>(w, a, b, c, d, e);
  five<F, K, T + 5>(w, a, b, c, d, e);
  five<F, K, T + 10>(w, a, b, c, d, e);
  five<F, K, T + 15>(w, a, b, c, d, e);
}

}  // namespace

void Sha1::process_block(const std::uint8_t* block) noexcept {
  ++detail::tls_compression_calls;
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  group<ch, 0x5a827999u, 0>(w, a, b, c, d, e);
  group<parity, 0x6ed9eba1u, 20>(w, a, b, c, d, e);
  group<maj, 0x8f1bbcdcu, 40>(w, a, b, c, d, e);
  group<parity, 0xca62c1d6u, 60>(w, a, b, c, d, e);
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(BytesView data) noexcept {
  if (data.empty()) return;  // memcpy from a null view is UB, even for 0
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length. A tail past byte 55 leaves no room for the
  // length, so it closes its block with zeros and the length gets a
  // block of its own.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_.data());

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Sha1::Digest Sha1::digest(BytesView data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

std::uint64_t Sha1::compression_calls(std::uint64_t message_len) noexcept {
  // Padding adds 1 byte of 0x80, zero padding to 56 mod 64, then an
  // 8-byte length: total padded length is the next multiple of 64 at or
  // above message_len + 9.
  return (message_len + 9 + kBlockSize - 1) / kBlockSize;
}

}  // namespace cra::crypto
