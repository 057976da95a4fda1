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

void Sha1::process_block(const std::uint8_t* block) noexcept {
  ++detail::tls_compression_calls;
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

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
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
