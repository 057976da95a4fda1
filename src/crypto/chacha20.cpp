#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace cra::crypto {
namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) noexcept {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

}  // namespace

ChaCha20::ChaCha20(BytesView key, BytesView nonce, std::uint32_t counter) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  }
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  }
  state_[0] = 0x61707865u;
  state_[1] = 0x3320646eu;
  state_[2] = 0x79622d32u;
  state_[3] = 0x6b206574u;
  for (std::size_t i = 0; i < 8; ++i) {
    state_[4 + i] = load_u32le(key.data() + 4 * i);
  }
  state_[12] = counter;
  for (std::size_t i = 0; i < 3; ++i) {
    state_[13 + i] = load_u32le(nonce.data() + 4 * i);
  }
}

std::array<std::uint8_t, ChaCha20::kBlockSize>
ChaCha20::next_block() noexcept {
  std::array<std::uint32_t, 16> x = state_;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  std::array<std::uint8_t, kBlockSize> out;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t word = x[i] + state_[i];
    out[4 * i] = static_cast<std::uint8_t>(word);
    out[4 * i + 1] = static_cast<std::uint8_t>(word >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(word >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(word >> 24);
  }
  ++state_[12];
  return out;
}

void ChaCha20::crypt_inplace(Bytes& data) noexcept {
  for (auto& byte : data) {
    if (partial_used_ == kBlockSize) {
      partial_ = next_block();
      partial_used_ = 0;
    }
    byte = static_cast<std::uint8_t>(byte ^ partial_[partial_used_++]);
  }
}

namespace {

ChaCha20 make_stream(BytesView seed) {
  Bytes key(ChaCha20::kKeySize, 0);
  const std::size_t n = std::min(seed.size(), key.size());
  std::memcpy(key.data(), seed.data(), n);
  const Bytes nonce(ChaCha20::kNonceSize, 0);
  return ChaCha20(key, nonce);
}

}  // namespace

SecureRandom::SecureRandom(BytesView seed) : stream_(make_stream(seed)) {}

SecureRandom::SecureRandom(std::uint64_t seed)
    : stream_(make_stream([&] {
        Bytes s;
        append_u64le(s, seed);
        return s;
      }())) {}

Bytes SecureRandom::bytes(std::size_t n) {
  Bytes out(n, 0);
  stream_.crypt_inplace(out);
  return out;
}

std::uint64_t SecureRandom::u64() {
  const Bytes b = bytes(8);
  return read_u64le(b, 0);
}

}  // namespace cra::crypto
