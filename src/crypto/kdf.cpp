#include "crypto/kdf.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "crypto/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"

namespace cra::crypto {
namespace {

constexpr std::size_t kHashLen = Sha256::kDigestSize;
// Expands per hmac_batch call: enough to fill every SIMD lane many times
// over, small enough that the chunk's scratch stays a few kilobytes.
constexpr std::size_t kChunk = 256;

void check_length(std::size_t length) {
  if (length > 255 * kHashLen) {
    throw std::invalid_argument("hkdf_expand: output too long");
  }
}

/// The one expand loop. Runs `n` <= kCap expands at once: `infos` holds
/// n records of info_len bytes plus one spare byte each, which the loop
/// fills with the block counter; output i lands at okm + i * length.
/// T(k) = HMAC(PRK, T(k-1) || info || k), one hmac_batch pass per k.
/// kCap sizes the stack scratch, so a single expand does not pay for a
/// chunk's.
template <std::size_t kCap>
void expand_chunk(const PrecomputedMac& prk, std::uint8_t* infos,
                  std::size_t info_len, std::size_t n, std::uint8_t* okm,
                  std::size_t length) {
  const std::size_t stride = info_len + 1;
  std::array<MacJob, kCap> jobs;
  std::array<MacBuf, kCap> blocks;
  const Backend& backend = active_backend();
  std::uint8_t counter = 1;
  for (std::size_t off = 0; off < length; off += kHashLen, ++counter) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t* info = infos + i * stride;
      info[info_len] = counter;
      const BytesView prev =
          off == 0 ? BytesView()
                   : BytesView(okm + i * length + off - kHashLen, kHashLen);
      jobs[i] = MacJob{&prk, prev, BytesView(info, stride)};
    }
    backend.hmac_batch(jobs.data(), n, blocks.data());
    const std::size_t take = std::min(kHashLen, length - off);
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(okm + i * length + off, blocks[i].bytes.data(), take);
    }
  }
  secure_wipe(blocks.data(), n * sizeof(MacBuf));
}

}  // namespace

Hkdf::Hkdf(BytesView ikm, BytesView salt) {
  auto prk = HmacSha256::mac(salt, ikm);
  prk_.init(HashAlg::kSha256, prk);
  secure_wipe(prk);
}

Hkdf Hkdf::from_prk(BytesView prk) {
  Hkdf h;
  h.prk_.init(HashAlg::kSha256, prk);
  return h;
}

Bytes Hkdf::expand(BytesView info, std::size_t length) const {
  check_length(length);
  Bytes record(info.begin(), info.end());
  record.push_back(0);  // the counter byte
  Bytes out(length);
  expand_chunk<1>(prk_, record.data(), info.size(), 1, out.data(), length);
  return out;
}

Bytes Hkdf::device_key(std::uint32_t id, std::size_t length,
                       std::string_view label) const {
  Bytes info = to_bytes(label);
  append_u32le(info, id);
  return expand(info, length);
}

void Hkdf::device_keys(std::span<const std::uint32_t> ids, std::size_t length,
                       std::string_view label, const Sink& sink) const {
  check_length(length);
  const std::size_t info_len = label.size() + 4;
  const std::size_t cap = std::min(kChunk, ids.size());
  std::vector<std::uint8_t> infos(cap * (info_len + 1));
  std::vector<std::uint8_t> okm(cap * length);
  for (std::size_t base = 0; base < ids.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, ids.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t* info = infos.data() + i * (info_len + 1);
      std::memcpy(info, label.data(), label.size());
      store_u32le(info + label.size(), ids[base + i]);
    }
    expand_chunk<kChunk>(prk_, infos.data(), info_len, n, okm.data(), length);
    for (std::size_t i = 0; i < n; ++i) {
      sink(ids[base + i], BytesView(okm.data() + i * length, length));
    }
  }
  if (!okm.empty()) secure_wipe(okm.data(), okm.size());
}

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  const auto prk = HmacSha256::mac(salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  return Hkdf::from_prk(prk).expand(info, length);
}

Bytes hkdf(BytesView ikm, BytesView salt, BytesView info, std::size_t length) {
  return Hkdf(ikm, salt).expand(info, length);
}

Bytes derive_device_key(BytesView master, std::uint32_t device_id,
                        std::size_t key_len, std::string_view label) {
  return Hkdf(master).device_key(device_id, key_len, label);
}

}  // namespace cra::crypto
