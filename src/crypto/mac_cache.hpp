// HMAC midstate caching.
//
// HMAC_K(m) = H((K' ^ opad) || H((K' ^ ipad) || m)). The two pad blocks
// depend only on the key, and both are exactly one compression block, so
// their chaining values can be computed once per key and replayed per
// MAC. A resumed MAC skips two compressions, the key schedule, and the
// pad XORs — for SAP's token-sized messages (a 20-byte token plus an
// 8-byte challenge hashes in one block) that halves the compression
// count and removes every per-MAC allocation.
//
// Verifiers and devices hold one cache per long-lived key (K_{mi,Vrf},
// beat keys, SEDA join keys); only the midstate words are stored
// (20–32 bytes per hash), so a million-device swarm stays cheap.
// Midstates are key-derived secrets: both cache types zeroize themselves
// on destruction via crypto::secure_wipe.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"

namespace cra::crypto {

/// Midstate-cached HMAC over hash `H` (Sha1 or Sha256). init() pays the
/// full key schedule once; each mac() resumes the stored chaining
/// values.
template <typename H>
class PrecomputedHmac {
 public:
  static constexpr std::size_t kDigestSize = H::kDigestSize;

  PrecomputedHmac() = default;
  explicit PrecomputedHmac(BytesView key) { init(key); }

  PrecomputedHmac(const PrecomputedHmac&) = default;
  PrecomputedHmac& operator=(const PrecomputedHmac&) = default;

  ~PrecomputedHmac() {
    secure_wipe(inner_);
    secure_wipe(outer_);
  }

  void init(BytesView key) {
    std::array<std::uint8_t, H::kBlockSize> block_key{};
    if (key.size() > H::kBlockSize) {
      const auto d = H::digest(key);
      std::copy(d.begin(), d.end(), block_key.begin());
    } else {
      std::copy(key.begin(), key.end(), block_key.begin());
    }

    std::array<std::uint8_t, H::kBlockSize> pad;
    for (std::size_t i = 0; i < H::kBlockSize; ++i) {
      pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    }
    H inner;
    inner.update(BytesView(pad.data(), pad.size()));
    inner_ = inner.midstate();

    for (std::size_t i = 0; i < H::kBlockSize; ++i) {
      pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
    }
    H outer;
    outer.update(BytesView(pad.data(), pad.size()));
    outer_ = outer.midstate();

    secure_wipe(pad);
    secure_wipe(block_key);
    ready_ = true;
  }

  [[nodiscard]] bool ready() const noexcept { return ready_; }

  /// Zeroize the midstates and return to the not-ready state. A cleared
  /// cache can be re-keyed with init(); using it before that is a bug
  /// (callers gate on ready()).
  void clear() noexcept {
    secure_wipe(inner_);
    secure_wipe(outer_);
    ready_ = false;
  }

  /// MAC of `prefix || suffix`. The two-view form lets SAP stream
  /// PMEM || chal without first concatenating them into a scratch
  /// buffer; pass an empty suffix for the single-message case.
  [[nodiscard]] typename H::Digest mac(BytesView prefix,
                                       BytesView suffix = {}) const noexcept {
    H inner = H::resume(inner_, H::kBlockSize);
    inner.update(prefix);
    inner.update(suffix);
    const auto inner_digest = inner.finalize();

    H outer = H::resume(outer_, H::kBlockSize);
    outer.update(BytesView(inner_digest.data(), inner_digest.size()));
    return outer.finalize();
  }

  /// Compression calls a resumed MAC over `message_len` bytes executes:
  /// the full HMAC cost minus the two cached pad-block compressions.
  static std::uint64_t compression_calls(std::uint64_t message_len) noexcept {
    return Hmac<H>::compression_calls(message_len) - 2;
  }

  /// Raw chaining values after the ipad/opad block — the lane state the
  /// batch backends (crypto/backend.hpp) resume from. Key-derived
  /// secrets: treat like the key itself.
  const typename H::State& inner_midstate() const noexcept { return inner_; }
  const typename H::State& outer_midstate() const noexcept { return outer_; }

 private:
  typename H::State inner_{};
  typename H::State outer_{};
  bool ready_ = false;
};

using PrecomputedHmacSha1 = PrecomputedHmac<Sha1>;
using PrecomputedHmacSha256 = PrecomputedHmac<Sha256>;

/// Runtime-tagged midstate cache matching the hmac(HashAlg, ...)
/// dispatch layer. Holds midstates for the configured algorithm only;
/// the inactive member stays zero. Both members are always there:
/// sizeof is 116 B (gcc 12.2, x86-64) whichever is configured.
class PrecomputedMac {
 public:
  PrecomputedMac() = default;
  PrecomputedMac(HashAlg alg, BytesView key) { init(alg, key); }

  void init(HashAlg alg, BytesView key) {
    alg_ = alg;
    if (alg == HashAlg::kSha1) {
      sha1_.init(key);
      sha256_.clear();  // re-key must not retain the previous key's state
    } else {
      sha256_.init(key);
      sha1_.clear();
    }
  }

  [[nodiscard]] bool ready() const noexcept {
    return alg_ == HashAlg::kSha1 ? sha1_.ready() : sha256_.ready();
  }

  [[nodiscard]] HashAlg alg() const noexcept { return alg_; }

  [[nodiscard]] std::size_t digest_size() const noexcept {
    return crypto::digest_size(alg_);
  }

  /// MAC of `prefix || suffix` into a caller-owned buffer; empty suffix
  /// for the single-message case. Allocation-free.
  void mac_into(BytesView prefix, BytesView suffix, MacBuf& out) const {
    if (alg_ == HashAlg::kSha1) {
      const auto d = sha1_.mac(prefix, suffix);
      out.assign(d.data(), d.size());
    } else {
      const auto d = sha256_.mac(prefix, suffix);
      out.assign(d.data(), d.size());
    }
  }

  void mac_into(BytesView data, MacBuf& out) const {
    mac_into(data, BytesView(), out);
  }

  /// Heap-returning convenience for tests and non-hot-loop callers.
  [[nodiscard]] Bytes mac(BytesView prefix, BytesView suffix = {}) const {
    MacBuf buf;
    mac_into(prefix, suffix, buf);
    return Bytes(buf.bytes.begin(), buf.bytes.begin() + buf.len);
  }

  /// The algorithm-specific midstate caches, for the batch backends'
  /// lane packing. Only the member matching alg() holds live midstates.
  [[nodiscard]] const PrecomputedHmacSha1& sha1() const noexcept {
    return sha1_;
  }
  [[nodiscard]] const PrecomputedHmacSha256& sha256() const noexcept {
    return sha256_;
  }

  /// Compression calls a resumed MAC over `message_len` bytes executes.
  [[nodiscard]] static std::uint64_t compression_calls(
      HashAlg alg, std::uint64_t message_len) noexcept {
    return alg == HashAlg::kSha1
               ? PrecomputedHmacSha1::compression_calls(message_len)
               : PrecomputedHmacSha256::compression_calls(message_len);
  }

 private:
  HashAlg alg_ = HashAlg::kSha1;
  PrecomputedHmacSha1 sha1_;
  PrecomputedHmacSha256 sha256_;
};

}  // namespace cra::crypto
