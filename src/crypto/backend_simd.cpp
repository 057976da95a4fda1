// The SIMD batch backend: multi-lane SHA over the SSE2/AVX2 kernels.
//
// This TU is portable code (no -m flags): it packs jobs into lanes,
// builds padded block streams, and calls the kernels declared in
// sha_mb.hpp. The AVX2 kernels live in their own -mavx2 TU and are only
// reachable after cpu_supports_avx2() says yes, so no illegal
// instruction can execute on an SSE2-only machine.
//
// Batching strategy: jobs are grouped by padded block count (equal-length
// messages share a group; a batch already in ascending length order, as
// every one-length batch is, is not sorted), full groups of `lanes` jobs
// run through a kernel, and every remainder — partial groups, odd
// lengths, batches smaller than the lane width — falls back to the
// scalar reference path. An HMAC group is one kernel call: the kernel
// builds each lane's outer block from its inner digest in registers.
// Digests are bit-identical to scalar either way, and the compression
// tally is charged one logical compression per lane-block so
// BENCH_perf.json counters cannot distinguish backends.
#include "crypto/backend.hpp"

#if defined(CRA_HAVE_SHA_MB)

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "crypto/sha_mb.hpp"
#include "crypto/tally.hpp"

namespace cra::crypto {
namespace {

constexpr std::size_t kMaxLanes = 8;
constexpr std::size_t kBlock = 64;

constexpr std::uint32_t kSha1Iv[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                      0x10325476u, 0xc3d2e1f0u};
constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                        0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                        0x1f83d9abu, 0x5be0cd19u};

struct HashDesc {
  std::size_t words;        // chaining-value words (5 or 8)
  std::size_t digest_size;  // bytes
  const std::uint32_t* iv;
  mb::HashKernel kernel;
  mb::HmacKernel hmac;
  std::size_t lanes;
};

/// Blocks the padded tail of a message of `len` bytes occupies when
/// `absorbed` bytes (0 or one pad block) were already hashed.
std::size_t tail_blocks(std::size_t absorbed, std::size_t len) noexcept {
  return static_cast<std::size_t>((absorbed + len + 9 + kBlock - 1) / kBlock) -
         absorbed / kBlock;
}

/// Serialize one lane's padded stream: message || 0x80 || zeros ||
/// 64-bit big-endian bit length of (absorbed + message).
void fill_stream(std::uint8_t* dst, std::size_t stream_len,
                 std::size_t absorbed, BytesView prefix,
                 BytesView suffix) noexcept {
  std::size_t pos = 0;
  if (!prefix.empty()) {
    std::memcpy(dst, prefix.data(), prefix.size());
    pos += prefix.size();
  }
  if (!suffix.empty()) {
    std::memcpy(dst + pos, suffix.data(), suffix.size());
    pos += suffix.size();
  }
  dst[pos] = 0x80;
  std::memset(dst + pos + 1, 0, stream_len - pos - 1);
  const std::uint64_t bit_len =
      (static_cast<std::uint64_t>(absorbed) + pos) * 8;
  for (int i = 0; i < 8; ++i) {
    dst[stream_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
}

/// Scatter lane l's chaining words into the word-major kernel layout.
void load_lane_state(std::uint32_t* states, std::size_t lanes, std::size_t l,
                     const std::uint32_t* words, std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) states[w * lanes + l] = words[w];
}

/// Big-endian digest of lane l from the word-major state array.
void store_lane_digest(std::uint8_t* out, const std::uint32_t* states,
                       std::size_t lanes, std::size_t l,
                       std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint32_t v = states[w * lanes + l];
    out[4 * w] = static_cast<std::uint8_t>(v >> 24);
    out[4 * w + 1] = static_cast<std::uint8_t>(v >> 16);
    out[4 * w + 2] = static_cast<std::uint8_t>(v >> 8);
    out[4 * w + 3] = static_cast<std::uint8_t>(v);
  }
}

std::vector<std::uint8_t>& stream_scratch() {
  thread_local std::vector<std::uint8_t> buf;
  return buf;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>& order_scratch() {
  thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> v;
  return v;
}

/// Stable job order grouped by padded tail length, so equal-length
/// messages become kernel groups. Returns (nblocks, job index) pairs.
/// Only a batch whose lengths are out of order is sorted: stable_sort
/// allocates on every call, and every batch of one length is in order.
template <typename LenOf>
std::vector<std::pair<std::uint32_t, std::uint32_t>>& group_jobs(
    std::size_t n, std::size_t absorbed, const LenOf& len_of) {
  auto& order = order_scratch();
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    order.emplace_back(
        static_cast<std::uint32_t>(tail_blocks(absorbed, len_of(i))),
        static_cast<std::uint32_t>(i));
  }
  const auto by_blocks = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_blocks)) {
    std::stable_sort(order.begin(), order.end(), by_blocks);
  }
  return order;
}

class SimdBackend final : public Backend {
 public:
  SimdBackend() noexcept {
    sha1_ = HashDesc{5, Sha1::kDigestSize, kSha1Iv, &mb::sha1_x4_sse2,
                     &mb::sha1_hmac_x4_sse2, 4};
    sha256_ = HashDesc{8, Sha256::kDigestSize, kSha256Iv, &mb::sha256_x4_sse2,
                       &mb::sha256_hmac_x4_sse2, 4};
#if defined(CRA_HAVE_SHA_MB_AVX2)
    if (mb::cpu_supports_avx2()) {
      sha1_ = HashDesc{5, Sha1::kDigestSize, kSha1Iv, &mb::sha1_x8_avx2,
                       &mb::sha1_hmac_x8_avx2, 8};
      sha256_ = HashDesc{8, Sha256::kDigestSize, kSha256Iv,
                         &mb::sha256_x8_avx2, &mb::sha256_hmac_x8_avx2, 8};
    }
#endif
  }

  const char* name() const noexcept override { return "simd"; }

  std::size_t lanes(HashAlg alg) const noexcept override {
    return desc(alg).lanes;
  }

  void sha1_batch(const BytesView* msgs, std::size_t n,
                  Sha1::Digest* out) const override {
    hash_batch(sha1_, msgs, n, [&](std::size_t i, const std::uint8_t* d) {
      std::memcpy(out[i].data(), d, Sha1::kDigestSize);
    }, [&](std::size_t i) { out[i] = Sha1::digest(msgs[i]); });
  }

  void sha256_batch(const BytesView* msgs, std::size_t n,
                    Sha256::Digest* out) const override {
    hash_batch(sha256_, msgs, n, [&](std::size_t i, const std::uint8_t* d) {
      std::memcpy(out[i].data(), d, Sha256::kDigestSize);
    }, [&](std::size_t i) { out[i] = Sha256::digest(msgs[i]); });
  }

  void hmac_batch(const MacJob* jobs, std::size_t n,
                  MacBuf* out) const override {
    if (n == 0) return;
    const HashAlg alg = jobs[0].mac->alg();
    const HashDesc& d = desc(alg);
    if (n < d.lanes) {
      for (std::size_t i = 0; i < n; ++i) scalar_one(jobs[i], out[i]);
      return;
    }
    auto& order = group_jobs(n, kBlock, [&](std::size_t i) {
      return jobs[i].prefix.size() + jobs[i].suffix.size();
    });
    std::size_t run = 0;
    while (run < n) {
      std::size_t end = run + 1;
      while (end < n && order[end].first == order[run].first) ++end;
      const std::size_t nblocks = order[run].first;
      while (end - run >= d.lanes) {
        hmac_group(alg, d, jobs, &order[run], nblocks, out);
        run += d.lanes;
      }
      for (; run < end; ++run) {  // remainder lanes: scalar reference
        scalar_one(jobs[order[run].second], out[order[run].second]);
      }
    }
  }

 private:
  const HashDesc& desc(HashAlg alg) const noexcept {
    return alg == HashAlg::kSha1 ? sha1_ : sha256_;
  }

  static void scalar_one(const MacJob& job, MacBuf& out) {
    job.mac->mac_into(job.prefix, job.suffix, out);
  }

  /// One full group of `lanes` resumed-HMAC jobs. order[l].second names
  /// the job in lane l; all lanes share `nblocks` inner tail blocks.
  void hmac_group(HashAlg alg, const HashDesc& d, const MacJob* jobs,
                  const std::pair<std::uint32_t, std::uint32_t>* order,
                  std::size_t nblocks, MacBuf* out) const {
    const std::size_t stream_len = nblocks * kBlock;
    auto& scratch = stream_scratch();
    scratch.resize(d.lanes * stream_len);

    std::uint32_t inner[8 * kMaxLanes];
    std::uint32_t outer[8 * kMaxLanes];
    const std::uint8_t* blocks[kMaxLanes];
    for (std::size_t l = 0; l < d.lanes; ++l) {
      const MacJob& job = jobs[order[l].second];
      std::uint8_t* stream = scratch.data() + l * stream_len;
      fill_stream(stream, stream_len, kBlock, job.prefix, job.suffix);
      blocks[l] = stream;
      load_lane_state(inner, d.lanes, l, inner_words(alg, job), d.words);
      load_lane_state(outer, d.lanes, l, outer_words(alg, job), d.words);
    }
    std::uint32_t digests[8 * kMaxLanes];
    d.hmac(inner, outer, blocks, nblocks, digests);
    detail::tls_compression_calls += d.lanes * (nblocks + 1);

    for (std::size_t l = 0; l < d.lanes; ++l) {
      MacBuf& dst = out[order[l].second];
      store_lane_digest(dst.bytes.data(), digests, d.lanes, l, d.words);
      dst.len = d.digest_size;
    }
  }

  /// One-shot hash batch over the same grouping machinery. `emit`
  /// stores a SIMD-computed digest, `scalar` handles remainder jobs.
  template <typename Emit, typename Scalar>
  void hash_batch(const HashDesc& d, const BytesView* msgs, std::size_t n,
                  const Emit& emit, const Scalar& scalar) const {
    if (n < d.lanes) {
      for (std::size_t i = 0; i < n; ++i) scalar(i);
      return;
    }
    auto& order = group_jobs(n, 0, [&](std::size_t i) {
      return msgs[i].size();
    });
    std::size_t run = 0;
    while (run < n) {
      std::size_t end = run + 1;
      while (end < n && order[end].first == order[run].first) ++end;
      const std::size_t nblocks = order[run].first;
      while (end - run >= d.lanes) {
        hash_group(d, msgs, &order[run], nblocks, emit);
        run += d.lanes;
      }
      for (; run < end; ++run) scalar(order[run].second);
    }
  }

  template <typename Emit>
  void hash_group(const HashDesc& d, const BytesView* msgs,
                  const std::pair<std::uint32_t, std::uint32_t>* order,
                  std::size_t nblocks, const Emit& emit) const {
    const std::size_t stream_len = nblocks * kBlock;
    auto& scratch = stream_scratch();
    scratch.resize(d.lanes * stream_len);

    std::uint32_t states[8 * kMaxLanes];
    const std::uint8_t* blocks[kMaxLanes];
    for (std::size_t l = 0; l < d.lanes; ++l) {
      std::uint8_t* stream = scratch.data() + l * stream_len;
      fill_stream(stream, stream_len, 0, msgs[order[l].second], {});
      blocks[l] = stream;
      load_lane_state(states, d.lanes, l, d.iv, d.words);
    }
    d.kernel(states, blocks, nblocks);
    detail::tls_compression_calls += d.lanes * nblocks;

    for (std::size_t l = 0; l < d.lanes; ++l) {
      std::uint8_t digest[32];
      store_lane_digest(digest, states, d.lanes, l, d.words);
      emit(order[l].second, digest);
    }
  }

  static const std::uint32_t* inner_words(HashAlg alg,
                                          const MacJob& job) noexcept {
    return alg == HashAlg::kSha1 ? job.mac->sha1().inner_midstate().data()
                                 : job.mac->sha256().inner_midstate().data();
  }

  static const std::uint32_t* outer_words(HashAlg alg,
                                          const MacJob& job) noexcept {
    return alg == HashAlg::kSha1 ? job.mac->sha1().outer_midstate().data()
                                 : job.mac->sha256().outer_midstate().data();
  }

  HashDesc sha1_{};
  HashDesc sha256_{};
};

}  // namespace

namespace mb {

bool cpu_supports_avx2() noexcept {
#if defined(CRA_HAVE_SHA_MB_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Backend* simd_backend_or_null() {
  static const SimdBackend backend;
  return &backend;
}

}  // namespace mb
}  // namespace cra::crypto

#endif  // CRA_HAVE_SHA_MB
