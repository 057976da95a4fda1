// 4-lane SSE2 multi-buffer SHA kernels.
//
// SSE2 is part of the x86-64 baseline, so this TU compiles with the
// project's portable flags — no -m options, nothing to leak. The lane
// algebra lives in sha_mb_impl.hpp; this file only binds it to __m128i.
#include "crypto/sha_mb.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cstring>

#include "crypto/sha_mb_impl.hpp"

namespace cra::crypto::mb {
namespace {

struct Sse2V {
  using Reg = __m128i;
  static constexpr int kLanes = 4;

  static Reg add(Reg a, Reg b) noexcept { return _mm_add_epi32(a, b); }
  static Reg xor_(Reg a, Reg b) noexcept { return _mm_xor_si128(a, b); }
  static Reg and_(Reg a, Reg b) noexcept { return _mm_and_si128(a, b); }
  static Reg or_(Reg a, Reg b) noexcept { return _mm_or_si128(a, b); }
  static Reg andnot(Reg a, Reg b) noexcept { return _mm_andnot_si128(a, b); }
  static Reg shr(Reg a, int n) noexcept { return _mm_srli_epi32(a, n); }

  template <int N>
  static Reg rotr(Reg a) noexcept {
    return or_(_mm_srli_epi32(a, N), _mm_slli_epi32(a, 32 - N));
  }

  static Reg broadcast(std::uint32_t v) noexcept {
    return _mm_set1_epi32(static_cast<int>(v));
  }

  static Reg load_state(const std::uint32_t* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }

  static void store_state(std::uint32_t* p, Reg v) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  static std::uint32_t be_word(const std::uint8_t* p) noexcept {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return __builtin_bswap32(v);
  }

  static Reg load_word(const std::uint8_t* const* blocks, std::size_t blk,
                       int t) noexcept {
    const std::size_t off = blk * 64 + static_cast<std::size_t>(4 * t);
    return _mm_set_epi32(static_cast<int>(be_word(blocks[3] + off)),
                         static_cast<int>(be_word(blocks[2] + off)),
                         static_cast<int>(be_word(blocks[1] + off)),
                         static_cast<int>(be_word(blocks[0] + off)));
  }
};

}  // namespace

void sha1_x4_sse2(std::uint32_t* states, const std::uint8_t* const* blocks,
                  std::size_t nblocks) noexcept {
  detail::hash_multiway<detail::Sha1Lanes<Sse2V>>(states, blocks, nblocks);
}

void sha256_x4_sse2(std::uint32_t* states, const std::uint8_t* const* blocks,
                    std::size_t nblocks) noexcept {
  detail::hash_multiway<detail::Sha256Lanes<Sse2V>>(states, blocks, nblocks);
}

void sha1_hmac_x4_sse2(const std::uint32_t* inner, const std::uint32_t* outer,
                       const std::uint8_t* const* blocks, std::size_t nblocks,
                       std::uint32_t* out) noexcept {
  detail::hmac_multiway<detail::Sha1Lanes<Sse2V>>(inner, outer, blocks, nblocks,
                                               out);
}

void sha256_hmac_x4_sse2(const std::uint32_t* inner,
                         const std::uint32_t* outer,
                         const std::uint8_t* const* blocks,
                         std::size_t nblocks, std::uint32_t* out) noexcept {
  detail::hmac_multiway<detail::Sha256Lanes<Sse2V>>(inner, outer, blocks,
                                                 nblocks, out);
}

}  // namespace cra::crypto::mb

#endif  // x86-64
