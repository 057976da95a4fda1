// 8-lane AVX2 multi-buffer SHA kernels.
//
// This is the ONLY translation unit compiled with -mavx2 (see
// src/crypto/CMakeLists.txt): keeping the flag per-TU guarantees the
// compiler cannot emit AVX2 instructions into portably-compiled code,
// and nothing here is reachable unless mb::cpu_supports_avx2() said yes
// at runtime. The lane algebra lives in sha_mb_impl.hpp; this file only
// binds it to __m256i.
#include "crypto/sha_mb.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "crypto/sha_mb_impl.hpp"

namespace cra::crypto::mb {
namespace {

struct Avx2V {
  using Reg = __m256i;
  static constexpr int kLanes = 8;

  static Reg add(Reg a, Reg b) noexcept { return _mm256_add_epi32(a, b); }
  static Reg xor_(Reg a, Reg b) noexcept { return _mm256_xor_si256(a, b); }
  static Reg and_(Reg a, Reg b) noexcept { return _mm256_and_si256(a, b); }
  static Reg or_(Reg a, Reg b) noexcept { return _mm256_or_si256(a, b); }
  static Reg andnot(Reg a, Reg b) noexcept {
    return _mm256_andnot_si256(a, b);
  }
  static Reg shr(Reg a, int n) noexcept { return _mm256_srli_epi32(a, n); }

  template <int N>
  static Reg rotr(Reg a) noexcept {
    return or_(_mm256_srli_epi32(a, N), _mm256_slli_epi32(a, 32 - N));
  }

  static Reg broadcast(std::uint32_t v) noexcept {
    return _mm256_set1_epi32(static_cast<int>(v));
  }

  static Reg load_state(const std::uint32_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }

  static void store_state(std::uint32_t* p, Reg v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  static std::uint32_t be_word(const std::uint8_t* p) noexcept {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return __builtin_bswap32(v);
  }

  static Reg load_word(const std::uint8_t* const* blocks, std::size_t blk,
                       int t) noexcept {
    const std::size_t off = blk * 64 + static_cast<std::size_t>(4 * t);
    return _mm256_set_epi32(static_cast<int>(be_word(blocks[7] + off)),
                            static_cast<int>(be_word(blocks[6] + off)),
                            static_cast<int>(be_word(blocks[5] + off)),
                            static_cast<int>(be_word(blocks[4] + off)),
                            static_cast<int>(be_word(blocks[3] + off)),
                            static_cast<int>(be_word(blocks[2] + off)),
                            static_cast<int>(be_word(blocks[1] + off)),
                            static_cast<int>(be_word(blocks[0] + off)));
  }
};

}  // namespace

void sha1_x8_avx2(std::uint32_t* states, const std::uint8_t* const* blocks,
                  std::size_t nblocks) noexcept {
  detail::hash_multiway<detail::Sha1Lanes<Avx2V>>(states, blocks, nblocks);
}

void sha256_x8_avx2(std::uint32_t* states, const std::uint8_t* const* blocks,
                    std::size_t nblocks) noexcept {
  detail::hash_multiway<detail::Sha256Lanes<Avx2V>>(states, blocks, nblocks);
}

void sha1_hmac_x8_avx2(const std::uint32_t* inner, const std::uint32_t* outer,
                       const std::uint8_t* const* blocks, std::size_t nblocks,
                       std::uint32_t* out) noexcept {
  detail::hmac_multiway<detail::Sha1Lanes<Avx2V>>(inner, outer, blocks, nblocks,
                                               out);
}

void sha256_hmac_x8_avx2(const std::uint32_t* inner,
                         const std::uint32_t* outer,
                         const std::uint8_t* const* blocks,
                         std::size_t nblocks, std::uint32_t* out) noexcept {
  detail::hmac_multiway<detail::Sha256Lanes<Avx2V>>(inner, outer, blocks,
                                                 nblocks, out);
}

}  // namespace cra::crypto::mb

#endif  // x86-64 && __AVX2__
