// Internal interface to the multi-buffer (lane-parallel) SHA kernels.
//
// Each kernel runs L independent compression streams in one instruction
// stream: lane l consumes its own `nblocks` 64-byte blocks starting at
// blocks[l] and carries its own chaining value. There is no cross-lane
// mixing — this is data parallelism over whole messages, not a
// parallelization of one hash.
//
// The HMAC kernels run each lane's resumed HMAC whole: the inner blocks
// from the lane's inner midstate, then the one outer block from its
// outer midstate, built from the inner digest in registers.
//
// State layout is word-major so each round loads one vector register per
// state word: states[w * L + l] is word w of lane l. Kernels never touch
// crypto::tally — the backend wrapper (backend_simd.cpp) accounts one
// logical compression per lane per block so counters stay invariant
// across backends.
//
// The AVX2 kernels live in their own translation unit compiled with
// -mavx2 (see CMakeLists.txt); nothing here may be called unless the
// running CPU supports the ISA — cpu_supports_avx2() gates dispatch.
// These declarations are private to src/crypto; call through
// crypto::Backend instead. The one exception is the backend test, which
// calls the SSE2 kernels that an AVX2 host's backend never runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cra::crypto {

class Backend;

namespace mb {

using HashKernel = void (*)(std::uint32_t* states,
                            const std::uint8_t* const* blocks,
                            std::size_t nblocks) noexcept;
/// inner/outer: the lanes' midstates; out: their HMAC digest words.
using HmacKernel = void (*)(const std::uint32_t* inner,
                            const std::uint32_t* outer,
                            const std::uint8_t* const* blocks,
                            std::size_t nblocks, std::uint32_t* out) noexcept;

/// 4-lane SSE2 kernels (baseline on every x86-64 CPU).
void sha1_x4_sse2(std::uint32_t* states, const std::uint8_t* const* blocks,
                  std::size_t nblocks) noexcept;
void sha256_x4_sse2(std::uint32_t* states, const std::uint8_t* const* blocks,
                    std::size_t nblocks) noexcept;
void sha1_hmac_x4_sse2(const std::uint32_t* inner, const std::uint32_t* outer,
                       const std::uint8_t* const* blocks, std::size_t nblocks,
                       std::uint32_t* out) noexcept;
void sha256_hmac_x4_sse2(const std::uint32_t* inner,
                         const std::uint32_t* outer,
                         const std::uint8_t* const* blocks,
                         std::size_t nblocks, std::uint32_t* out) noexcept;

/// 8-lane AVX2 kernels (sha_mb_avx2.cpp, per-TU -mavx2).
void sha1_x8_avx2(std::uint32_t* states, const std::uint8_t* const* blocks,
                  std::size_t nblocks) noexcept;
void sha256_x8_avx2(std::uint32_t* states, const std::uint8_t* const* blocks,
                    std::size_t nblocks) noexcept;
void sha1_hmac_x8_avx2(const std::uint32_t* inner, const std::uint32_t* outer,
                       const std::uint8_t* const* blocks, std::size_t nblocks,
                       std::uint32_t* out) noexcept;
void sha256_hmac_x8_avx2(const std::uint32_t* inner,
                         const std::uint32_t* outer,
                         const std::uint8_t* const* blocks,
                         std::size_t nblocks, std::uint32_t* out) noexcept;

bool cpu_supports_avx2() noexcept;

/// The SIMD backend singleton, or nullptr when the build carries no
/// multi-buffer kernels for this target.
const Backend* simd_backend_or_null();

}  // namespace mb
}  // namespace cra::crypto
