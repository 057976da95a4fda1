// Byte-buffer utilities shared by every module.
//
// The whole code base passes raw octet strings around (memory snapshots,
// MACs, protocol messages), so we standardize on `cra::Bytes` =
// std::vector<std::uint8_t> plus a handful of helpers: hex codecs,
// constant-size XOR (the SAP aggregation operator), and span views.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cra {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encode `data` as lowercase hex ("deadbeef").
std::string to_hex(BytesView data);

/// Decode a hex string; throws std::invalid_argument on odd length or
/// non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copy a std::string's characters into a byte buffer (no encoding).
Bytes to_bytes(std::string_view s);

/// XOR `rhs` into `lhs` element-wise; throws std::invalid_argument if the
/// lengths differ. This is SAP's token-aggregation operator: it never
/// changes the bit-length of its inputs (Lemma 2 of the paper depends on
/// this).
void xor_inplace(Bytes& lhs, BytesView rhs);

/// Pure XOR of two equal-length buffers.
Bytes xor_bytes(BytesView lhs, BytesView rhs);

/// True iff every byte is zero (e.g. an all-zero attestation token).
bool all_zero(BytesView data) noexcept;

/// Append the little-endian encoding of `v` to `out`.
void append_u32le(Bytes& out, std::uint32_t v);
void append_u64le(Bytes& out, std::uint64_t v);

/// Write the little-endian encoding of `v` into `out[0..3]`; the caller
/// guarantees capacity. Allocation-free counterpart to append_u32le for
/// hot paths that stage a challenge/tick into a stack buffer.
inline void store_u32le(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Read the little-endian value at `p[0..3]`; the caller guarantees the
/// bytes. The unchecked counterpart of read_u32le.
inline std::uint32_t load_u32le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Read little-endian integers back; throws std::out_of_range if the
/// buffer is too short.
std::uint32_t read_u32le(BytesView data, std::size_t offset);
std::uint64_t read_u64le(BytesView data, std::size_t offset);

}  // namespace cra
