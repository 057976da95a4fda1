// HKDF (RFC 5869) over HMAC-SHA256.
//
// SAP's setup provisions one symmetric key per device. Rather than
// storing N independent random keys at the verifier, our Verifier derives
// K_{mi,Vrf} = HKDF(master, "sap-device-key", mi) — standard practice for
// fleet key management and exactly equivalent to independent keys under
// the PRF assumption. Devices still store only their own key.
//
// Provisioning derives one key per device from one master, and the
// extract step HMAC(salt, master) is the same for all of them. An Hkdf
// object runs it once and expands through the PRK's HMAC midstates, so
// an output of up to 32 bytes costs 2 SHA-256 compressions where a
// one-shot hkdf() spends 8. device_keys() pushes many expands through
// the active backend's hmac_batch. Every path here produces the bytes
// RFC 5869 defines, so the choice never changes a key.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/mac_cache.hpp"

namespace cra::crypto {

/// The label derive_device_key uses when none is given.
inline constexpr std::string_view kDeviceKeyLabel = "sap-device-key";

/// HKDF with the extract step done once. Holds only the PRK's HMAC
/// midstates (the raw PRK is wiped). Const members touch no shared
/// mutable state, so one object may serve several threads at once.
class Hkdf {
 public:
  /// Receives the output for device `id`; the view dies with the call.
  using Sink = std::function<void(std::uint32_t id, BytesView okm)>;

  /// PRK = HMAC-SHA256(salt, ikm).
  explicit Hkdf(BytesView ikm, BytesView salt = {});

  /// An expander over an already extracted PRK.
  static Hkdf from_prk(BytesView prk);

  /// HKDF-Expand(PRK, info, length). length must be <= 255 * 32; throws
  /// std::invalid_argument otherwise.
  Bytes expand(BytesView info, std::size_t length) const;

  /// expand(label || le32(id), length): derive_device_key's output.
  Bytes device_key(std::uint32_t id, std::size_t length,
                   std::string_view label = kDeviceKeyLabel) const;

  /// device_key for every id in `ids`, in order, each handed to `sink`.
  /// Runs one active_backend().hmac_batch pass per 32-byte output block
  /// over fixed-size chunks of ids, so its scratch does not grow with
  /// ids.size().
  void device_keys(std::span<const std::uint32_t> ids, std::size_t length,
                   std::string_view label, const Sink& sink) const;

 private:
  Hkdf() = default;

  PrecomputedMac prk_;  // SHA-256 midstates over the PRK
};

/// HKDF-Extract: PRK = HMAC-SHA256(salt, ikm).
Bytes hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: `length` bytes of output keyed by `prk` and `info`.
/// length must be <= 255 * 32; throws std::invalid_argument otherwise.
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);

/// One-shot extract+expand.
Bytes hkdf(BytesView ikm, BytesView salt, BytesView info, std::size_t length);

/// Derive the per-device attestation key K_{mi,Vrf} from a master secret.
/// Provisioning loops hold an Hkdf instead of calling this per device.
Bytes derive_device_key(BytesView master, std::uint32_t device_id,
                        std::size_t key_len,
                        std::string_view label = kDeviceKeyLabel);

}  // namespace cra::crypto
