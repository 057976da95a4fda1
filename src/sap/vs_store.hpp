// Persistence for the verifier's valid-state set VS.
//
// Vrf is a long-lived service: the enrolled configurations cfg_i (and
// the deployment geometry they belong to) must survive restarts. This
// stores VS in a line-oriented text format that is diff-able and
// auditable:
//
//   cra-vs 1
//   alg sha1
//   devices 1000
//   cfg 1 <hex>
//   cfg 2 <hex>
//   ...
//
// Deliberately NOT stored: the master secret / device keys. Keys live
// in an HSM or key service in any sane deployment; VS is integrity-
// sensitive but not secret (it is the *public* expected firmware).
// Callers who need tamper-evidence wrap the file in their own MAC.
#pragma once

#include <string>

#include "sap/verifier.hpp"

namespace cra::sap {

/// Serialize the verifier's VS (all expected contents) to a string.
std::string vs_to_string(const Verifier& verifier);

/// Parse a VS dump; returns the per-device contents indexed by id-1.
/// Throws std::invalid_argument on malformed input or if `expect_alg` /
/// `expect_devices` disagree with the header, so the header's count
/// never sizes an allocation the caller did not ask for.
std::vector<Bytes> vs_from_string(const std::string& text,
                                  crypto::HashAlg expect_alg,
                                  std::uint32_t expect_devices);

/// Convenience: write/read the dump to a file. Write throws
/// std::runtime_error on I/O failure; load applies the contents into
/// `verifier` (sizes must match).
void save_vs(const Verifier& verifier, const std::string& path);
void load_vs(Verifier& verifier, const std::string& path);

}  // namespace cra::sap
