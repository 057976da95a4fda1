// The attest Trusted Computing Base (paper §V-C).
//
//   attest^mi:
//     time = readSecureClock()
//     if (chal != time)  h_mi = 0^l
//     else               h_mi = HMAC_{K_mi,Vrf}(PMEM(mi, chal) || chal)
//
// The TCB executes as the native routine of the MPU's r4 region: it is
// entered only at first(r4) (Eq. 18), runs to completion uninterruptibly
// (Eq. 20) — which is what makes the PMEM snapshot temporally consistent
// — reads K from r6 (legal: PC ∈ r4, Eq. 17), and leaves through
// last(r4) (Eq. 19). The cycle cost it reports is the analytic cost of
// HMAC over the whole PMEM at the configured cycles-per-compression
// rate, which is how the network simulation prices the measurement
// phase.
//
// Software ABI (what firmware does to request attestation):
//   - write the 32-bit challenge (the scheduled tick t_att) to the chal
//     mailbox in DMEM,
//   - `call` the attest entry point,
//   - read the l-byte token from the token mailbox afterwards.
#pragma once

#include <cstdint>

#include "crypto/hmac.hpp"
#include "device/cpu.hpp"
#include "device/memory.hpp"

namespace cra::device {

struct AttestTcbConfig {
  crypto::HashAlg alg = crypto::HashAlg::kSha1;
  /// DMEM offsets (relative to dmem_base) of the mailboxes.
  std::uint32_t chal_mailbox_offset = 0;    // 4-byte challenge
  std::uint32_t token_mailbox_offset = 16;  // digest_size(alg) bytes
  /// Timing model: entry/exit + bookkeeping, and the per-compression-
  /// block cost of the HMAC core (≈225 cycles/byte on a small in-order
  /// core; see DESIGN.md §4).
  std::uint64_t overhead_cycles = 5'000;
  std::uint64_t cycles_per_block = 14'400;
};

/// Addresses derived from a memory layout + config.
struct AttestMailboxes {
  Addr chal = 0;
  Addr token = 0;
};

AttestMailboxes attest_mailboxes(const MemoryLayout& layout,
                                 const AttestTcbConfig& config);

/// The one attest cost model, in cycles: `overhead_cycles` plus an HMAC
/// over `message_len` bytes at `cycles_per_block` cycles a compression
/// (this TCB and the swarm simulations' synthetic devices).
std::uint64_t attest_cycles(crypto::HashAlg alg, std::uint64_t message_len,
                            std::uint64_t overhead_cycles,
                            std::uint64_t cycles_per_block);
/// Analytic execution cost of one attest call (T_att in cycles).
std::uint64_t attest_cycles(const AttestTcbConfig& config,
                            std::uint32_t pmem_size);

/// Build the native routine implementing attest. `key_region` is r6 (the
/// routine reads K from there at run time, so key rotation through
/// hardware re-provisioning is visible to it).
Cpu::NativeRoutine make_attest_routine(AttestTcbConfig config,
                                       Region key_region);

}  // namespace cra::device
