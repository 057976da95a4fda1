// SAP protocol configuration.
//
// Defaults reproduce the paper's evaluation setup (§VII-C): 24 MHz
// TrustLite-class devices with 50 KB PMEM, HMAC-SHA1 (l = 160 bits,
// so |chal| = |token| = 20 bytes), balanced binary tree, 250 kbit/s
// links with 1 ms per-hop processing delay (the paper's τ(N) charges
// exactly 1 ms per hop of tree depth).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "device/attest_tcb.hpp"
#include "net/network.hpp"
#include "sim/parallel.hpp"
#include "sim/time.hpp"

namespace cra::sap {

/// Quality of Attestation (paper §VIII): how much the verifier learns.
enum class QoaMode : std::uint8_t {
  /// The paper's TCA-Model outcome: one bit for the whole swarm
  /// (XOR-aggregated tokens, constant report size).
  kBinary,
  /// Binary result plus the number of devices whose token was actually
  /// aggregated — distinguishes "infected" from "unresponsive subtree".
  kCount,
  /// Full per-device reports concatenated up the tree: the verifier
  /// pinpoints every infected/unresponsive device, at O(subtree) report
  /// size. The QoA-vs-efficiency trade-off ablation contrasts the modes.
  kIdentify,
};

const char* qoa_name(QoaMode mode) noexcept;

/// Adaptive per-child timeouts: SAP's one re-poll mechanism (§VIII lossy
/// networks; see docs/robustness.md). A parent that misses a child
/// token re-polls it with the round challenge and re-arms its deadline
/// after backoff_for(attempt), doubling (by `backoff_factor`) up to
/// `max_backoff`, at most `max_repolls` times; Vrf does the same for its
/// own children. Children still missing after the budget is spent are
/// reported as unreachable in the degraded-mode report instead of
/// silently shrinking the aggregate. Off by default: with
/// `enabled == false` nobody re-polls, and a parent flushes its partial
/// aggregate at its deadline.
struct AdaptiveTimeoutConfig {
  bool enabled = false;
  std::uint32_t max_repolls = 4;
  sim::Duration initial_backoff = sim::Duration::from_ms(25);
  std::uint32_t backoff_factor = 2;
  sim::Duration max_backoff = sim::Duration::from_ms(200);

  /// Backoff before re-poll number `attempt` (1-based), exponentially
  /// grown and clamped to max_backoff.
  sim::Duration backoff_for(std::uint32_t attempt) const noexcept {
    sim::Duration b = initial_backoff;
    for (std::uint32_t i = 1; i < attempt; ++i) {
      if (b >= max_backoff) break;
      b = b * static_cast<std::int64_t>(backoff_factor);
    }
    return b < max_backoff ? b : max_backoff;
  }

  /// Total worst-case wait a parent can add across all re-polls — the
  /// verifier stretches its round deadline by this budget.
  sim::Duration budget() const noexcept {
    sim::Duration total = sim::Duration::zero();
    for (std::uint32_t a = 1; a <= max_repolls; ++a) total += backoff_for(a);
    return total;
  }
};

/// A hardware class for heterogeneous swarms (§II "device homogeneity",
/// §VIII model extensions). Class 0 is implicitly the SapConfig's own
/// device parameters; additional classes change per-device attest cost,
/// which stretches the synchronous measurement phase to the slowest
/// class and widens the per-node report deadlines accordingly.
struct DeviceClassSpec {
  std::string name = "default";
  std::uint64_t hz = 24'000'000;
  std::uint32_t pmem_size = 50 * 1024;
  std::uint64_t cycles_per_block = 14'400;
};

struct SapConfig {
  crypto::HashAlg alg = crypto::HashAlg::kSha1;  // l = 160
  std::uint32_t pmem_size = 50 * 1024;
  std::uint64_t device_hz = 24'000'000;
  std::uint32_t clock_divisor = 250'000;  // 1 tick ≈ 10.42 ms

  /// Device-side cost model (shared with the device VM; see
  /// device/attest_tcb.hpp for the calibration).
  std::uint64_t attest_overhead_cycles = 5'000;
  std::uint64_t cycles_per_block = 14'400;
  /// report-side token aggregation (two XORs + message handling): T_agg.
  std::uint64_t aggregate_cycles = 1'200;

  net::LinkParams link{};  // µ = 250 kbit/s, 1 ms/hop

  std::uint32_t tree_arity = 2;

  /// Extra slack added to Equation 9's lower bound when picking t_att
  /// (beyond the per-hop latency already charged); absorbs tick
  /// quantization.
  sim::Duration request_slack = sim::Duration::from_ms(2);

  /// How long past the analytic worst case a parent waits for child
  /// tokens before flushing a partial aggregate.
  sim::Duration report_margin = sim::Duration::from_ms(20);

  QoaMode qoa = QoaMode::kBinary;

  /// Heterogeneous hardware classes. Index 0 always exists and mirrors
  /// the top-level device parameters; entries here append classes 1..k.
  /// Assign devices with SapSimulation::assign_device_class().
  std::vector<DeviceClassSpec> extra_classes;

  /// §VIII DoS mitigation: chal carries an HMAC under the group request
  /// key; devices drop unauthenticated requests instead of attesting.
  bool authenticate_requests = false;

  /// §VIII lossy networks: re-polls with exponential backoff, and
  /// degraded-mode (per-device status) reports under kIdentify.
  AdaptiveTimeoutConfig adaptive{};

  /// Simulation engine knobs. The default is one shard, the serial event
  /// loop; more shards split the swarm over a worker pool (conservative
  /// lookahead = link.per_hop_latency — see docs/simulation.md for the
  /// determinism guarantees).
  sim::SimConfig sim{};

  std::size_t token_size() const noexcept {
    return crypto::digest_size(alg);
  }
  /// |chal| = O(l): 4-byte tick + 16-byte authenticator/padding, padded
  /// to the token size so chal and token weigh the same on the wire
  /// (the paper's utilization math assumes |chal| = |token| = l bits).
  std::size_t chal_size() const noexcept { return token_size(); }
};

}  // namespace cra::sap
