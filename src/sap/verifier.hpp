// The SAP verifier (Vrf).
//
// Vrf is the trusted entity that (1) provisions per-device keys at setup,
// (2) knows the set of valid states VS = {cfg_1 .. cfg_N}, (3) issues
// challenges, and (4) verifies the aggregated report:
//
//   res_i = HMAC_{K_mi,Vrf}(cfg_i || chal)         for every device
//   RES_S = res_1 ⊕ ... ⊕ res_N
//   verify(H_S) = [H_S == RES_S]
//
// Report verification is offline (excluded from T_CA): Vrf can precompute
// RES_S for the chosen chal before the report returns. sweep() is the
// one pass that does it, over any set of ids, and XOR makes the fold
// order-free: the simulator sweeps each shard's devices on that shard's
// worker before the challenge leaves and XORs the parts. Appraisal
// keeps every res_i in a flat table that sweeps fill (begin(chal) sweeps
// every id), absorb() reads encoded entries in place and judges them
// against it, and finish() returns the census: the live verifier, the
// simulator's identify rounds and classify() share this one rule.
//
// Keys: K_{mi,Vrf} = HKDF(master, "sap-device-key" || i). Equivalent to
// independently random keys under the PRF assumption, and it keeps Vrf's
// storage O(1) — devices still hold only their own key. Vrf keeps the
// master's extracted HKDF state, not the master itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/kdf.hpp"
#include "crypto/mac_cache.hpp"
#include "net/topology.hpp"
#include "sap/config.hpp"
#include "sap/messages.hpp"

namespace cra::sap {

class Verifier {
 public:
  /// `device_count` devices with node ids 1..device_count; `master` is
  /// the deployment master secret.
  Verifier(SapConfig config, std::uint32_t device_count, BytesView master);

  const SapConfig& config() const noexcept { return config_; }
  std::uint32_t device_count() const noexcept { return device_count_; }

  /// K_{mi,Vrf} — the provisioning path hands this to device `id`.
  Bytes device_key(net::NodeId id) const;

  /// HMAC midstates under K_{mi,Vrf}, derived on first use and cached
  /// for every later verification. The simulated devices MAC through
  /// this table too, so each key is derived once per swarm.
  const crypto::PrecomputedMac& device_mac(net::NodeId id) const;
  /// Derive the keys of `ids` in one batch and cache their midstates, as
  /// device_mac's first use would; a sweep does this for each chunk's
  /// ids not yet cached. Distinct threads may provision disjoint id sets
  /// at once.
  void provision(std::span<const net::NodeId> ids) const;

  /// Group key authenticating Vrf's requests (§VIII DoS mitigation);
  /// empty when the feature is disabled.
  Bytes request_auth_key() const;

  /// The extracted master: whoever provisions the swarm derives the
  /// other per-device secrets (firmware contents) through it, so the
  /// master is extracted once.
  const crypto::Hkdf& kdf() const noexcept { return kdf_; }

  /// --- Valid states VS ---
  /// Record the expected PMEM content cfg_i for device `id`.
  void set_expected_content(net::NodeId id, Bytes content);
  const Bytes& expected_content(net::NodeId id) const;

  /// --- Offline verification (Definition: verify) ---
  /// res_i for one device under challenge `chal`.
  Bytes expected_token(net::NodeId id, std::uint32_t chal) const;
  /// res_i(chal) for every id in `ids`, in chunks through the active
  /// backend's hmac_batch: XORed into `res_s` (token_size bytes), and
  /// also written to `table` at (id-1) * token_size unless it is null.
  /// Ids not yet provisioned are provisioned a chunk at a time, as
  /// provision() does, so distinct threads may sweep disjoint id sets
  /// at once.
  void sweep(std::span<const net::NodeId> ids, std::uint32_t chal,
             Bytes& res_s, std::uint8_t* table) const;
  /// RES_S = ⊕ res_i over all devices.
  Bytes expected_result(std::uint32_t chal) const;

  /// Per-device verdict of an identify round.
  enum class DeviceStatus : std::uint8_t {
    kHealthy = 0,      // valid token for this round's challenge
    kUnreachable = 1,  // no token — crashed, asleep, or partitioned
    kUntrusted = 2,    // token present but wrong: fail attestation
    kRebooted = 3,     // valid token, but device restarted mid-window
  };

  struct Classification {
    bool enabled = false;  // false = round ran without degraded reporting
    std::vector<DeviceStatus> status;  // index id-1
    std::uint32_t healthy = 0;
    std::uint32_t unreachable = 0;
    std::uint32_t untrusted = 0;
    std::uint32_t rebooted = 0;
    std::vector<net::NodeId> untrusted_ids;
    std::vector<net::NodeId> unreachable_ids;
    std::vector<net::NodeId> rebooted_ids;

    /// Round verdict under degraded reporting: nobody failed attestation
    /// and nobody was out of reach. Rebooted devices proved a valid state
    /// at a later tick — counted separately, not as healthy.
    bool all_healthy() const noexcept {
      return untrusted == 0 && unreachable == 0 && rebooted == 0;
    }
    /// Fraction of the swarm that produced *some* attestation evidence.
    double completion() const noexcept {
      const std::size_t n = status.size();
      if (n == 0) return 0.0;
      return static_cast<double>(n - unreachable) / static_cast<double>(n);
    }
  };

  /// One round's appraisal of identify entries of one format under the
  /// round challenge (legacy entries are kEntryOk). Entries are judged
  /// in order, and a later entry for a device overwrites an earlier one:
  ///   id 0 or above N   -> skipped
  ///   kEntryOk          -> token matches res_i(chal) ? healthy : untrusted
  ///   kEntryLate        -> tick >= chal and token valid at entry.tick
  ///                        ? rebooted : untrusted; a tick before chal is
  ///                        untrusted with no token computed (a stale tick
  ///                        would let Adv replay a pre-infection token)
  ///   kEntryRebooted    -> token valid at chal ? rebooted : untrusted
  ///   kEntryUnreachable -> unreachable (no evidence)
  ///   no entry at all   -> unreachable
  /// Buffers are kept from round to round.
  class Appraisal {
   public:
    Appraisal(const Verifier& verifier, IdentifyFormat format) noexcept
        : verifier_(&verifier),
          codec_(format, verifier.config().token_size()) {}

    /// Open a round on `chal`: size the token table and mark every
    /// device unheard; sweep any partition of the ids into table().
    void open(std::uint32_t chal);
    /// res_i(chal) at (id-1) * token_size, as Verifier::sweep writes it
    /// (disjoint id sets from distinct threads at once).
    std::uint8_t* table() noexcept { return tokens_.data(); }
    /// open(chal), then one chunked batch sweep of every id into the
    /// table, folding RES_S as it goes.
    void begin(std::uint32_t chal);
    /// Judge a payload's entries in place; one the codec rejects changes
    /// no status. Late entries at a tick after the challenge are
    /// computed on demand, in one batch per call.
    void absorb(BytesView entries);
    /// The census so far; devices never heard from are unreachable.
    Classification finish() const;

    /// RES_S for the round's challenge, folded by begin() (empty after
    /// a bare open()).
    BytesView expected_result() const noexcept { return res_s_; }

   private:
    /// The verdict rule: the status one entry gives its device.
    /// `late_valid` is the on-demand check of a kEntryLate token at a
    /// tick after the challenge.
    DeviceStatus judge(const IdentifyEntry& entry, bool late_valid) const;
    bool matches_table(const IdentifyEntry& entry) const;

    const Verifier* verifier_;
    IdentifyCodec codec_;
    std::uint32_t chal_ = 0;
    std::vector<net::NodeId> ids_;  // 1..N, the sweep's id set
    Bytes tokens_;  // res_i(chal) at (id-1) * token_size
    Bytes res_s_;
    std::vector<DeviceStatus> status_;  // index id-1
  };

  /// Classify every device from one whole extended-identify report:
  /// its encoding, an Appraisal's begin, one absorb, and finish. Throws
  /// std::invalid_argument for a token that is not token_size bytes.
  Classification classify(const std::vector<DeviceReport>& reports,
                          std::uint32_t chal) const;

 private:
  void check_id(net::NodeId id) const;
  /// Every device id, 1..N.
  std::vector<net::NodeId> all_ids() const;

  SapConfig config_;
  std::uint32_t device_count_;
  crypto::Hkdf kdf_;  // over the master secret
  std::vector<Bytes> expected_;  // index id-1
  // Per-device HMAC midstate caches, filled by provision() or on first
  // use. Lazy mutation is safe because verification is offline and
  // single-threaded, and provisioning and sweeping workers each own
  // disjoint ids. SapSimulation's shard workers read the table
  // concurrently during a round: its constructor provisions every id
  // first, so they never take device_mac's initialising branch. Saves
  // an HKDF expand plus two compressions per expected-token query.
  mutable std::vector<crypto::PrecomputedMac> mac_cache_;  // index id-1
};

}  // namespace cra::sap
