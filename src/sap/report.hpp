// Result of one SAP round, with the phase breakdown Figure 3(b) plots.
#pragma once

#include <cstdint>
#include <vector>

#include "sap/verifier.hpp"
#include "sim/time.hpp"

namespace cra::sap {

/// kIdentify-mode outcome, both lists ascending.
struct IdentifyOutcome {
  std::vector<net::NodeId> bad;      // last entry's token wrong
  std::vector<net::NodeId> missing;  // no entry received
  bool all_good() const noexcept { return bad.empty() && missing.empty(); }
};

struct RoundReport {
  bool verified = false;
  std::uint32_t chal_tick = 0;

  // Timeline (absolute simulation times).
  sim::SimTime t_chal;            // Vrf issued chal
  sim::SimTime inbound_end;       // last device received chal
  sim::SimTime t_att;             // scheduled synchronous attest time
  sim::SimTime measurement_end;   // t_att + T_att
  sim::SimTime t_resp;            // Vrf holds H_S

  // Phases (Figure 3(b)).
  sim::Duration inbound() const noexcept { return inbound_end - t_chal; }
  sim::Duration slack() const noexcept { return t_att - inbound_end; }
  sim::Duration measurement() const noexcept {
    return measurement_end - t_att;
  }
  sim::Duration outbound() const noexcept {
    return t_resp - measurement_end;
  }
  /// T_CA as Equation 6 defines it: t_resp − t_att.
  sim::Duration t_ca() const noexcept { return t_resp - t_att; }
  /// Whole-round execution time as Figure 3(a) plots it.
  sim::Duration total() const noexcept { return t_resp - t_chal; }

  // Network utilization U_CA (Equation 7) over [t_chal, t_resp].
  std::uint64_t u_ca_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;

  std::uint32_t devices = 0;
  /// kCount / kIdentify modes: devices whose token reached Vrf.
  std::uint32_t responded = 0;
  std::uint32_t repolls = 0;  // lossy-network re-polls issued

  /// kIdentify mode only.
  IdentifyOutcome identify;

  /// Degraded-mode per-device classification (adaptive-timeout rounds
  /// only; `degraded.enabled == false` otherwise).
  Verifier::Classification degraded;
  /// Total simulated time parents spent waiting in backoff before
  /// re-polls this round (adaptive mode; 0 otherwise).
  std::uint64_t backoff_wait_ns = 0;
};

}  // namespace cra::sap
