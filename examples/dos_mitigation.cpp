// DoS mitigation via authenticated requests (paper §VIII).
//
// A network-level attacker injects a forged challenge that reaches
// device 1 just before the verifier's real one. Without request
// authentication the device believes the forgery: it schedules a full
// PMEM measurement against a bogus tick (wasting ~0.5 s of CPU and the
// matching energy), forwards the forgery to its whole subtree (each
// member wastes a measurement too), and then ignores the real challenge
// as a duplicate — so the legitimate round fails. With authentication
// the forgery dies at device 1's MAC check and the real round runs
// untouched.
#include <cstdio>

#include "sap/analysis.hpp"
#include "sap/swarm.hpp"

namespace {

constexpr std::uint32_t kDevices = 62;

struct Outcome {
  bool verified = false;
  std::uint32_t responded = 0;
};

Outcome run_scenario(bool authenticate) {
  cra::sap::SapConfig config;
  config.pmem_size = 16 * 1024;
  config.authenticate_requests = authenticate;
  config.qoa = cra::sap::QoaMode::kCount;
  auto swarm = cra::sap::SapSimulation::balanced(config, kDevices,
                                                 /*seed=*/11);

  // The attacker predicts a plausible near-future tick (it can see the
  // verifier's traffic pattern) and fires a forged chal at device 1,
  // racing ahead of the real request.
  const std::uint32_t forged_tick =
      swarm.clock().time_to_tick_ceil(
          swarm.current_time() +
          cra::sap::request_lead_time(config, swarm.tree().max_depth())) +
      2;
  const cra::Bytes forged = cra::sap::encode_chal(
      forged_tick, /*auth_key=*/{}, config.chal_size());
  swarm.network().send(/*src=*/0, /*dst=*/1, cra::sap::kChalMsg, forged);

  const cra::sap::RoundReport r = swarm.run_round();
  return {r.verified, r.responded};
}

}  // namespace

int main() {
  std::printf("DoS mitigation demo: %u devices; attacker races a forged "
              "chal to device 1\n\n", kDevices);

  const Outcome plain = run_scenario(/*authenticate=*/false);
  std::printf("without request authentication:\n");
  std::printf("  round verified: %s, devices aggregated: %u/%u\n",
              plain.verified ? "yes" : "NO", plain.responded, kDevices);
  std::printf("  -> device 1's subtree (31 devices) burned a full PMEM "
              "measurement on the bogus\n     tick; their tokens cannot "
              "match the verifier's expectation for the real chal\n\n");

  const Outcome authed = run_scenario(/*authenticate=*/true);
  std::printf("with authenticated requests (group key K_req):\n");
  std::printf("  round verified: %s, devices aggregated: %u/%u\n",
              authed.verified ? "yes" : "NO", authed.responded, kDevices);
  std::printf("  -> the forgery died at device 1's MAC check; nobody "
              "wasted a measurement\n");

  return plain.verified || !authed.verified;  // exit 0 iff demo behaved
}
