#include "tca/security.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "sap/analysis.hpp"
#include "sap/swarm.hpp"

namespace cra::tca {

const char* strategy_name(AdvStrategy strategy) noexcept {
  switch (strategy) {
    case AdvStrategy::kGuessResult: return "guess-RES_S";
    case AdvStrategy::kGuessToken: return "guess-res_i";
    case AdvStrategy::kZeroToken: return "zero-token";
    case AdvStrategy::kReplayToken: return "replay-token";
    case AdvStrategy::kReplayChal: return "replay-chal";
    case AdvStrategy::kSuppressSubtree: return "suppress-subtree";
    case AdvStrategy::kHonestButLate: return "honest-but-late";
  }
  return "?";
}

std::vector<AdvStrategy> all_strategies() {
  return {AdvStrategy::kGuessResult,  AdvStrategy::kGuessToken,
          AdvStrategy::kZeroToken,    AdvStrategy::kReplayToken,
          AdvStrategy::kReplayChal,   AdvStrategy::kSuppressSubtree,
          AdvStrategy::kHonestButLate};
}

namespace {

struct TrialOutcome {
  bool verified = false;
  bool compromised_at_chal = false;
};

TrialOutcome play_trial(const sap::SapConfig& config, std::uint32_t devices,
                        AdvStrategy strategy, std::uint64_t trial_seed) {
  Rng rng(trial_seed);
  const auto victim =
      static_cast<net::NodeId>(1 + rng.next_below(devices));
  sap::SapSimulation sim = sap::SapSimulation::balanced(
      config, devices, trial_seed);
  net::Network& net = sim.network();

  TrialOutcome out;

  switch (strategy) {
    case AdvStrategy::kGuessResult: {
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      // Replace every report reaching Vrf with fresh guesses; H_S
      // becomes Adv's direct guess at RES_S.
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.dst == 0) {
          return {net::TamperAction::kDeliverModified,
                  rng.next_bytes(m.payload.size())};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kGuessToken: {
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      // Substitute the infected device's (wrong) token with a guess at
      // the correct res_i.
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.src == victim) {
          return {net::TamperAction::kDeliverModified,
                  rng.next_bytes(m.payload.size())};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kZeroToken: {
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.src == victim) {
          return {net::TamperAction::kDeliverModified,
                  Bytes(m.payload.size(), 0)};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kReplayToken: {
      // Round 1 (healthy): record the victim's outgoing report.
      Bytes recorded;
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.src == victim) {
          recorded = m.payload;
        }
        return {};
      });
      if (!sim.run_round().verified) break;  // setup must be healthy
      sim.advance_time(sim::Duration::from_ms(50));

      // Round 2: infect, then replay the stale report. The fresh chal is
      // bound into every res_i, so the stale aggregate cannot match.
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.src == victim &&
            !recorded.empty() && recorded.size() == m.payload.size()) {
          return {net::TamperAction::kDeliverModified, recorded};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kReplayChal: {
      // Round 1 (healthy): record the chal the victim received.
      Bytes recorded_chal;
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kChalMsg && m.dst == victim &&
            recorded_chal.empty()) {
          recorded_chal = m.payload;
        }
        return {};
      });
      if (!sim.run_round().verified) break;
      sim.advance_time(sim::Duration::from_ms(50));

      // Round 2: infect the victim and feed it the stale chal. The
      // secure clock has moved on, so attest's chal-vs-clock check
      // zeroes the token — attack (c) is dead without clock tampering.
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kChalMsg && m.dst == victim &&
            !recorded_chal.empty()) {
          return {net::TamperAction::kDeliverModified, recorded_chal};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kSuppressSubtree: {
      sim.compromise_device(victim);
      out.compromised_at_chal = true;
      // Erase the infected subtree from the report stream entirely.
      net.set_tamper_hook([&](const net::Message& m) -> net::TamperResult {
        if (m.kind == sap::kTokenMsg && m.src == victim) {
          return {net::TamperAction::kDrop, {}};
        }
        return {};
      });
      out.verified = sim.run_round().verified;
      break;
    }
    case AdvStrategy::kHonestButLate: {
      // Compromise strictly after t_att: PMEM(mi, t=chal) == cfg_i, so a
      // passing verification is NOT an Adv win under Definition 4.
      const sim::SimTime lower = sim.current_time() +
                                 sap::request_lead_time(
                                     config, sim.tree().max_depth());
      const std::uint32_t tick = sim.clock().time_to_tick_ceil(lower);
      const sim::SimTime after_att =
          sim.clock().tick_to_time(tick) + sim::Duration::from_ms(1);
      sim.schedule_at(victim, after_att,
                      [&] { sim.compromise_device(victim); });
      out.compromised_at_chal = false;
      out.verified = sim.run_round().verified;
      break;
    }
  }
  return out;
}

}  // namespace

GameResult run_security_game(const sap::SapConfig& config,
                             std::uint32_t devices, AdvStrategy strategy,
                             std::uint32_t trials, std::uint64_t seed) {
  if (devices == 0 || trials == 0) {
    throw std::invalid_argument("run_security_game: empty game");
  }
  GameResult result;
  result.strategy = strategy;
  Rng seeder(seed ^ 0x7c4a5ecu);
  for (std::uint32_t t = 0; t < trials; ++t) {
    const TrialOutcome out =
        play_trial(config, devices, strategy, seeder.next());
    ++result.trials;
    if (out.verified && out.compromised_at_chal) ++result.adv_wins;
    if (!out.verified) ++result.detected;
  }
  return result;
}

}  // namespace cra::tca
