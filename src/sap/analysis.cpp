#include "sap/analysis.hpp"

#include "device/attest_tcb.hpp"

namespace cra::sap {

std::uint32_t predicted_depth(std::uint32_t devices, std::uint32_t arity) {
  // Heap layout: node i (0 = root) sits at depth floor(log_k(i(k-1)+1)).
  // Depth of the last node = tree depth.
  std::uint32_t depth = 0;
  std::uint64_t level_first = 1;  // first node id at the current depth + 1
  std::uint64_t level_count = arity;
  std::uint64_t covered = 0;
  while (covered < devices) {
    ++depth;
    covered += level_count;
    level_first += level_count;
    level_count *= arity;
  }
  return depth;
}

sim::Duration attest_time(const SapConfig& config) {
  return sim::cycles_to_time(
      device::attest_cycles(config.alg, config.pmem_size + 4,
                            config.attest_overhead_cycles,
                            config.cycles_per_block),
      config.device_hz);
}

sim::Duration aggregate_time(const SapConfig& config) {
  return sim::cycles_to_time(config.aggregate_cycles, config.device_hz);
}

sim::Duration hop_time(const SapConfig& config) {
  const std::uint64_t bits =
      (config.chal_size() + config.link.header_bytes) * 8;
  return sim::transmission_delay(bits, config.link.rate_bps) +
         config.link.per_hop_latency;
}

sim::Duration request_lead_time(const SapConfig& config,
                                std::uint32_t depth) {
  // Equation 9's bound. Under the paper's contention-free model a level
  // costs one chal transmission; with per-radio serialization
  // (LinkParams::serialize_tx) an inner node sends `arity` copies
  // back-to-back before the last child can proceed.
  const std::uint64_t bits =
      (config.chal_size() + config.link.header_bytes) * 8;
  const sim::Duration tx =
      sim::transmission_delay(bits, config.link.rate_bps);
  const std::int64_t copies =
      config.link.serialize_tx ? config.tree_arity : 1;
  const sim::Duration per_level =
      tx * copies + config.link.per_hop_latency;
  return per_level * static_cast<std::int64_t>(depth) +
         config.request_slack;
}

std::uint64_t predicted_u_ca_bytes(const SapConfig& config,
                                   std::uint32_t edges) {
  const std::uint64_t per_link = config.chal_size() + config.token_size() +
                                 2ULL * config.link.header_bytes;
  return per_link * edges;
}

sim::Duration predicted_t_ca(const SapConfig& config, std::uint32_t depth) {
  return attest_time(config) +
         (hop_time(config) + aggregate_time(config)) *
             static_cast<std::int64_t>(depth);
}

sim::Duration predicted_total(const SapConfig& config, std::uint32_t depth) {
  return request_lead_time(config, depth) + predicted_t_ca(config, depth);
}

}  // namespace cra::sap
