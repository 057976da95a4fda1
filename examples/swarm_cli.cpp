// swarm_cli — drive SAP attestation rounds from the command line.
//
//   swarm_cli [options]
//     --devices N        swarm size                      (default 1000)
//     --arity K          tree arity                      (default 2)
//     --topology T       balanced | line | random        (default balanced)
//     --qoa M            binary | count | identify       (default binary)
//     --alg A            sha1 | sha256                   (default sha1)
//     --rounds R         attestation rounds to run       (default 3)
//     --period-ms P      idle time between rounds        (default 500)
//     --loss P           link loss probability           (default 0)
//     --repoll           re-poll silent children (adaptive backoff)
//     --auth             authenticate requests (DoS ext.)
//     --compromise LIST  comma-separated device ids to infect
//     --seed S           deterministic seed              (default 1)
//     --json             emit one JSON object per round instead of rows
//
// Exit status: 0 if every round's verdict matched the injected ground
// truth, 1 otherwise (usable in scripts/CI).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sap/report_json.hpp"
#include "sap/swarm.hpp"

namespace {

using namespace cra;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--devices N] [--arity K] [--topology "
               "balanced|line|random]\n  [--qoa binary|count|identify] "
               "[--alg sha1|sha256] [--rounds R]\n  [--period-ms P] "
               "[--loss P] [--repoll] [--auth]\n  [--compromise "
               "id,id,...] [--seed S]\n",
               argv0);
  std::exit(2);
}

std::vector<net::NodeId> parse_id_list(const std::string& s) {
  std::vector<net::NodeId> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    out.push_back(static_cast<net::NodeId>(std::strtoul(tok.c_str(),
                                                        nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t devices = 1000;
  std::uint32_t arity = 2;
  std::string topology = "balanced";
  std::string qoa = "binary";
  std::string alg = "sha1";
  int rounds = 3;
  long period_ms = 500;
  double loss = 0.0;
  bool repoll = false;
  bool auth = false;
  std::vector<net::NodeId> compromise;
  std::uint64_t seed = 1;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--devices") devices = static_cast<std::uint32_t>(
        std::strtoul(next(), nullptr, 10));
    else if (a == "--arity") arity = static_cast<std::uint32_t>(
        std::strtoul(next(), nullptr, 10));
    else if (a == "--topology") topology = next();
    else if (a == "--qoa") qoa = next();
    else if (a == "--alg") alg = next();
    else if (a == "--rounds") rounds = std::atoi(next());
    else if (a == "--period-ms") period_ms = std::atol(next());
    else if (a == "--loss") loss = std::atof(next());
    else if (a == "--repoll") repoll = true;
    else if (a == "--auth") auth = true;
    else if (a == "--compromise") compromise = parse_id_list(next());
    else if (a == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--json") json = true;
    else usage(argv[0]);
  }
  if (devices == 0 || arity == 0 || rounds <= 0) usage(argv[0]);

  sap::SapConfig config;
  config.tree_arity = arity;
  config.alg = alg == "sha256" ? crypto::HashAlg::kSha256
                               : crypto::HashAlg::kSha1;
  config.qoa = qoa == "count"      ? sap::QoaMode::kCount
               : qoa == "identify" ? sap::QoaMode::kIdentify
                                   : sap::QoaMode::kBinary;
  config.authenticate_requests = auth;
  config.adaptive.enabled = repoll;
  config.adaptive.max_repolls = 3;

  Rng topo_rng(seed);
  net::Tree tree = topology == "line"
                       ? net::line_tree(devices)
                   : topology == "random"
                       ? net::random_tree(devices, arity + 1, topo_rng)
                       : net::balanced_kary_tree(devices, arity);

  sap::SapSimulation swarm(config, std::move(tree), seed);
  if (loss > 0) swarm.network().set_loss_rate(loss, seed);
  for (net::NodeId id : compromise) {
    if (id == 0 || id > devices) {
      std::fprintf(stderr, "bad --compromise id %u\n", id);
      return 2;
    }
    swarm.compromise_device(id);
  }

  if (!json) {
    std::printf("# swarm_cli: N=%u arity=%u topology=%s qoa=%s alg=%s "
                "loss=%.3f%s%s seed=%llu\n",
                devices, arity, topology.c_str(), qoa.c_str(), alg.c_str(),
                loss, repoll ? " repoll" : "",
                auth ? " auth" : "",
                static_cast<unsigned long long>(seed));
    std::printf("# depth=%u  T_att=%.3fs\n", swarm.tree().max_depth(),
                swarm.max_attest_time().sec());
    std::printf("round  verdict  total_s  t_ca_s  bytes      responded\n");
  }

  const bool expect_verified = compromise.empty() && loss == 0.0;
  bool all_as_expected = true;
  for (int r = 1; r <= rounds; ++r) {
    const sap::RoundReport report = swarm.run_round();
    if (json) {
      std::printf("%s\n", sap::report_to_json(report).c_str());
      if (expect_verified && !report.verified) all_as_expected = false;
      if (!compromise.empty() && report.verified) all_as_expected = false;
      swarm.advance_time(sim::Duration::from_ms(period_ms));
      continue;
    }
    std::printf("%-6d %-8s %-8.3f %-7.3f %-10llu %u/%u\n", r,
                report.verified ? "PASS" : "FAIL", report.total().sec(),
                report.t_ca().sec(),
                static_cast<unsigned long long>(report.u_ca_bytes),
                report.responded, report.devices);
    if (!report.identify.bad.empty()) {
      std::printf("       infected:");
      for (auto id : report.identify.bad) std::printf(" %u", id);
      std::printf("\n");
    }
    if (!report.identify.missing.empty()) {
      std::printf("       missing:");
      for (auto id : report.identify.missing) std::printf(" %u", id);
      std::printf("\n");
    }
    if (expect_verified && !report.verified) all_as_expected = false;
    if (!compromise.empty() && report.verified) all_as_expected = false;
    swarm.advance_time(sim::Duration::from_ms(period_ms));
  }
  return all_as_expected ? 0 : 1;
}
