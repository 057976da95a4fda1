// PDES scaling harness: one SAP swarm, every shard-boundary placement.
//
// Runs identical SAP rounds under a chosen (transport, threads,
// processes) placement and prints a machine-checkable result line with a
// digest folded over every deterministic round output (timeline, byte
// ledgers, verification verdict, merged metrics JSON). The engine's
// correctness bar — a run is a pure function of (inputs, shard count) —
// means the digest must be byte-identical across:
//
//   * transports: --transport inproc vs shm
//   * worker threads: --threads 1/2/8
//   * process placements: --procs 1/2/... (shm transport)
//   * and the single-shard placement (--shards 1), which runs the
//     serial event loop
//
// CI's shard-transport-matrix job runs this at several placements and
// jq-asserts the digests agree. Wall-clock rates go to stderr; stdout
// carries only the stable result line.
//
// Multi-process mode is SPMD (see sim/process_group.hpp): the swarm is
// constructed BEFORE the fork so the engine's shared arena is mapped by
// every rank; every rank then executes the same round driver, and rank 0
// — the parent, owner of shard 0 and thus of the authoritative
// root/verifier state — is the only one that prints and the only one
// that writes the --metrics-json and --trace-out files (the other ranks
// leave through child_exit, which runs no destructors).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_args.hpp"
#include "sap/report.hpp"
#include "sap/swarm.hpp"
#include "sim/parallel.hpp"
#include "sim/process_group.hpp"

namespace {

// FNV-1a 64: tiny, dependency-free, and plenty to make "every field of
// every round plus the merged metrics JSON match" a one-number check.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fold_u64(std::uint64_t& h, std::uint64_t v) { fold_bytes(h, &v, 8); }

void fold_round(std::uint64_t& h, const cra::sap::RoundReport& r) {
  fold_u64(h, r.verified ? 1 : 0);
  fold_u64(h, r.chal_tick);
  fold_u64(h, static_cast<std::uint64_t>(r.t_chal.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.inbound_end.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.t_att.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.measurement_end.ns()));
  fold_u64(h, static_cast<std::uint64_t>(r.t_resp.ns()));
  fold_u64(h, r.u_ca_bytes);
  fold_u64(h, r.messages);
  fold_u64(h, r.dropped);
  fold_u64(h, r.responded);
  fold_u64(h, r.repolls);
  fold_u64(h, r.backoff_wait_ns);
}

constexpr const char* kUsage =
    "  --shards S          shard count (0 = one per thread)\n"
    "  --procs P           shard processes (shm transport; SPMD fork)\n"
    "  --transport T       shard boundary: auto|inproc|shm\n"
    "  --pin               pin workers to CPUs (NUMA-aware)\n"
    "  --rounds R          SAP rounds to run (default 2)\n"
    "  --loss P            per-message loss probability (deterministic)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cra;

  std::uint32_t shards = 0;
  std::uint32_t procs = 1;
  std::uint32_t rounds = 2;
  double loss = 0.0;
  bool pin = false;
  sim::ShardTransport transport = sim::ShardTransport::kAuto;

  const benchargs::BenchArgs args = benchargs::parse(
      argc, argv,
      [&](std::string_view flag,
          const std::function<const char*()>& value) -> bool {
        if (flag == "--shards") {
          shards = static_cast<std::uint32_t>(
              std::strtoul(value(), nullptr, 10));
        } else if (flag == "--procs") {
          procs = static_cast<std::uint32_t>(
              std::strtoul(value(), nullptr, 10));
          if (procs == 0) procs = 1;
        } else if (flag == "--rounds") {
          rounds = static_cast<std::uint32_t>(
              std::strtoul(value(), nullptr, 10));
          if (rounds == 0) rounds = 1;
        } else if (flag == "--loss") {
          loss = std::strtod(value(), nullptr);
        } else if (flag == "--pin") {
          pin = true;
        } else if (flag == "--transport") {
          const char* t = value();
          if (std::strcmp(t, "inproc") == 0) {
            transport = sim::ShardTransport::kInproc;
          } else if (std::strcmp(t, "shm") == 0) {
            transport = sim::ShardTransport::kShm;
          } else if (std::strcmp(t, "auto") == 0) {
            transport = sim::ShardTransport::kAuto;
          } else {
            std::fprintf(stderr, "unknown transport '%s'\n", t);
            return false;
          }
        } else {
          return false;
        }
        return true;
      },
      kUsage);

  const std::uint32_t devices = args.devices != 0 ? args.devices : 10'000;
  benchargs::ObsSession obs(args);

  sap::SapConfig cfg;
  cfg.sim.threads = args.threads;
  cfg.sim.shards = shards;
  cfg.sim.processes = procs;
  cfg.sim.transport = transport;
  cfg.sim.pin = pin;

  // Construct BEFORE any fork: the engine's shared arena (rings, epoch
  // cells, metrics windows) must exist in the address space the children
  // inherit.
  auto swarm = sap::SapSimulation::balanced(cfg, devices);
  if (loss > 0.0) swarm.network().set_loss_rate(loss, /*seed=*/42);

  const sim::ParallelScheduler& eng = *swarm.engine();
  if (procs > 1 && eng.processes() != procs) {
    std::fprintf(stderr,
                 "pdes_scale: --procs %u needs a sharded shm engine "
                 "(check --shards/--threads and the transport)\n",
                 procs);
    return 2;
  }

  sim::ProcessGroup& pg = sim::ProcessGroup::instance();
  std::uint32_t rank = 0;
  if (eng.processes() > 1) rank = pg.spawn(eng.processes());

  std::uint64_t digest = kFnvOffset;
  bool all_verified = true;
  const benchargs::WallTimer wall;
  try {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const sap::RoundReport report = swarm.run_round();
      all_verified = all_verified && report.verified;
      fold_round(digest, report);
      const std::string metrics_json = swarm.metrics().to_json();
      fold_bytes(digest, metrics_json.data(), metrics_json.size());
      obs.capture(swarm.metrics(), "sap/");
      swarm.advance_time(sim::Duration::from_ms(250));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdes_scale rank %u: %s\n", rank, e.what());
    if (rank != 0) pg.child_exit(1);
    if (pg.size() > 1) {
      try {
        pg.join();
      } catch (const std::exception& je) {
        std::fprintf(stderr, "pdes_scale join: %s\n", je.what());
      }
    }
    return 1;
  }
  const double sec = wall.sec();

  if (rank != 0) pg.child_exit(0);
  if (pg.size() > 1) pg.join();

  const std::uint64_t events = eng.dispatched();
  std::fprintf(stderr,
               "wall: devices=%u rounds=%u %.3fs (%.0f events/s)\n", devices,
               rounds, sec, sec > 0 ? static_cast<double>(events) / sec : 0.0);

  // The stable result line CI asserts on. One JSON object, stdout only.
  std::printf(
      "{\"devices\":%u,\"rounds\":%u,\"shards\":%u,\"threads\":%u,"
      "\"procs\":%u,\"transport\":\"%s\",\"verified\":%s,"
      "\"digest\":\"%016" PRIx64 "\",\"events\":%" PRIu64
      ",\"cross_posts\":%" PRIu64 ",\"epochs\":%" PRIu64
      ",\"lane_reallocs\":%" PRIu64 "}\n",
      devices, rounds, eng.shard_count(), eng.threads(), eng.processes(),
      eng.transport_name(), all_verified ? "true" : "false", digest, events,
      eng.cross_shard_posts(), eng.epochs(), eng.lane_reallocs());
  return all_verified ? 0 : 1;
}
