// Perf baseline: deterministic hot-path counters + one SIMD speedup ratio.
//
// Four workloads, one JSON artifact (BENCH_perf.json):
//
//   1. MAC microworkload — HMAC-SHA1 over a SAP-sized token input
//      (20-byte PMEM digest + 4-byte challenge), one-shot vs the
//      midstate-cached PrecomputedMac path.
//   2. The same MAC pushed through the Backend batch API on the scalar
//      reference and on the active backend, in alternating chunks; then
//      X25519 keygen on the ladder and on the comb, the same way.
//   3. A two-round SAP attestation at a fixed swarm size on one shard,
//      the serial event loop; round 2 runs with a warm payload pool.
//   4. The same SAP workload on 8 shards at four placements.
//
// The JSON has two sections: "counters" are pure functions of the
// workload (compression-function invocations, events dispatched, pool
// hit/miss tallies, wire bytes) and are asserted byte-for-byte by the CI
// perf-smoke job against the committed BENCH_perf.json — a change here
// means the hot path did more or less *work*, not that the machine was
// slow. The two gauges are ratios of two timings on the same host, so CI
// can put a floor under them: wall.hmac_batch_simd_speedup_x100 is the
// median active-backend over scalar batch speedup, and
// wall.x25519_base_speedup_x100 the median speedup of x25519_base's
// fixed-base comb over the Montgomery ladder at u = 9.
//
// stdout carries the deterministic counter table; the speedup line goes
// to stderr, matching the house bench convention.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mac_cache.hpp"
#include "crypto/tally.hpp"
#include "crypto/x25519.hpp"
#include "sap/swarm.hpp"
#include "sim/parallel.hpp"
#include "sim/process_group.hpp"

namespace {

constexpr std::uint32_t kDefaultDevices = 10'000;
constexpr std::uint64_t kMacIters = 200'000;
constexpr std::size_t kBatchJobs = 512;  // distinct per-device keys
// Passes over the batch per backend: kSpeedupChunks alternating chunks
// of kChunkPasses, so both backends see the same host conditions.
constexpr int kSpeedupChunks = 8;
constexpr std::uint64_t kChunkPasses = 50;
constexpr std::size_t kKeygenScalars = 64;  // X25519 calls per chunk

/// The median of the per-chunk speedups.
double median_speedup(std::vector<double> speedups) {
  std::sort(speedups.begin(), speedups.end());
  const std::size_t n = speedups.size();
  return (speedups[n / 2 - 1] + speedups[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cra;

  std::string out_path = "BENCH_perf.json";
  const benchargs::ExtraFlag extra =
      [&](std::string_view flag,
          const std::function<const char*()>& value) -> bool {
    if (flag == "--out") {
      out_path = value();
      return true;
    }
    return false;
  };
  const benchargs::BenchArgs args = benchargs::parse(
      argc, argv, extra,
      "  --out PATH          write BENCH_perf.json to PATH\n");
  benchargs::ObsSession obs(args);
  obs::MetricsRegistry& reg = obs.registry();

  // ---- Workload 1: MAC microloop (one-shot vs midstate-cached) ----
  const Bytes key(20, 0x5a);
  const Bytes content(20, 0xc3);                    // PMEM-sized prefix
  const std::uint8_t chal_le[4] = {0x39, 0x30, 0x00, 0x00};
  Bytes one_shot_msg = content;
  one_shot_msg.insert(one_shot_msg.end(), chal_le, chal_le + 4);

  crypto::MacBuf mac;
  crypto::reset_compression_tally();
  for (std::uint64_t i = 0; i < kMacIters; ++i) {
    crypto::hmac_into(crypto::HashAlg::kSha1, key, one_shot_msg, mac);
  }
  const std::uint64_t oneshot_comp = crypto::compression_calls_executed();

  crypto::PrecomputedMac cached;
  cached.init(crypto::HashAlg::kSha1, key);
  crypto::reset_compression_tally();
  for (std::uint64_t i = 0; i < kMacIters; ++i) {
    cached.mac_into(content, BytesView(chal_le, 4), mac);
  }
  const std::uint64_t cached_comp = crypto::compression_calls_executed();

  reg.counter("mac.iterations").inc(kMacIters);
  reg.counter("mac.oneshot_compressions").inc(oneshot_comp);
  reg.counter("mac.cached_compressions").inc(cached_comp);

  // ---- Workload 1b: batch MAC verify, lanes=1 vs lanes=N ----
  // The same token-sized resumed HMAC pushed through the Backend batch
  // API: through the scalar reference (lanes=1) and through the active
  // backend (lanes=N on SIMD-capable hosts), in alternating chunks. The
  // tally invariant makes both compression counters identical — CI
  // asserts exactly that — while the median of the per-chunk time
  // ratios is the SIMD speedup. Counter names carry no backend name on
  // purpose: the JSON must not depend on the host ISA.
  std::vector<crypto::PrecomputedMac> batch_macs(kBatchJobs);
  std::vector<Bytes> batch_prefixes(kBatchJobs);
  for (std::size_t i = 0; i < kBatchJobs; ++i) {
    Bytes k(20, static_cast<std::uint8_t>(i * 37 + 11));
    k[0] = static_cast<std::uint8_t>(i);
    k[1] = static_cast<std::uint8_t>(i >> 8);
    batch_macs[i].init(crypto::HashAlg::kSha1, k);
    batch_prefixes[i] = Bytes(20, static_cast<std::uint8_t>(i * 101 + 7));
  }
  std::vector<crypto::MacJob> batch_jobs(kBatchJobs);
  for (std::size_t i = 0; i < kBatchJobs; ++i) {
    batch_jobs[i] = {&batch_macs[i], batch_prefixes[i], BytesView(chal_le, 4)};
  }
  std::vector<crypto::MacBuf> batch_out(kBatchJobs);

  const crypto::Backend& lanes1 = crypto::scalar_backend();
  const crypto::Backend& lanesN = crypto::active_backend();
  std::uint64_t lanes1_comp = 0, lanesN_comp = 0;
  // One chunk of passes on `backend`: adds its compressions to `comp`
  // and returns its wall time.
  auto chunk = [&](const crypto::Backend& backend, std::uint64_t& comp) {
    crypto::reset_compression_tally();
    const benchargs::WallTimer wall;
    for (std::uint64_t it = 0; it < kChunkPasses; ++it) {
      backend.hmac_batch(batch_jobs.data(), kBatchJobs, batch_out.data());
    }
    const double sec = wall.sec();
    comp += crypto::compression_calls_executed();
    return sec;
  };
  std::vector<double> speedups;
  for (int c = 0; c < kSpeedupChunks; ++c) {
    const double scalar_sec = chunk(lanes1, lanes1_comp);
    const double active_sec = chunk(lanesN, lanesN_comp);
    speedups.push_back(active_sec > 0.0 ? scalar_sec / active_sec : 0.0);
  }
  const double speedup = median_speedup(speedups);

  const std::uint64_t batch_total =
      kBatchJobs * kChunkPasses * kSpeedupChunks;
  reg.counter("mac.batch_iterations").inc(batch_total);
  reg.counter("mac.batch_lanes1_compressions").inc(lanes1_comp);
  reg.counter("mac.batch_lanesN_compressions").inc(lanesN_comp);
  reg.gauge("wall.hmac_batch_simd_speedup_x100")
      .set(static_cast<std::int64_t>(speedup * 100.0));
  std::fprintf(stderr,
               "wall: hmac_batch %s x%zu over %s: median speedup x%.2f "
               "(%d alternating chunks of %llu passes)\n",
               lanesN.name(), lanesN.lanes(crypto::HashAlg::kSha1),
               lanes1.name(), speedup, kSpeedupChunks,
               static_cast<unsigned long long>(kChunkPasses));

  // ---- Workload 1c: X25519 keygen, ladder vs fixed-base comb ----
  // x25519(k, 9) and x25519_base(k) return the same public key; the
  // ladder is the reference. Neither touches the compression tally, so
  // this workload adds only the gauge. The first comb call, which builds
  // its table, is outside the timed chunks.
  std::vector<crypto::X25519Key> scalars(kKeygenScalars);
  for (std::size_t i = 0; i < kKeygenScalars; ++i) {
    for (std::size_t b = 0; b < crypto::kX25519KeySize; ++b) {
      scalars[i][b] = static_cast<std::uint8_t>(i * 131 + b * 17 + 1);
    }
  }
  crypto::X25519Key nine{};
  nine[0] = 9;
  (void)crypto::x25519_base(scalars[0]);
  auto keygen_chunk = [&](bool comb) {
    const benchargs::WallTimer wall;
    for (const crypto::X25519Key& k : scalars) {
      (void)(comb ? crypto::x25519_base(k) : crypto::x25519(k, nine));
    }
    return wall.sec();
  };
  std::vector<double> keygen_speedups;
  for (int c = 0; c < kSpeedupChunks; ++c) {
    const double ladder_sec = keygen_chunk(false);
    const double comb_sec = keygen_chunk(true);
    keygen_speedups.push_back(comb_sec > 0.0 ? ladder_sec / comb_sec : 0.0);
  }
  const double keygen_speedup = median_speedup(keygen_speedups);
  reg.gauge("wall.x25519_base_speedup_x100")
      .set(static_cast<std::int64_t>(keygen_speedup * 100.0));
  std::fprintf(stderr,
               "wall: x25519_base comb over the u=9 ladder: median speedup "
               "x%.2f (%d alternating chunks of %zu keys)\n",
               keygen_speedup, kSpeedupChunks, kKeygenScalars);

  // ---- Workload 2: SAP rounds on one shard ----
  // Two rounds: round 1 populates the payload freelist, round 2 is the
  // steady state. Pool tallies reset at each round start, so the
  // reported hit/miss figures describe the warm round only. The swarm's
  // construction is tallied on its own (sap.setup_compression_calls):
  // provisioning costs a constant number of compressions per device.
  const std::uint32_t devices =
      args.devices != 0 ? args.devices : kDefaultDevices;
  sap::SapConfig cfg;  // one shard: counters are exact (the tally is
                       // thread-local and everything runs on this thread,
                       // provisioning included)
  crypto::reset_compression_tally();
  auto sim = sap::SapSimulation::balanced(cfg, devices);
  const std::uint64_t setup_comp = crypto::compression_calls_executed();

  crypto::reset_compression_tally();
  const auto round1 = sim.run_round();
  const auto round2 = sim.run_round();
  const std::uint64_t round_comp = crypto::compression_calls_executed();

  if (!round1.verified || !round2.verified) {
    std::fprintf(stderr, "SAP round failed to verify!\n");
    return 1;
  }
  obs.capture(sim.metrics(), "sap/");

  const std::uint64_t dispatched = sim.engine()->dispatched();
  reg.counter("sap.devices").inc(devices);
  reg.counter("sap.rounds").inc(2);
  reg.counter("sap.compression_calls").inc(round_comp);
  reg.counter("sap.setup_compression_calls").inc(setup_comp);
  reg.counter("sap.events_dispatched").inc(dispatched);
  reg.counter("sap.pool_hits").inc(sim.network().payload_pool_hits());
  reg.counter("sap.pool_misses").inc(sim.network().payload_pool_misses());
  reg.counter("sap.pool_bytes").inc(sim.network().payload_bytes_pooled());
  reg.counter("sap.net_bytes")
      .inc(sim.metrics().counter_value("net.bytes_transmitted"));

  // ---- Workload 3: PDES scaling across shard placements ----
  // The same two-round SAP workload on the sharded engine (shards=8),
  // once per placement: inproc lanes at 1/2/8 worker threads and the
  // shared-memory ring transport split across 2 processes. The pdes.*
  // counters (events dispatched, cross-shard posts, conservative
  // epochs, lane reallocations) are recorded from the threads=1 run and
  // asserted equal at every other placement — the engine's "run is a
  // pure function of (inputs, shard count)" bar, enforced right here so
  // the committed BENCH_perf.json doubles as the invariance golden.
  struct Placement {
    const char* name;
    std::uint32_t threads;
    sim::ShardTransport transport;
    std::uint32_t procs;
  };
  const Placement placements[] = {
      {"t1", 1, sim::ShardTransport::kInproc, 1},
      {"t2", 2, sim::ShardTransport::kInproc, 1},
      {"t8", 8, sim::ShardTransport::kInproc, 1},
      {"shm2p", 2, sim::ShardTransport::kShm, 2},
  };
  std::uint64_t pdes_events = 0, pdes_cross = 0, pdes_epochs = 0;
  std::uint64_t pdes_lane_reallocs = 0;
  for (const Placement& p : placements) {
    sap::SapConfig pcfg;
    pcfg.sim.threads = p.threads;
    pcfg.sim.shards = 8;
    pcfg.sim.transport = p.transport;  // explicit: immune to the env var
    pcfg.sim.processes = p.procs;
    auto psim = sap::SapSimulation::balanced(pcfg, devices);
    sim::ProcessGroup& pg = sim::ProcessGroup::instance();
    std::uint32_t rank = 0;
    if (p.procs > 1) rank = pg.spawn(p.procs);
    bool ok = true;
    try {
      ok = psim.run_round().verified;
      psim.advance_time(sim::Duration::from_ms(250));
      ok = psim.run_round().verified && ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pdes[%s] rank %u: %s\n", p.name, rank, e.what());
      if (rank != 0) pg.child_exit(1);
      return 1;
    }
    // Children exit 0 regardless of `ok`: the verifier verdict is only
    // authoritative on rank 0, which owns shard 0.
    if (rank != 0) pg.child_exit(0);
    if (p.procs > 1) pg.join();
    if (!ok) {
      std::fprintf(stderr, "pdes[%s]: SAP round failed to verify!\n", p.name);
      return 1;
    }
    const sim::ParallelScheduler* eng = psim.engine();
    const std::uint64_t ev = eng->dispatched();
    const std::uint64_t cross = eng->cross_shard_posts();
    const std::uint64_t epochs = eng->epochs();
    if (p.name == placements[0].name) {
      pdes_events = ev;
      pdes_cross = cross;
      pdes_epochs = epochs;
      pdes_lane_reallocs = eng->lane_reallocs();
      eng->export_pdes_metrics(reg);
    } else if (ev != pdes_events || cross != pdes_cross ||
               epochs != pdes_epochs) {
      std::fprintf(stderr,
                   "pdes[%s]: placement changed the work! events %llu vs "
                   "%llu, cross %llu vs %llu, epochs %llu vs %llu\n",
                   p.name, static_cast<unsigned long long>(ev),
                   static_cast<unsigned long long>(pdes_events),
                   static_cast<unsigned long long>(cross),
                   static_cast<unsigned long long>(pdes_cross),
                   static_cast<unsigned long long>(epochs),
                   static_cast<unsigned long long>(pdes_epochs));
      return 1;
    }
  }

  // ---- Report ----
  Table table({"counter", "value"});
  table.add_row({"mac.iterations", Table::count(kMacIters)});
  table.add_row({"mac.oneshot_compressions", Table::count(oneshot_comp)});
  table.add_row({"mac.cached_compressions", Table::count(cached_comp)});
  table.add_row({"mac.batch_iterations", Table::count(batch_total)});
  table.add_row({"mac.batch_lanes1_compressions", Table::count(lanes1_comp)});
  table.add_row({"mac.batch_lanesN_compressions", Table::count(lanesN_comp)});
  table.add_row({"sap.devices", Table::count(devices)});
  table.add_row({"sap.compression_calls", Table::count(round_comp)});
  table.add_row({"sap.setup_compression_calls", Table::count(setup_comp)});
  table.add_row({"sap.events_dispatched", Table::count(dispatched)});
  table.add_row({"sap.pool_hits",
                 Table::count(sim.network().payload_pool_hits())});
  table.add_row({"sap.pool_misses",
                 Table::count(sim.network().payload_pool_misses())});
  table.add_row({"sap.pool_bytes",
                 Table::count(sim.network().payload_bytes_pooled())});
  table.add_row({"pdes.events_dispatched", Table::count(pdes_events)});
  table.add_row({"pdes.cross_posts", Table::count(pdes_cross)});
  table.add_row({"pdes.epochs", Table::count(pdes_epochs)});
  table.add_row({"pdes.lane_reallocs", Table::count(pdes_lane_reallocs)});

  std::printf("Perf baseline - deterministic hot-path counters\n");
  std::printf("(wall-clock rates go to stderr and the wall.* gauges; "
              "counters must match BENCH_perf.json)\n\n");
  std::printf("%s", table.to_string().c_str());

  const std::string json = reg.to_json();
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}
