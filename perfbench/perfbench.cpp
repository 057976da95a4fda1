// perfbench: the repository's end-to-end benchmark driver.
//
// One binary, four workloads, each driven only through public entry
// points (sap::SapSimulation, seda::SedaSimulation, wire::VerifierDaemon /
// wire::AgentRunner, crypto::Backend, crypto::x25519*, sap::Verifier,
// wire::AgentCore, wire::Journal). Every layer is measured from outside:
// by timing calls into these functions and by reading their public
// counters. Nothing inside src/ is instrumented for this driver.
//
//   sap_200k        SAP, balanced binary tree, binary QoA, lossless, 8
//                   shards on min(4, nproc) threads: setup, one cold round,
//                   then warm rounds separated by advance_time(250 ms).
//   seda_20k_join   SEDA, same engine shape: setup, run_join(), cold
//                   round, warm rounds.
//   wire_unpaced    VerifierDaemon + 2 AgentRunner threads on loopback,
//                   10^4 devices, identify mode, period 1 ms (a closed
//                   loop: the next round opens at the first tick after
//                   the previous one closed), no journal.
//   wire_journal    the same with DaemonConfig::journal_path set.
//
// A run repeats a fixed unit of work (a "rep": setup plus rounds) while
// one more rep still fits in --seconds, so a faster program does more
// reps, never different ones. Round times are medians over the run's
// samples; one-shot phases (setup, first round) are their mean.
//
// --trace 0 measures the end-to-end metrics with no trace sink installed.
// --trace 1 installs an obs::TraceSink, wraps every public call in a
// span, writes the Chrome trace to --trace-out, and measures the
// per-layer metrics (engine counters, crypto and wire micro-timings,
// exact compression tallies from a one-thread replay).
//
// The last stdout line is one JSON object: correct / attempted / failed,
// every metric with its unit, sample count and a "computed" flag (shares
// estimated from other measurements), the stamp of what produced it, and
// the failed checks. perfbench/run.py turns it into the benchmark result.
// The exit code is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "crypto/backend.hpp"
#include "crypto/kdf.hpp"
#include "crypto/mac_cache.hpp"
#include "crypto/tally.hpp"
#include "crypto/x25519.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sap/messages.hpp"
#include "sap/swarm.hpp"
#include "sap/verifier.hpp"
#include "seda/seda.hpp"
#include "wire/agent.hpp"
#include "wire/daemon.hpp"
#include "wire/frame.hpp"
#include "wire/journal.hpp"

namespace {

using namespace cra;

// ---------------------------------------------------------------- helpers

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Mean of the last third over the mean of the first third (>= 1 slows).
double drift(const std::vector<double>& walls) {
  const auto third = static_cast<std::ptrdiff_t>(walls.size() / 3);
  if (third == 0) return 1.0;
  const double head = mean({walls.begin(), walls.begin() + third});
  const double tail = mean({walls.end() - third, walls.end()});
  return head > 0.0 ? tail / head : 1.0;
}

/// Whether a run that started at `t_start` and has done `reps` reps
/// starts another: always the first, then only if the midpoint of one
/// more rep of the mean length so far falls within `seconds`, so runs
/// end within half a rep of `seconds`.
bool another_rep(double t_start, std::size_t reps, double seconds) {
  if (reps == 0) return true;
  const double elapsed = mono_s() - t_start;
  return elapsed + 0.5 * elapsed / static_cast<double>(reps) <= seconds;
}

/// Upper bound of the log2 bucket holding the median of `h`.
double p50_upper_bound(const obs::Histogram& h) {
  const std::uint64_t want = h.count() / 2;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    seen += h.buckets()[i];
    if (seen > want) {
      return i == 0 ? 0.0 : static_cast<double>((1ull << i) - 1);
    }
  }
  return static_cast<double>(h.max());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;       // Chrome trace file (--trace 1)
  std::string scratch = ".";   // where temporary journals live
  std::uint32_t devices = 0;   // 0 = the workload's default
  std::uint32_t rounds = 0;    // warm rounds per rep / rounds per daemon run
  bool inject_fault = false;   // self-test: plant a forged token
};

constexpr std::uint32_t kShards = 8;  // shards of the simulated swarms
constexpr std::uint32_t kAgents = 2;  // agent threads of the wire workloads

// ----------------------------------------------------------------- report

/// Metrics, operation accounting and the stamp of one run.
class Report {
 public:
  /// A value measured once per sample, reported as the samples' median.
  void sampled(const std::string& name, const char* unit,
               const std::vector<double>& values, bool computed = false) {
    metrics_[name] = of(unit, median(values), values, computed, "median");
  }
  /// A one-shot phase (setup, the cold round) sampled once per rep,
  /// reported as the mean of the run's few samples. On a host whose speed
  /// switches between slow and fast phases a few seconds long, the mean
  /// of a few samples moves smoothly with the share of slow time in the
  /// run, where their median jumps between the two modes.
  void averaged(const std::string& name, const char* unit,
                const std::vector<double>& values) {
    metrics_[name] = of(unit, mean(values), values, false, "mean");
  }
  void value(const std::string& name, const char* unit, double v,
             std::size_t samples = 1, bool computed = false) {
    metrics_[name] = {unit, v, samples, computed, v, v, v, v, v, "single"};
  }
  double get(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }

  /// `attempted` operations of which `failed` did not pass their checks.
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed != 0) {
      failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                          std::to_string(attempted) + ")");
      std::fprintf(stderr, "perfbench: FAILED %s\n", failures_.back().c_str());
    }
  }
  /// One operation checked against one condition.
  bool check(bool ok, const std::string& what) {
    ops(1, ok ? 0 : 1, what);
    return ok;
  }

  void stamp(const std::string& key, const std::string& v) { text_[key] = v; }
  void stamp(const std::string& key, std::uint64_t v) { nums_[key] = v; }

  bool correct() const { return failed_ == 0 && attempted_ != 0; }

  std::string json() const {
    JsonWriter w;
    w.begin_object();
    w.field("correct", correct());
    w.field("attempted", attempted_);
    w.field("failed", failed_);
    w.key("metrics").begin_object();
    for (const auto& [name, m] : metrics_) {
      w.key(name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.field("samples", static_cast<std::uint64_t>(m.samples));
      w.field("computed", m.computed);
      w.field("estimator", m.estimator);
      w.field("min", m.min);
      w.field("q1", m.q1);
      w.field("median", m.median);
      w.field("q3", m.q3);
      w.field("mean", m.mean);
      w.end_object();
    }
    w.end_object();
    w.key("stamp").begin_object();
    for (const auto& [k, v] : text_) w.field(k, v);
    for (const auto& [k, v] : nums_) w.field(k, v);
    w.end_object();
    w.key("failures").begin_array();
    for (const std::string& f : failures_) w.value(f);
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Metric {
    const char* unit;
    double value;
    std::size_t samples;
    bool computed;
    double min, q1, median, q3, mean;  // of the samples
    const char* estimator;
  };
  static Metric of(const char* unit, double v, const std::vector<double>& s,
                   bool computed, const char* estimator) {
    return {unit,
            v,
            s.size(),
            computed,
            quantile(s, 0.0),
            quantile(s, 0.25),
            quantile(s, 0.5),
            quantile(s, 0.75),
            mean(s),
            estimator};
  }
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> text_;
  std::map<std::string, std::uint64_t> nums_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The trace sink of a --trace 1 run. Spans record only while a sink is
/// installed, so the untraced halves of the overhead comparison toggle
/// it off; the workers of the engine are created per run(), after the
/// toggle, as obs::set_global_sink requires.
class Tracing {
 public:
  explicit Tracing(bool enabled) : enabled_(enabled) { set(enabled); }
  ~Tracing() { obs::set_global_sink(nullptr); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set(bool on) { obs::set_global_sink(on && enabled_ ? &sink_ : nullptr); }
  bool write(const std::string& path) const { return sink_.write_file(path); }

 private:
  bool enabled_;
  obs::TraceSink sink_;
};

/// ABBA order for the traced/untraced alternation: cancels a linear
/// drift across the sequence.
bool abba_traced(std::size_t i) { return i % 4 == 1 || i % 4 == 2; }

// --------------------------------------------------------- crypto probes

struct CryptoProbe {
  double hmac_batch_ns = 0.0;     // per token-sized job
  double compressions_per_job = 0.0;
  double x25519_base_us = 0.0;
  double x25519_us = 0.0;
};

CryptoProbe probe_crypto(std::uint64_t seed) {
  obs::Span span("bench.probe.crypto");
  CryptoProbe out;
  // Token-shaped jobs: 20-byte digest prefix + 4-byte challenge under
  // per-device midstate-cached keys, in the agents' 512-job chunks.
  constexpr std::size_t kJobs = 512;
  const Bytes master = to_bytes("perfbench-crypto-" + std::to_string(seed));
  std::vector<crypto::PrecomputedMac> macs(kJobs);
  std::vector<Bytes> prefixes(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    macs[i].init(crypto::HashAlg::kSha1,
                 crypto::derive_device_key(master, static_cast<std::uint32_t>(i), 20));
    prefixes[i] = Bytes(20, static_cast<std::uint8_t>(i * 101 + seed));
  }
  const std::uint8_t chal[4] = {0x39, 0x30, 0x00, 0x00};
  std::vector<crypto::MacJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i] = {&macs[i], prefixes[i], BytesView(chal, 4)};
  }
  std::vector<crypto::MacBuf> outbuf(kJobs);
  const crypto::Backend& backend = crypto::active_backend();
  std::vector<double> per_job;
  crypto::reset_compression_tally();
  std::uint64_t batches = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = mono_s();
    for (int it = 0; it < 40; ++it, ++batches) {
      backend.hmac_batch(jobs.data(), kJobs, outbuf.data());
    }
    per_job.push_back((mono_s() - t0) * 1e9 / (40.0 * kJobs));
  }
  out.compressions_per_job =
      static_cast<double>(crypto::compression_calls_executed()) /
      static_cast<double>(batches * kJobs);
  out.hmac_batch_ns = median(per_job);

  crypto::X25519Key sk{};
  for (std::size_t i = 0; i < sk.size(); ++i) {
    sk[i] = static_cast<std::uint8_t>(seed * 31 + i);
  }
  crypto::X25519Key pk = crypto::x25519_base(sk);
  std::vector<double> base_us, dh_us;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = mono_s();
    for (int it = 0; it < 40; ++it) {
      sk[0] = static_cast<std::uint8_t>(it);
      pk = crypto::x25519_base(sk);
    }
    base_us.push_back((mono_s() - t0) * 1e6 / 40.0);
    t0 = mono_s();
    for (int it = 0; it < 40; ++it) pk = crypto::x25519(sk, pk);
    dh_us.push_back((mono_s() - t0) * 1e6 / 40.0);
  }
  out.x25519_base_us = median(base_us);
  out.x25519_us = median(dh_us);
  return out;
}

// -------------------------------------------------------- simulated swarms

/// Engine and network counters of the round that just ran.
struct RoundCounts {
  double events = 0, cross = 0, epochs = 0, reallocs = 0;
  double messages = 0, bytes = 0, dropped = 0;
  double imbalance = 0;  // max over mean per-shard messages attempted
};

struct EngineSnap {
  std::uint64_t events = 0, cross = 0, epochs = 0, reallocs = 0;
};

EngineSnap snap(const sim::ParallelScheduler* e) {
  if (e == nullptr) return {};
  return {e->dispatched(), e->cross_shard_posts(), e->epochs(),
          e->lane_reallocs()};
}

template <typename Sim>
RoundCounts round_counts(const Sim& sim, const EngineSnap& before) {
  RoundCounts c;
  const EngineSnap after = snap(sim.engine());
  c.events = static_cast<double>(after.events - before.events);
  c.cross = static_cast<double>(after.cross - before.cross);
  c.epochs = static_cast<double>(after.epochs - before.epochs);
  c.reallocs = static_cast<double>(after.reallocs - before.reallocs);
  const obs::MetricsRegistry& m = sim.metrics();
  c.messages = static_cast<double>(m.counter_value("net.messages_sent"));
  c.bytes = static_cast<double>(m.counter_value("net.bytes_transmitted"));
  c.dropped = static_cast<double>(m.counter_value("net.messages_dropped"));
  if (const sim::ParallelScheduler* e = sim.engine()) {
    double max = 0.0, sum = 0.0;
    for (std::uint32_t s = 0; s < e->shard_count(); ++s) {
      const double v = static_cast<double>(
          e->shard_metrics(s).counter_value("net.messages_attempted"));
      max = std::max(max, v);
      sum += v;
    }
    c.imbalance = sum > 0.0 ? max / (sum / e->shard_count()) : 0.0;
  }
  return c;
}

/// Per-round samples over every warm round of a run.
struct WarmSamples {
  std::vector<double> wall, traced_wall, untraced_wall, cpu_util;
  std::vector<double> events, cross, cross_share, epochs, reallocs;
  std::vector<double> events_per_s, messages, bytes, dropped, imbalance;
  std::vector<double> drift;  // one per rep
  double loop_wall = 0.0;     // warm rounds + advance_time, all reps
  std::size_t loop_rounds = 0;

  void add(const RoundCounts& c, double wall_s, double cpu, unsigned threads,
           bool traced) {
    wall.push_back(wall_s);
    (traced ? traced_wall : untraced_wall).push_back(wall_s);
    cpu_util.push_back(cpu / (wall_s * threads));
    events.push_back(c.events);
    cross.push_back(c.cross);
    cross_share.push_back(c.events > 0 ? c.cross / c.events : 0.0);
    epochs.push_back(c.epochs);
    reallocs.push_back(c.reallocs);
    events_per_s.push_back(c.events / wall_s);
    messages.push_back(c.messages);
    bytes.push_back(c.bytes);
    dropped.push_back(c.dropped);
    imbalance.push_back(c.imbalance);
  }
};

/// The protocol-specific half of a simulated workload.
struct SapOps {
  using Sim = sap::SapSimulation;
  static constexpr const char* kName = "sap";
  static inline std::vector<double> repolls;  // per round, this process
  static std::unique_ptr<Sim> make(const sap::SapConfig& cfg, net::Tree tree,
                                   std::uint64_t seed, bool fault) {
    auto sim = std::make_unique<Sim>(cfg, std::move(tree), seed);
    if (fault) sim->compromise_device(1);  // forged token from device 1
    return sim;
  }
  static bool join(Sim&, Report&) { return true; }  // SAP has no join phase
  static bool round(Sim& sim, Report& r, const char* what) {
    const sap::RoundReport rep = sim.run_round();
    repolls.push_back(rep.repolls);
    const obs::MetricsRegistry& m = sim.metrics();
    const bool ledger = m.counter_value("net.messages_sent") +
                            m.counter_value("net.messages_dropped") ==
                        m.counter_value("net.messages_attempted");
    return r.check(rep.verified && rep.responded == rep.devices &&
                       rep.repolls == 0 && ledger,
                   std::string("sap ") + what + " round verified, all " +
                       "devices responded, ledger balanced");
  }
};

struct SedaOps {
  using Sim = seda::SedaSimulation;
  static constexpr const char* kName = "seda";
  static std::unique_ptr<Sim> make(const seda::SedaConfig& cfg, net::Tree tree,
                                   std::uint64_t seed, bool fault) {
    auto sim = std::make_unique<Sim>(cfg, std::move(tree), seed);
    if (fault) sim->compromise_device(1);
    return sim;
  }
  static inline std::vector<double> join_acks;  // per join, this process
  static bool join(Sim& sim, Report& r) {
    const seda::SedaJoinReport rep = sim.run_join();
    const std::uint64_t acks = sim.metrics().counter_value("seda.join_acks");
    join_acks.push_back(static_cast<double>(acks));
    return r.check(rep.complete && acks == sim.device_count(),
                   "seda join complete, one ack per edge");
  }
  static bool round(Sim& sim, Report& r, const char* what) {
    const seda::SedaRoundReport rep = sim.run_round();
    const obs::MetricsRegistry& m = sim.metrics();
    const bool ledger = m.counter_value("net.messages_sent") +
                            m.counter_value("net.messages_dropped") ==
                        m.counter_value("net.messages_attempted");
    return r.check(rep.verified && rep.total == rep.devices &&
                       rep.mac_failures == 0 && ledger,
                   std::string("seda ") + what + " round verified, all " +
                       "devices counted, no MAC failures, ledger balanced");
  }
};

template <typename Config>
Config engine_config(unsigned threads) {
  Config cfg;
  cfg.sim.threads = threads;
  cfg.sim.shards = kShards;
  cfg.sim.transport = sim::ShardTransport::kInproc;  // immune to the env
  return cfg;
}

/// setup [+ join] + cold round + `warm` warm rounds, repeated while
/// another_rep() allows.
template <typename Ops, typename Config>
void run_simulated(const Options& o, std::uint32_t devices, std::uint32_t warm,
                   Report& r, Tracing& tracing) {
  const unsigned threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  const Config cfg = engine_config<Config>(threads);
  const bool has_join = !std::is_same_v<Ops, SapOps>;

  std::vector<double> setup, tree_build, construct, join, cold;
  WarmSamples ws;
  const double t_start = mono_s();
  for (std::size_t rep = 0; another_rep(t_start, rep, o.seconds); ++rep) {
    tracing.set(true);
    double t0 = mono_s();
    std::unique_ptr<typename Ops::Sim> sim;
    {
      obs::Span span("bench.setup");
      net::Tree tree = [&] {
        obs::Span tspan("bench.tree_build");
        return net::balanced_kary_tree(devices, 2);
      }();
      tree_build.push_back(mono_s() - t0);
      obs::Span cspan("bench.construct");
      sim = Ops::make(cfg, std::move(tree), o.seed, o.inject_fault);
    }
    construct.push_back(mono_s() - t0 - tree_build.back());
    if (has_join) {
      const double tj = mono_s();
      obs::Span span("bench.join");
      Ops::join(*sim, r);
      join.push_back(mono_s() - tj);
    }
    setup.push_back(mono_s() - t0);

    t0 = mono_s();
    {
      obs::Span span("bench.round.cold");
      Ops::round(*sim, r, "cold");
    }
    cold.push_back(mono_s() - t0);

    std::vector<double> walls;
    const double loop0 = mono_s();
    for (std::uint32_t i = 0; i < warm; ++i) {
      const bool traced = tracing.enabled() && abba_traced(i);
      tracing.set(traced);
      {
        obs::Span span("bench.advance_time");
        sim->advance_time(sim::Duration::from_ms(250));
      }
      const EngineSnap before = snap(sim->engine());
      const double c0 = cpu_s();
      t0 = mono_s();
      {
        obs::Span span("bench.round.warm");
        Ops::round(*sim, r, "warm");
      }
      const double wall = mono_s() - t0;
      walls.push_back(wall);
      ws.add(round_counts(*sim, before), wall, cpu_s() - c0, threads, traced);
    }
    ws.loop_wall += mono_s() - loop0;
    ws.loop_rounds += warm;
    ws.drift.push_back(drift(walls));
    tracing.set(true);
    obs::Span span("bench.teardown");
    sim.reset();
  }

  // End-to-end.
  r.averaged("setup_s", "s", setup);
  r.averaged("first_round_s", "s", cold);
  r.sampled("round_s", "s", ws.wall);
  r.value("rounds_per_s", "1/s",
          ws.loop_wall > 0 ? static_cast<double>(ws.loop_rounds) / ws.loop_wall : 0,
          ws.loop_rounds);
  if (has_join) {
    r.averaged("join_s", "s", join);
    r.sampled("seda.join_s", "s", join);
  }

  // Per-layer: engine (sim), network (net), protocol.
  r.sampled("sim.events", "count", ws.events);
  r.sampled("sim.cross_posts", "count", ws.cross);
  r.sampled("sim.cross_share", "ratio", ws.cross_share);
  r.sampled("sim.epochs", "count", ws.epochs);
  r.sampled("sim.lane_reallocs", "count", ws.reallocs);
  r.sampled("sim.events_per_s", "1/s", ws.events_per_s);
  r.sampled("sim.cpu_util", "ratio", ws.cpu_util);
  r.sampled("sim.shard_msg_imbalance", "ratio", ws.imbalance);
  r.sampled("net.tree_build_s", "s", tree_build);
  r.sampled("net.messages", "count", ws.messages);
  r.sampled("net.bytes", "bytes", ws.bytes);
  r.sampled("net.dropped", "count", ws.dropped);
  const std::string p = Ops::kName;
  r.sampled(p + ".round_drift", "ratio", ws.drift);
  if constexpr (std::is_same_v<Ops, SapOps>) {
    r.sampled("sap.provision_s", "s", construct);
    r.sampled("sap.repolls", "count", SapOps::repolls);
  } else {
    r.sampled("seda.construct_s", "s", construct);
    r.sampled("seda.join_acks", "count", SedaOps::join_acks);
  }
  if (tracing.enabled() && !ws.traced_wall.empty() &&
      !ws.untraced_wall.empty()) {
    r.value("obs.trace_overhead", "ratio",
            mean(ws.traced_wall) / mean(ws.untraced_wall),
            ws.wall.size(), true);
  }
  r.stamp("threads", threads);
  r.stamp("shards", kShards);
  r.stamp("processes", 1);
  r.stamp("devices", devices);
  r.stamp("warm_rounds_per_rep", warm);
  r.stamp("reps", setup.size());
}

/// Exact compression tallies: the tally is thread-local, so the same
/// swarm (same shard count, hence the same work) is replayed with one
/// worker thread, which runs every shard on this thread.
template <typename Ops, typename Config>
void count_compressions(const Options& o, std::uint32_t devices, Report& r) {
  obs::Span span("bench.compression_replay");
  const Config cfg = engine_config<Config>(1);
  auto sim = Ops::make(cfg, net::balanced_kary_tree(devices, 2), o.seed,
                       o.inject_fault);
  Ops::join(*sim, r);
  crypto::reset_compression_tally();
  Ops::round(*sim, r, "replay cold");
  const double first = static_cast<double>(crypto::compression_calls_executed());
  sim->advance_time(sim::Duration::from_ms(250));
  crypto::reset_compression_tally();
  Ops::round(*sim, r, "replay warm");
  r.value("crypto.compressions_first_round", "count", first);
  r.value("crypto.compressions_round", "count",
          static_cast<double>(crypto::compression_calls_executed()));
  if constexpr (std::is_same_v<Ops, SedaOps>) {
    const obs::MetricsRegistry& m = sim->metrics();
    r.value("seda.mac_failures", "count",
            static_cast<double>(m.counter_value("seda.mac_failures")));
  }
}

// ------------------------------------------------------------ live wire

struct WireRun {
  double setup_s = 0.0;  // daemon + agent construction
  double run_s = 0.0;    // daemon.run()
  double cpu_s = 0.0;    // process CPU time during daemon.run()
  std::uint64_t completed = 0, verified = 0, missing = 0, untrusted = 0;
  std::uint64_t rx = 0, tx = 0, overrun = 0, repolls = 0;
  double latency_p50_le_us = 0.0;
  std::string error;
};

/// One daemon incarnation with `kAgents` agent threads, `rounds` rounds.
WireRun wire_once(const Options& o, std::uint32_t devices,
                  std::uint32_t rounds, const std::string& journal_path) {
  WireRun out;
  const Bytes master = to_bytes("perfbench-wire-" + std::to_string(o.seed));
  const double t0 = mono_s();
  std::optional<wire::VerifierDaemon> daemon;
  std::vector<std::unique_ptr<wire::AgentRunner>> agents;
  {
    obs::Span span("bench.setup");
    {
      obs::Span dspan("bench.daemon_construct");
      wire::DaemonConfig dcfg;
      dcfg.devices = devices;
      dcfg.master = master;
      dcfg.mode = sap::QoaMode::kIdentify;
      dcfg.period_ms = 1;
      dcfg.rounds = rounds;
      dcfg.journal_path = journal_path;
      daemon.emplace(std::move(dcfg));
    }
    obs::Span aspan("bench.agent_construct");
    std::uint32_t next = 1;
    for (std::uint32_t a = 0; a < kAgents; ++a) {
      const std::uint32_t share = devices / kAgents + (a < devices % kAgents ? 1 : 0);
      if (share == 0) continue;
      wire::AgentRunnerConfig acfg;
      acfg.daemon = wire::Endpoint::loopback(daemon->local_port());
      acfg.agent.first_id = next;
      acfg.agent.count = share;
      acfg.agent.master = master;
      acfg.agent.bad = (o.inject_fault && a == 0) ? 1 : 0;
      agents.push_back(std::make_unique<wire::AgentRunner>(std::move(acfg)));
      next += share;
    }
  }
  out.setup_s = mono_s() - t0;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<std::thread> threads;
  for (auto& agent : agents) {
    threads.emplace_back([&out, &mu, raw = agent.get()] {
      try {
        raw->run();
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        out.error = std::string("agent: ") + e.what();
      }
    });
  }
  // Watchdog: a daemon that never reaches coverage would wait forever.
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; })) {
      out.error = "daemon did not finish within 60 s";
      daemon->stop();
    }
  });
  const double c0 = cpu_s();
  const double r0 = mono_s();
  try {
    obs::Span span("bench.daemon_run");
    daemon->run();
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mu);
    out.error = std::string("daemon: ") + e.what();
  }
  out.run_s = mono_s() - r0;
  out.cpu_s = cpu_s() - c0;
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  for (auto& agent : agents) agent->stop();
  for (std::thread& t : threads) t.join();

  const obs::MetricsRegistry& m = daemon->metrics();
  out.completed = daemon->rounds_completed();
  out.verified = m.counter_value("wire.daemon.rounds_verified");
  out.missing = m.counter_value("wire.daemon.tokens_missing");
  out.untrusted = m.counter_value("wire.daemon.devices_untrusted");
  out.rx = m.counter_value("wire.daemon.rx_datagrams");
  out.tx = m.counter_value("wire.daemon.tx_datagrams");
  out.overrun = m.counter_value("wire.daemon.rounds_overrun");
  out.repolls = m.counter_value("wire.daemon.repolls");
  if (const obs::Histogram* h = m.find_histogram("wire.daemon.round_latency_us")) {
    out.latency_p50_le_us = p50_upper_bound(*h);
  }
  return out;
}

void wire_checks(const WireRun& w, std::uint32_t rounds, Report& r) {
  if (!w.error.empty()) std::fprintf(stderr, "perfbench: %s\n", w.error.c_str());
  const std::uint64_t failed =
      std::max<std::uint64_t>(rounds - std::min<std::uint64_t>(w.verified, rounds),
                              (w.missing != 0 || w.untrusted != 0 ||
                               w.completed != rounds || !w.error.empty())
                                  ? 1
                                  : 0);
  r.ops(rounds, failed,
        "wire rounds completed and verified, no tokens missing, no "
        "untrusted devices");
}

/// A fresh journal base path per daemon incarnation (a reused path would
/// be recovered as a restart).
class JournalDir {
 public:
  explicit JournalDir(const std::string& scratch) {
    std::string tmpl = scratch + "/perfbench-journal-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a journal directory in " + scratch);
    }
    dir_ = tmpl;
  }
  ~JournalDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  JournalDir(const JournalDir&) = delete;
  JournalDir& operator=(const JournalDir&) = delete;

  std::string next() { return dir_ + "/verifier-" + std::to_string(n_++); }

 private:
  std::string dir_;
  std::uint32_t n_ = 0;
};

void run_wire(const Options& o, std::uint32_t devices, std::uint32_t rounds,
              bool journal, Report& r, Tracing& tracing) {
  std::optional<JournalDir> jdir;
  if (journal) jdir.emplace(o.scratch);
  const auto path = [&] { return jdir ? jdir->next() : std::string(); };

  std::vector<double> setup, first, round_s, cpu_util, rx, tx, overrun,
      repolls, p50, traced_round, untraced_round;
  const unsigned threads = 1 + kAgents;
  const double t_start = mono_s();
  for (std::size_t rep = 0; another_rep(t_start, rep, o.seconds); ++rep) {
    const bool traced = tracing.enabled() && abba_traced(rep);
    tracing.set(traced);
    // Cold start to first verdict: daemon.run() of a fresh daemon that
    // runs one round — agent registration, the first challenge, and the
    // verifier's first classify, which derives every device key.
    const WireRun cold = wire_once(o, devices, 1, path());
    wire_checks(cold, 1, r);
    setup.push_back(cold.setup_s);
    first.push_back(cold.run_s);

    const WireRun w = wire_once(o, devices, rounds, path());
    wire_checks(w, rounds, r);
    setup.push_back(w.setup_s);
    const double per_round = w.run_s / rounds;
    round_s.push_back(per_round);
    (traced ? traced_round : untraced_round).push_back(per_round);
    cpu_util.push_back(w.cpu_s / (w.run_s * threads));
    rx.push_back(static_cast<double>(w.rx) / rounds);
    tx.push_back(static_cast<double>(w.tx) / rounds);
    overrun.push_back(static_cast<double>(w.overrun) / rounds);
    repolls.push_back(static_cast<double>(w.repolls));
    p50.push_back(w.latency_p50_le_us);
  }
  tracing.set(true);

  r.averaged("setup_s", "s", setup);
  r.averaged("first_round_s", "s", first);
  r.sampled("round_s", "s", round_s);
  r.value("rounds_per_s", "1/s", 1.0 / mean(round_s), round_s.size());
  r.sampled("wire.rx_datagrams_per_round", "count", rx);
  r.sampled("wire.tx_datagrams_per_round", "count", tx);
  r.sampled("wire.rounds_overrun_per_round", "ratio", overrun);
  r.sampled("wire.repolls", "count", repolls);
  r.sampled("wire.cpu_util", "ratio", cpu_util);
  r.sampled("wire.round_latency_p50_le_us", "us", p50);
  if (tracing.enabled() && !traced_round.empty() && !untraced_round.empty()) {
    r.value("obs.trace_overhead", "ratio",
            mean(traced_round) / mean(untraced_round), round_s.size(), true);
  }
  r.stamp("threads", threads);
  r.stamp("shards", 0);
  r.stamp("processes", 1);
  r.stamp("agents", kAgents);
  r.stamp("devices", devices);
  r.stamp("rounds_per_daemon_run", rounds);
  r.stamp("reps", round_s.size());
  r.stamp("journal", journal ? "on" : "off");
}

/// Wire layer micro-timings: agent token sweep, verifier classify, and
/// journal append/sync, each a timed call into the public API.
void probe_wire(const Options& o, std::uint32_t devices, Report& r) {
  obs::Span span("bench.probe.wire");
  const Bytes master = to_bytes("perfbench-wire-" + std::to_string(o.seed));
  const std::size_t token_size = 20;  // HMAC-SHA1
  const std::uint32_t share = devices / kAgents;

  // Tokens for the whole swarm, as the agents produce them.
  std::vector<wire::AgentCore> cores;
  std::uint32_t next = 1;
  for (std::uint32_t a = 0; a < kAgents; ++a) {
    wire::AgentConfig cfg;
    cfg.first_id = next;
    cfg.count = a + 1 == kAgents ? devices - next + 1 : share;
    cfg.master = master;
    cores.emplace_back(std::move(cfg));
    next += cores.back().config().count;
  }
  sap::SapConfig vcfg;
  vcfg.qoa = sap::QoaMode::kIdentify;
  vcfg.adaptive.enabled = true;
  sap::Verifier verifier(vcfg, devices, master);
  for (std::uint32_t id = 1; id <= devices; ++id) {
    verifier.set_expected_content(id, wire::device_content(master, id, 64));
  }
  const auto round_reports = [&](std::uint32_t tick) {
    std::vector<sap::DeviceReport> reports;
    reports.reserve(devices);
    for (wire::AgentCore& core : cores) {
      for (const Bytes& p : core.token_payloads(tick, {})) {
        auto entries = sap::decode_identify_ex(p, token_size);
        if (entries) {
          for (auto& e : *entries) reports.push_back(std::move(e));
        }
      }
    }
    return reports;
  };
  // Compressions per round on both ends of the wire: the first round
  // pays the verifier's lazy per-device key derivation.
  std::uint32_t tick = 1;
  crypto::reset_compression_tally();
  {
    const auto reports = round_reports(tick);
    const auto verdict = verifier.classify(reports, tick);
    r.check(verdict.healthy == devices, "wire probe round classified healthy");
  }
  r.value("crypto.compressions_first_round", "count",
          static_cast<double>(crypto::compression_calls_executed()));
  crypto::reset_compression_tally();
  const std::uint32_t reports_tick = ++tick;
  const std::vector<sap::DeviceReport> reports = round_reports(reports_tick);
  {
    const auto verdict = verifier.classify(reports, reports_tick);
    r.check(verdict.healthy == devices, "wire probe round classified healthy");
  }
  r.value("crypto.compressions_round", "count",
          static_cast<double>(crypto::compression_calls_executed()));

  std::vector<double> payload_us, classify_us;
  for (int i = 0; i < 15; ++i) {
    ++tick;
    double t0 = mono_s();
    const auto payloads = cores[0].token_payloads(tick, {});
    payload_us.push_back((mono_s() - t0) * 1e6);
    if (payloads.empty()) r.check(false, "agent produced token payloads");
    t0 = mono_s();
    const auto verdict = verifier.classify(reports, reports_tick);
    classify_us.push_back((mono_s() - t0) * 1e6);
    if (verdict.healthy != devices) r.check(false, "classify probe healthy");
  }
  r.sampled("wire.token_payloads_us", "us", payload_us);
  r.sampled("wire.classify_us", "us", classify_us);

  // Journal: append one report record of a full token frame, and sync.
  JournalDir dir(o.scratch);
  {
    wire::Journal j = wire::Journal::open(dir.next(), [](std::uint8_t, BytesView) {});
    const std::size_t per_frame = wire::kMaxPayload / (9 + token_size);
    const Bytes rec = wire::VerifierState::encode_reports(
        reports_tick, reports.data(), std::min(per_frame, reports.size()),
        token_size);
    std::vector<double> append_us, sync_us;
    for (int i = 0; i < 200; ++i) {
      const double t0 = mono_s();
      j.append(wire::VerifierState::kReports, rec);
      append_us.push_back((mono_s() - t0) * 1e6);
    }
    for (int i = 0; i < 30; ++i) {
      j.append(wire::VerifierState::kRoundClose,
               wire::VerifierState::encode_round_close(static_cast<std::uint32_t>(i), 1));
      const double t0 = mono_s();
      j.sync();
      sync_us.push_back((mono_s() - t0) * 1e6);
    }
    r.sampled("wire.journal_append_us", "us", append_us);
    r.sampled("wire.journal_sync_us", "us", sync_us);
  }
}

/// Crypto layer: timed per-op costs, and the share of the measured wall
/// time they would account for (computed estimates): HMAC jobs per round
/// over `round_s`, X25519 keygens and agreements over `setup_s`.
void crypto_layer(Report& r, const CryptoProbe& c, double hmac_jobs_per_round,
                  double x25519_base_ops, double x25519_ops) {
  r.value("crypto.hmac_batch_ns", "ns", c.hmac_batch_ns, 7);
  r.value("crypto.x25519_base_us", "us", c.x25519_base_us, 5);
  r.value("crypto.x25519_us", "us", c.x25519_us, 5);
  r.value("crypto.hmac_share_est", "ratio",
          c.hmac_batch_ns * 1e-9 * hmac_jobs_per_round / r.get("round_s"), 1,
          true);
  if (x25519_base_ops + x25519_ops > 0) {
    r.value("crypto.x25519_share_est", "ratio",
            (c.x25519_base_us * x25519_base_ops + c.x25519_us * x25519_ops) *
                1e-6 / r.get("setup_s"),
            1, true);
  }
}

// ------------------------------------------------------------------- main

struct Workload {
  const char* name;
  std::uint32_t devices;
  std::uint32_t rounds;
};

constexpr Workload kWorkloads[] = {
    {"sap_200k", 200'000, 4},
    {"seda_20k_join", 20'000, 8},
    {"wire_unpaced", 10'000, 200},
    {"wire_journal", 10'000, 200},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--scratch DIR]\n"
               "                 [--devices N] [--rounds N] [--inject-fault]\n"
               "workloads: sap_200k seda_20k_join wire_unpaced wire_journal\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string v = next();
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage(("bad number for " + flag).c_str());
      return n;
    };
    if (flag == "--workload") o.workload = next();
    else if (flag == "--seed") o.seed = number();
    else if (flag == "--seconds") o.seconds = static_cast<double>(number());
    else if (flag == "--trace") o.trace = number() != 0;
    else if (flag == "--trace-out") o.trace_out = next();
    else if (flag == "--scratch") o.scratch = next();
    else if (flag == "--devices") o.devices = static_cast<std::uint32_t>(number());
    else if (flag == "--rounds") o.rounds = static_cast<std::uint32_t>(number());
    else if (flag == "--inject-fault") o.inject_fault = true;
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + o.workload).c_str());
  const std::uint32_t devices = o.devices != 0 ? o.devices : wl->devices;
  const std::uint32_t rounds = o.rounds != 0 ? o.rounds : wl->rounds;

  Report r;
  r.stamp("workload", o.workload);
  r.stamp("seed", o.seed);
  r.stamp("trace", o.trace ? 1 : 0);
  r.stamp("nproc", std::thread::hardware_concurrency());
  r.stamp("crypto_backend", crypto::active_backend().name());
  r.stamp("build_type", PERFBENCH_BUILD_TYPE);
  r.stamp("compiler", __VERSION__);
  r.stamp("inject_fault", o.inject_fault ? 1 : 0);

  int rc = 0;
  try {
    Tracing tracing(o.trace);
    const std::string name = o.workload;
    if (name == "sap_200k") {
      run_simulated<SapOps, sap::SapConfig>(o, devices, rounds, r, tracing);
      if (o.trace) {
        count_compressions<SapOps, sap::SapConfig>(o, devices, r);
        const CryptoProbe c = probe_crypto(o.seed);
        crypto_layer(r, c,
                     r.get("crypto.compressions_round") / c.compressions_per_job,
                     0, 0);
      }
    } else if (name == "seda_20k_join") {
      run_simulated<SedaOps, seda::SedaConfig>(o, devices, rounds, r, tracing);
      if (o.trace) {
        count_compressions<SedaOps, seda::SedaConfig>(o, devices, r);
        const CryptoProbe c = probe_crypto(o.seed);
        // One fixed-base keygen per node at construction, two agreements
        // per tree edge in the join.
        crypto_layer(r, c,
                     r.get("crypto.compressions_round") / c.compressions_per_job,
                     devices + 1.0, 2.0 * devices);
        const double total = r.get("setup_s") + r.get("first_round_s") +
                             r.get("round_s") * rounds;
        r.value("seda.setup_share", "ratio", r.get("setup_s") / total, 1, true);
      }
    } else {
      const bool journal = name == "wire_journal";
      run_wire(o, devices, rounds, journal, r, tracing);
      if (o.trace) {
        probe_wire(o, devices, r);
        // Both ends compute one token per device per round.
        crypto_layer(r, probe_crypto(o.seed), 2.0 * devices, 0, 0);
      }
    }
    r.value("peak_rss_mb", "MB", peak_rss_mb());
    if (o.trace && !o.trace_out.empty() && !tracing.write(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
      rc = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    r.check(false, std::string("exception: ") + e.what());
  }
  std::printf("%s\n", r.json().c_str());
  std::fflush(stdout);
  return r.correct() ? rc : 1;
}
