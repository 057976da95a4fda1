// Shared command-line handling for the bench drivers.
//
// Flags:
//   --threads N         run the simulated rounds with N worker threads,
//                       one shard each (1 = one shard, the serial event
//                       loop, byte-identical output to the flag-less run)
//   --devices N         replace the default size sweep with the single
//                       size N
//   --metrics-json PATH write the merged MetricsRegistry of the run as
//                       JSON to PATH (deterministic: identical across
//                       thread counts for the same shard count)
//   --trace-out PATH    record phase spans and write them as Chrome
//                       trace_event JSON to PATH (open in Perfetto)
//   --crypto-backend B  force the crypto backend ("scalar", "simd",
//                       "auto"); same effect as CRA_CRYPTO_BACKEND.
//                       Deterministic outputs are byte-identical across
//                       backends — only wall-clock rates move.
//
// Wall-clock measurements go to stderr so the stdout tables stay stable
// (and byte-comparable) across thread counts; the observability flags
// only ever write to their own files, never to stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "crypto/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cra::benchargs {

struct BenchArgs {
  std::uint32_t threads = 1;  // simulation worker threads
  std::uint32_t devices = 0;  // 0 = the bench's default sweep
  std::string metrics_json;   // empty = no metrics export
  std::string trace_out;      // empty = no tracing
};

/// Bench-specific flag hook: called with (flag, value_fn) for flags the
/// shared parser does not know. Return true if the flag was consumed;
/// call value_fn() (at most once) to pull the flag's argument.
using ExtraFlag = std::function<bool(
    std::string_view, const std::function<const char*()>&)>;

inline void print_usage(const char* prog, const char* extra_usage = nullptr) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --threads N         worker threads, one shard each "
               "(1 = serial)\n"
               "  --devices N         override the bench's size sweep with N\n"
               "  --metrics-json PATH write merged metrics JSON to PATH\n"
               "  --trace-out PATH    write Chrome trace_event JSON to PATH\n"
               "  --crypto-backend B  force the crypto backend "
               "(scalar|simd|auto)\n"
               "  --help              show this message\n",
               prog);
  if (extra_usage != nullptr) std::fprintf(stderr, "%s", extra_usage);
}

inline BenchArgs parse(int argc, char** argv, const ExtraFlag& extra = {},
                       const char* extra_usage = nullptr) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const std::function<const char*()> value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        print_usage(argv[0], extra_usage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0) {
      print_usage(argv[0], extra_usage);
      std::exit(0);
    } else if (std::strcmp(flag, "--threads") == 0) {
      args.threads = static_cast<std::uint32_t>(
          std::strtoul(value(), nullptr, 10));
      if (args.threads == 0) args.threads = 1;
    } else if (std::strcmp(flag, "--devices") == 0) {
      args.devices = static_cast<std::uint32_t>(
          std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(flag, "--metrics-json") == 0) {
      args.metrics_json = value();
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = value();
    } else if (std::strcmp(flag, "--crypto-backend") == 0) {
      const char* name = value();
      if (!crypto::set_active_backend(name)) {
        std::fprintf(stderr, "unknown crypto backend '%s' (available:", name);
        for (const auto* b : crypto::available_backends()) {
          std::fprintf(stderr, " %s", b->name());
        }
        std::fprintf(stderr, " auto)\n");
        std::exit(2);
      }
    } else if (extra && extra(flag, value)) {
      // consumed by the bench's own flag table
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      print_usage(argv[0], extra_usage);
      std::exit(2);
    }
  }
  return args;
}

/// Observability session for a bench run: installs the process-wide
/// TraceSink while alive (iff --trace-out was given) and accumulates
/// captured registries; on destruction writes the trace file and the
/// merged metrics JSON. Construct ONE of these at the top of main(),
/// before any simulation, and call capture() after each measured run:
///
///   ObsSession obs(args);
///   ... report = sim.run_round(); obs.capture(sim.metrics(), "n=100/");
///
/// With neither flag present the session is inert: capture() returns
/// immediately and nothing is written — stdout stays byte-identical.
class ObsSession {
 public:
  explicit ObsSession(BenchArgs args) : args_(std::move(args)) {
    if (!args_.trace_out.empty()) obs::set_global_sink(&sink_);
  }

  ~ObsSession() {
    if (!args_.trace_out.empty()) {
      obs::set_global_sink(nullptr);
      if (!sink_.write_file(args_.trace_out)) {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     args_.trace_out.c_str());
      }
    }
    if (!args_.metrics_json.empty()) {
      const std::string json = merged_.to_json();
      std::FILE* f = std::fopen(args_.metrics_json.c_str(), "wb");
      if (!f) {
        std::fprintf(stderr, "failed to open %s\n", args_.metrics_json.c_str());
        return;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// True when either observability flag was given (lets benches skip
  /// work that only exists to feed the exports).
  bool enabled() const noexcept {
    return !args_.metrics_json.empty() || !args_.trace_out.empty();
  }

  /// Fold a simulation's merged registry into the export under `prefix`
  /// (use a prefix to keep sweep points or protocols apart, e.g.
  /// "n=1000/" or "seda/"). No-op unless --metrics-json was given.
  void capture(const obs::MetricsRegistry& m, std::string_view prefix = {}) {
    if (args_.metrics_json.empty()) return;
    merged_.merge_from(m, prefix);
  }

  /// Direct access for bench-local instruments (fig3b records its phase
  /// gauges here).
  obs::MetricsRegistry& registry() noexcept { return merged_; }

 private:
  BenchArgs args_;
  obs::TraceSink sink_;
  obs::MetricsRegistry merged_;
};

/// Wall-clock stopwatch for the speedup lines on stderr.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cra::benchargs
