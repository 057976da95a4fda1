#include "sap/vs_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/fuzz_mutate.hpp"
#include "common/rng.hpp"
#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

SapConfig cfg() {
  SapConfig c;
  c.pmem_size = 2 * 1024;
  return c;
}

TEST(VsStore, RoundTripThroughString) {
  auto sim = SapSimulation::balanced(cfg(), 12);
  const std::string dump = vs_to_string(sim.verifier());
  EXPECT_NE(dump.find("cra-vs 1"), std::string::npos);
  EXPECT_NE(dump.find("devices 12"), std::string::npos);

  const auto contents =
      vs_from_string(dump, crypto::HashAlg::kSha1, 12);
  ASSERT_EQ(contents.size(), 12u);
  for (net::NodeId id = 1; id <= 12; ++id) {
    EXPECT_EQ(contents[id - 1], sim.verifier().expected_content(id));
  }
}

TEST(VsStore, RestartedVerifierStillVerifiesTheFleet) {
  // The operational scenario: the verifier service restarts; VS comes
  // back from disk, keys come back from the key service (the master
  // seed); verification must agree across the restart.
  auto sim = SapSimulation::balanced(cfg(), 20, /*seed=*/5);
  const std::string path = "/tmp/cra_vs_store_test.vs";
  save_vs(sim.verifier(), path);

  // Corrupt the in-memory VS, then restore from disk.
  for (net::NodeId id = 1; id <= 20; ++id) {
    sim.verifier().set_expected_content(id, to_bytes("garbage"));
  }
  EXPECT_FALSE(sim.run_round().verified);  // VS wrong -> mismatch
  load_vs(sim.verifier(), path);
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(sim.run_round().verified);
  std::remove(path.c_str());
}

TEST(VsStore, RejectsMalformedDumps) {
  EXPECT_THROW(vs_from_string("garbage", crypto::HashAlg::kSha1, 1),
               std::invalid_argument);
  EXPECT_THROW(vs_from_string("cra-vs 2\nalg sha1\ndevices 1\n",
                              crypto::HashAlg::kSha1, 1),
               std::invalid_argument);
  EXPECT_THROW(
      vs_from_string("cra-vs 1\nalg sha256\ndevices 1\ncfg 1 aa\n",
                     crypto::HashAlg::kSha1, 1),  // alg mismatch
      std::invalid_argument);
  EXPECT_THROW(
      vs_from_string("cra-vs 1\nalg sha1\ndevices 2\ncfg 1 aa\ncfg 1 bb\n",
                     crypto::HashAlg::kSha1, 2),  // duplicate id
      std::invalid_argument);
  EXPECT_THROW(
      vs_from_string("cra-vs 1\nalg sha1\ndevices 1\ncfg 9 aa\n",
                     crypto::HashAlg::kSha1, 1),  // id out of range
      std::invalid_argument);
  EXPECT_THROW(
      vs_from_string("cra-vs 1\nalg sha1\ndevices 1\ncfg 1 aa\n",
                     crypto::HashAlg::kSha1, /*expect_devices=*/7),
      std::invalid_argument);
  // A header count the caller did not ask for is refused before it
  // sizes anything: this one would ask for about 100 GB.
  EXPECT_THROW(
      vs_from_string("cra-vs 1\nalg sha1\ndevices 4294967295\ncfg 1 aa\n",
                     crypto::HashAlg::kSha1, 1),
      std::invalid_argument);
}

/// The contents of a parse, or nullopt when vs_from_string refuses it.
std::optional<std::vector<Bytes>> try_parse(const std::string& text,
                                            std::uint32_t devices) {
  try {
    return vs_from_string(text, crypto::HashAlg::kSha1, devices);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

TEST(VsStore, MutatedDumpsParseCanonicallyOrNotAtAll) {
  // Seeded mutations of vs_to_string dumps: bit flips, truncations,
  // splices, and header counts edited up to 2^32 - 1, which the
  // expected count refuses before any allocation. Under ASan (the
  // sanitize CI job) an over-read fails the run. A dump that parses,
  // loaded into a verifier and dumped again, parses to the same
  // contents.
  const std::uint32_t sizes[] = {1, 5, 12};
  Rng rng(2026);
  std::vector<std::string> dumps;
  std::vector<Bytes> corpus;
  for (const std::uint32_t n : sizes) {
    Verifier v(SapConfig{}, n, to_bytes("vs-fuzz-master"));
    for (net::NodeId id = 1; id <= n; ++id) {
      v.set_expected_content(id, rng.next_bytes(1 + rng.next_below(40)));
    }
    dumps.push_back(vs_to_string(v));
    corpus.push_back(to_bytes(dumps.back()));
  }
  const char* const counts[] = {"0",          "1",          "4",
                                "13",         "4294967295", "4294967296",
                                "-1",         "99999999999"};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Rng mut(seed);
    for (int it = 0; it < 1000; ++it) {
      const std::string where =
          "seed " + std::to_string(seed) + " iteration " + std::to_string(it);
      const std::size_t pick = mut.next_below(std::size(sizes));
      const std::uint32_t n = sizes[pick];
      std::string text;
      if (mut.next_below(4) == 0) {
        text = dumps[pick];
        const std::size_t at = text.find("devices ") + 8;
        text.replace(at, text.find('\n', at) - at,
                     counts[mut.next_below(std::size(counts))]);
      } else {
        const Bytes b = fuzz::mutate(mut, corpus[pick], corpus, {});
        text.assign(b.begin(), b.end());
      }
      const auto contents = try_parse(text, n);
      if (!contents.has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      ASSERT_EQ(contents->size(), n) << where;
      Verifier v(SapConfig{}, n, to_bytes("vs-fuzz-master"));
      for (net::NodeId id = 1; id <= n; ++id) {
        v.set_expected_content(id, (*contents)[id - 1]);
      }
      EXPECT_EQ(try_parse(vs_to_string(v), n), contents) << where;
    }
  }
  // The mutations reach both branches of the property.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(VsStore, FileErrorsSurface) {
  auto sim = SapSimulation::balanced(cfg(), 3);
  EXPECT_THROW(save_vs(sim.verifier(), "/nonexistent-dir/x.vs"),
               std::runtime_error);
  EXPECT_THROW(load_vs(sim.verifier(), "/nonexistent-dir/x.vs"),
               std::runtime_error);
}

TEST(VsStore, DumpIsStableAcrossCalls) {
  auto sim = SapSimulation::balanced(cfg(), 5, /*seed=*/9);
  EXPECT_EQ(vs_to_string(sim.verifier()), vs_to_string(sim.verifier()));
}

}  // namespace
}  // namespace cra::sap
