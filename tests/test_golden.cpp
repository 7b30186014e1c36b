// Golden-digest regression net over the scenario registry: every builtin
// scenario is run under a fixed tiny budget and fixed seed, and the byte
// stream of its JSON result document is pinned as an FNV-1a digest. Any
// change to scenario defaults, trial randomness, estimator accounting, or
// result serialization shows up here as a digest mismatch -- cheap to
// re-pin when intentional (the failure message prints the new digest),
// loud when accidental. This complements the statistical tests, which by
// design tolerate exactly the kind of small drift this net catches.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "io/json.h"
#include "stats/sampling.h"
#include "txrx/link.h"

namespace uwb {
namespace {

/// The pinned digests. Regenerate by running this test: each mismatch
/// (or unpinned scenario) prints the "{name, 0x...}" line to paste here.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"gen1_acquisition", 0xf8b2bb43dee9095dULL},
      {"gen1_sync", 0xac70559d82b1baf3ULL},
      {"gen1_waterfall", 0xae7e63298af62718ULL},
      {"gen2_adc_resolution", 0x40faaba8624dfa30ULL},
      {"gen2_backend_ladder", 0xbed3ba9865c46b5ULL},
      {"gen2_chanest_precision", 0x13a3e1287a9f2286ULL},
      {"gen2_cm_grid", 0xc288267e8d2a3140ULL},
      {"gen2_cm_grid_deep", 0xfe3b8474ae8cf997ULL},
      {"gen2_interferer_notch", 0x623d20dcc08fb2f6ULL},
      {"gen2_mlse_isi", 0xbfa3f7f65343e9f6ULL},
      {"gen2_mlse_memory", 0x2a7027faed740270ULL},
      {"gen2_modulation", 0x9bccab44525b6e58ULL},
      {"gen2_pulse_shape", 0xb183c906fc05984cULL},
      {"gen2_rake_fingers", 0x6bfe21b21d54f259ULL},
      {"gen2_spectral_monitor", 0x39f231253ba15284ULL},
  };
  return digests;
}

std::string run_scenario_json(const engine::ScenarioSpec& scenario) {
  const std::string path = ::testing::TempDir() + "golden_" + scenario.name + ".json";
  engine::SweepConfig config;
  config.seed = 0x601D;
  config.workers = 2;  // parallel commit is deterministic; exercise it
  config.stop.min_errors = 1;
  config.stop.max_bits = 100'000;
  config.stop.max_trials = 4;
  engine::SweepEngine engine(config);
  engine::JsonSink sink(path);
  (void)engine.run(scenario, {&sink});
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  std::remove((path + ".run.json").c_str());
  return bytes.str();
}

TEST(GoldenScenarios, EveryBuiltinScenarioIsPinned) {
  // A new scenario must come with a pinned digest; a removed one must
  // drop its pin. Keeps the net total.
  const auto names = engine::ScenarioRegistry::global().names();
  EXPECT_EQ(names.size(), pinned_digests().size());
  for (const auto& name : names) {
    EXPECT_TRUE(pinned_digests().count(name))
        << "unpinned scenario " << name << " -- run the digest test to get its pin";
  }
}

TEST(GoldenScenarios, EveryBuiltinScenarioHasAnExpectationsFile) {
  // Each scenario states its paper claim as bench/expectations/<name>.json,
  // checked in CI by uwb_farm verify against a full run of the scenario.
  for (const auto& name : engine::ScenarioRegistry::global().names()) {
    const std::string path = std::string(UWB_EXPECTATIONS_DIR) + "/" + name + ".json";
    SCOPED_TRACE(path);
    ASSERT_TRUE(std::ifstream(path).good()) << "no expectations file for " << name;
    const io::JsonValue expectations = io::parse_json(farm::read_file(path));
    const io::JsonValue* scenario = expectations.find("scenario");
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(scenario->as_string(), name);
    const io::JsonValue* points = expectations.find("points");
    ASSERT_NE(points, nullptr);
    EXPECT_EQ(points->as_uint64(), engine::ScenarioRegistry::global().make(name).points.size());
  }
}

class GoldenScenarioDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioDigest, TinyBudgetResultDocIsByteStable) {
  const std::string name = GetParam();
  const std::string doc = run_scenario_json(engine::ScenarioRegistry::global().make(name));
  ASSERT_FALSE(doc.empty()) << name << " produced no result document";
  const std::uint64_t digest = farm::fnv1a_digest(doc);
  const auto it = pinned_digests().find(name);
  ASSERT_NE(it, pinned_digests().end())
      << "unpinned scenario " << name << " -- pin as:\n"
      << "      {\"" << name << "\", 0x" << std::hex << digest << "ULL},";
  EXPECT_EQ(digest, it->second)
      << "result bytes changed for " << name << " -- if intentional, re-pin as:\n"
      << "      {\"" << name << "\", 0x" << std::hex << digest << "ULL},";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenScenarioDigest,
    ::testing::ValuesIn(engine::ScenarioRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

// Gen-1 genie-timing variants no registry scenario runs: fresh CM3
// draws (the composite-kernel channel path), aperture jitter (the
// sampler's per-sample Gaussian draws) and an importance-sampled point
// (the float noise tilt on the planned segments). Same budget, seed and
// digest as above, over gen1_waterfall's four points.
struct Gen1Variant {
  const char* name;
  void (*apply)(txrx::LinkSpec&);
  std::uint64_t digest;
};

const Gen1Variant kGen1Variants[] = {
    {"cm3_fresh", [](txrx::LinkSpec& s) { s.options.cm = 3; }, 0x23973367d155a91ULL},
    {"aperture_jitter",
     [](txrx::LinkSpec& s) { s.gen1().aperture_jitter_rms_s = 2e-12; }, 0xb992910d2972a79bULL},
    {"tilted",
     [](txrx::LinkSpec& s) { s.options.sampling.mode = stats::SamplingMode::kNoiseScale; },
     0x664beb0f98812b2fULL},
};

void PrintTo(const Gen1Variant& variant, std::ostream* os) { *os << variant.name; }

class GoldenGen1Variant : public ::testing::TestWithParam<Gen1Variant> {};

TEST_P(GoldenGen1Variant, TinyBudgetResultDocIsByteStable) {
  const Gen1Variant& variant = GetParam();
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen1_waterfall");
  scenario.name += std::string("_") + variant.name;
  for (engine::PointSpec& point : scenario.points) variant.apply(point.link);
  const std::string doc = run_scenario_json(scenario);
  ASSERT_FALSE(doc.empty()) << variant.name << " produced no result document";
  const std::uint64_t digest = farm::fnv1a_digest(doc);
  EXPECT_EQ(digest, variant.digest)
      << "result bytes changed for " << variant.name << " -- if intentional, re-pin as 0x"
      << std::hex << digest << "ULL";
}

INSTANTIATE_TEST_SUITE_P(Variants, GoldenGen1Variant, ::testing::ValuesIn(kGen1Variants),
                         [](const ::testing::TestParamInfo<Gen1Variant>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace uwb
