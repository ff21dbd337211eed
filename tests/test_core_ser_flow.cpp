#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numbers>

#include "finser/core/ser_flow.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"

namespace finser::core {
namespace {

/// Minimal-cost flow configuration for unit tests.
SerFlowConfig tiny_config() {
  SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pair_grid_points = 6;
  cfg.characterization.triple_grid_points = 6;
  cfg.characterization.pv_samples_grid = 6;
  cfg.array_mc.strikes = 1500;
  cfg.proton_bins = 3;
  cfg.alpha_bins = 3;
  cfg.seed = 5;
  return cfg;
}

TEST(SerFlow, LayoutMatchesConfig) {
  SerFlow flow(tiny_config());
  EXPECT_EQ(flow.layout().rows(), 2u);
  EXPECT_EQ(flow.layout().cols(), 2u);
  EXPECT_EQ(flow.layout().fins().size(), 24u);
}

TEST(SerFlow, CellModelIsCachedInMemory) {
  SerFlow flow(tiny_config());
  const auto& m1 = flow.cell_model();
  const auto& m2 = flow.cell_model();
  EXPECT_EQ(&m1, &m2);
  EXPECT_EQ(m1.tables.size(), 1u);
}

/// The model_cache hook on an on-disk artifact store: the first flow
/// characterizes and stores the model, the second loads it, and a config
/// change misses (a new fingerprint) and characterizes again.
TEST(SerFlow, DiskCacheRoundTrip) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "finser_flow_cache").string();
  std::filesystem::remove_all(dir);
  const pipeline::ArtifactStore store(dir);
  pipeline::ArtifactBinCache cache(store, "cell_model");

  SerFlowConfig cfg = tiny_config();
  cfg.model_cache = &cache;
  const auto characterizes = [](SerFlow& flow) {
    bool characterized = false;
    flow.cell_model([&](const std::string& msg) {
      if (msg.find("characterizing") != std::string::npos) characterized = true;
    });
    return characterized;
  };
  {
    SerFlow flow(cfg);
    EXPECT_TRUE(characterizes(flow));
    EXPECT_EQ(store.list().size(), 1u);
  }
  {
    SerFlow flow(cfg);
    EXPECT_FALSE(characterizes(flow)) << "the stored model must be loaded";
    EXPECT_EQ(flow.cell_model().config_fingerprint, flow.model_fingerprint());
  }
  // A config change is a different fingerprint: a miss, not a stale load.
  {
    SerFlowConfig cfg2 = cfg;
    cfg2.characterization.q_max_fc *= 1.05;
    SerFlow flow(cfg2);
    EXPECT_TRUE(characterizes(flow));
  }
  std::filesystem::remove_all(dir);
}

TEST(SerFlow, RunAtEnergyReturnsAllVddsAndModes) {
  SerFlow flow(tiny_config());
  const auto res = flow.run_at_energy(phys::Species::kAlpha, 1.0);
  ASSERT_EQ(res.vdds.size(), 1u);
  EXPECT_GE(res.est[0][kModeWithPv].tot, 0.0);
  EXPECT_GE(res.est[0][kModeNominal].tot, 0.0);
}

TEST(SerFlow, SweepProducesBinsAndFit) {
  SerFlow flow(tiny_config());
  const auto res = flow.sweep(env::package_alphas());
  EXPECT_EQ(res.species, phys::Species::kAlpha);
  ASSERT_EQ(res.bins.size(), 3u);
  ASSERT_EQ(res.per_bin.size(), 3u);
  ASSERT_EQ(res.fit.size(), 1u);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const FitResult& f = res.fit[0][mode];
    EXPECT_GE(f.fit_tot, 0.0);
    EXPECT_NEAR(f.fit_tot, f.fit_seu + f.fit_mbu, 1e-9 * (f.fit_tot + 1e-30));
  }
}

TEST(SerFlow, SweepUsesSpeciesSpecificBinning) {
  SerFlowConfig cfg = tiny_config();
  cfg.proton_bins = 4;
  cfg.alpha_bins = 2;
  SerFlow flow(cfg);
  EXPECT_EQ(flow.sweep(env::sea_level_protons()).bins.size(), 4u);
  EXPECT_EQ(flow.sweep(env::package_alphas()).bins.size(), 2u);
}

/// A cluster_surface artifact that passes the store's CRC but carries an
/// entry no query could produce — a 2-cell key holding the 1-bin
/// distribution [1.0] — is rejected whole: the warm sweep recomputes every
/// key and equals the cold one byte for byte.
TEST(SerFlow, MalformedClusterSurfaceArtifactIsRecomputed) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "finser_flow_cluster_surface")
          .string();
  std::filesystem::remove_all(dir);
  const pipeline::ArtifactStore store(dir);
  pipeline::ArtifactBinCache models(store, "cell_model");
  pipeline::ArtifactBinCache clusters(store, "cluster_surface");

  // A grazing alpha beam on 2x2 tiles: tracks cross several cells.
  SerFlowConfig cfg = tiny_config();
  cfg.array_mc.angular = SourceAngularLaw::kBeam;
  const double tilt = 88.0 * std::numbers::pi / 180.0;
  cfg.array_mc.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
  cfg.array_mc.cluster.mode = sram::ClusterMode::k2x2;
  cfg.array_mc.cluster.pv_samples = 2;
  cfg.model_cache = &models;
  cfg.cluster_cache = &clusters;
  const auto sweep_bytes = [&] {
    SerFlow flow(cfg);
    std::vector<std::uint8_t> bytes;
    for (const ArrayMcResult& bin : flow.sweep(env::package_alphas()).per_bin) {
      const std::vector<std::uint8_t> b = encode_result(bin);
      bytes.insert(bytes.end(), b.begin(), b.end());
    }
    return bytes;
  };
  const std::vector<std::uint8_t> cold = sweep_bytes();

  // Rewrite the surface the cold sweep stored: the first 2-cell entry with
  // flip mass answers [1.0] (certainly no flip). Sealed under its own key.
  pipeline::ArtifactKey key;
  for (const auto& entry : store.list()) {
    if (entry.key.kind == "cluster_surface") key = entry.key;
  }
  ASSERT_EQ(key.kind, "cluster_surface");
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(store.try_get(key, blob));
  util::ByteReader r(blob);
  util::ByteWriter w;
  const std::uint64_t entries = r.u64();
  w.u64(entries);
  bool crafted = false;
  for (std::uint64_t e = 0; e < entries; ++e) {
    std::vector<std::uint64_t> words(r.u64());
    for (std::uint64_t& v : words) v = r.u64();
    std::vector<double> dist = r.f64_vec();
    if (!crafted && words[2] == 2 && dist[0] < 1.0) {
      dist = {1.0};
      crafted = true;
    }
    w.u64(words.size());
    for (const std::uint64_t v : words) w.u64(v);
    w.f64_vec(dist);
  }
  ASSERT_TRUE(crafted) << "no 2-cell entry with flip mass in " << entries;
  ASSERT_TRUE(store.put(key, w.take()));

  EXPECT_EQ(sweep_bytes(), cold);
  std::filesystem::remove_all(dir);
}

TEST(McScale, EnvParsingAndDefaults) {
  unsetenv("FINSER_MC_SCALE");
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  setenv("FINSER_MC_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 2.5);
  setenv("FINSER_MC_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  setenv("FINSER_MC_SCALE", "-3", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0);
  unsetenv("FINSER_MC_SCALE");
}

TEST(McScale, RejectsEveryMalformedEnvValue) {
  // Each of these must fall back to 1.0 rather than poisoning downstream
  // Monte-Carlo sizes with NaN/inf/zero scales.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "0", "0.0",
                          "-0.25", "abc", "", "2.5x", "3,5", "--2"}) {
    setenv("FINSER_MC_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(mc_scale_from_env(), 1.0) << "value: \"" << bad << '"';
  }
  // Leading/trailing whitespace around a valid number is tolerated.
  setenv("FINSER_MC_SCALE", "  0.5 ", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 0.5);
  setenv("FINSER_MC_SCALE", "4\t", 1);
  EXPECT_DOUBLE_EQ(mc_scale_from_env(), 4.0);
  unsetenv("FINSER_MC_SCALE");
}

TEST(McScale, AppliesToAllMonteCarloSizes) {
  SerFlowConfig cfg = tiny_config();
  apply_mc_scale(cfg, 3.0);
  EXPECT_EQ(cfg.array_mc.strikes, 4500u);
  EXPECT_EQ(cfg.characterization.pv_samples_single, 30u);
  EXPECT_EQ(cfg.characterization.pv_samples_grid, 18u);
  apply_mc_scale(cfg, 1e-9);  // Floors at 1.
  EXPECT_GE(cfg.array_mc.strikes, 1u);
  EXPECT_THROW(apply_mc_scale(cfg, 0.0), util::InvalidArgument);
}

}  // namespace
}  // namespace finser::core
