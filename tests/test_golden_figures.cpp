/// \file test_golden_figures.cpp
/// \brief Golden-regression locks on the paper's headline figures at a
/// small, fixed Monte-Carlo scale and seed:
///
///   * Fig. 4 — mean e–h pairs per fin strike vs particle energy,
///   * Fig. 8 — array POF vs particle energy (Vdd 0.7/0.8 V, with PV),
///   * Fig. 9 — FIT rate vs Vdd (Eq. 8 over the Fig. 2 spectra).
///
/// Each test reruns the figure pipeline deterministically and compares
/// against a checked-in CSV under tests/golden/ with relative tolerances
/// (the pipelines are bit-deterministic on one platform; the tolerance
/// absorbs libm differences across platforms). To regenerate after an
/// *intentional* physics change:
///
///   FINSER_REGEN_GOLDEN=1 ./finser_golden_tests
///
/// then commit the rewritten CSVs (see docs/observability.md).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "finser/core/ser_flow.hpp"
#include "finser/phys/collection.hpp"
#include "finser/phys/fin_mc.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/csv.hpp"
#include "finser/util/error.hpp"

#ifndef FINSER_GOLDEN_DIR
#error "FINSER_GOLDEN_DIR must point at the checked-in golden CSV directory"
#endif

namespace finser {
namespace {

constexpr double kRelTol = 0.02;    ///< Cross-platform libm headroom.
constexpr double kAbsTol = 1e-12;   ///< For values that are exactly zero.

bool regen_requested() {
  const char* v = std::getenv("FINSER_REGEN_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string golden_path(const std::string& name) {
  return std::string(FINSER_GOLDEN_DIR) + "/" + name + ".csv";
}

/// Minimal CSV loader (numbers only past the header row).
struct GoldenCsv {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

GoldenCsv load_golden(const std::string& name) {
  const std::string path = golden_path(name);
  std::ifstream is(path);
  if (!is) {
    throw util::Error("golden CSV missing: " + path +
                      " (regenerate with FINSER_REGEN_GOLDEN=1)");
  }
  GoldenCsv out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string cell;
    if (out.header.empty()) {
      while (std::getline(ls, cell, ',')) out.header.push_back(cell);
      continue;
    }
    std::vector<double> row;
    while (std::getline(ls, cell, ',')) row.push_back(std::stod(cell));
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// Regenerate when asked, else compare cell by cell with relative tolerance.
void check_against_golden(const util::CsvTable& table, const std::string& name,
                          const std::vector<std::vector<double>>& values) {
  if (regen_requested()) {
    table.write_csv_file(golden_path(name));
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const GoldenCsv golden = load_golden(name);
  ASSERT_EQ(golden.rows.size(), values.size()) << name << ": row count drifted";
  for (std::size_t r = 0; r < values.size(); ++r) {
    ASSERT_EQ(golden.rows[r].size(), values[r].size())
        << name << ": column count drifted at row " << r;
    for (std::size_t c = 0; c < values[r].size(); ++c) {
      const double want = golden.rows[r][c];
      const double got = values[r][c];
      const double tol = kAbsTol + kRelTol * std::abs(want);
      EXPECT_NEAR(got, want, tol)
          << name << " row " << r << " col " << c << " ("
          << (c < golden.header.size() ? golden.header[c] : "?") << ")";
    }
  }
}

/// The fixed test fidelity: small enough for CI, fixed forever — golden
/// values depend on it. Never read FINSER_MC_SCALE here: ambient env must
/// not change what this binary computes.
constexpr double kGoldenScale = 0.002;
constexpr std::uint64_t kGoldenSeed = 20140601;

/// The paper's setup (campaigns/paper.json) with the fixture's own bin
/// counts, seed and thread count, at the fixed test fidelity.
core::SerFlowConfig golden_flow_config() {
  core::SerFlowConfig cfg =
      pipeline::parse_campaign_file(FINSER_PAPER_CAMPAIGN).scenarios.at(0).flow;
  cfg.proton_bins = 6;
  cfg.alpha_bins = 5;
  cfg.seed = kGoldenSeed;
  cfg.threads = 2;  // Results are thread-count invariant; 2 exercises merge.
  core::apply_mc_scale(cfg, kGoldenScale);
  return cfg;
}

TEST(GoldenFigures, Fig4EhPairsVsEnergy) {
  phys::FinStrikeMc::Config cfg;
  cfg.samples = 4000;
  const phys::FinTechnology tech;
  const geom::Aabb fin{{0.0, 0.0, 0.0},
                       {tech.w_fin_nm, tech.l_fin_nm, tech.h_fin_nm}};
  const phys::FinStrikeMc mc(fin, cfg);

  util::CsvTable t({"energy_mev", "alpha_pairs", "proton_pairs",
                    "alpha_hit_fraction", "proton_hit_fraction"});
  std::vector<std::vector<double>> values;
  for (const double e : {0.1, 0.5, 2.0, 10.0, 50.0}) {
    // Fresh per-energy streams: row values are independent of row order.
    stats::Rng rng_a(kGoldenSeed + 1);
    stats::Rng rng_p(kGoldenSeed + 2);
    const auto a = mc.run(phys::Species::kAlpha, e, rng_a);
    const auto p = mc.run(phys::Species::kProton, e, rng_p);
    values.push_back({e, a.mean_eh_pairs, p.mean_eh_pairs, a.hit_fraction,
                      p.hit_fraction});
    t.add_row({e, a.mean_eh_pairs, p.mean_eh_pairs, a.hit_fraction,
               p.hit_fraction});
  }
  check_against_golden(t, "fig4_ehpairs", values);
}

TEST(GoldenFigures, Fig8PofVsEnergy) {
  core::SerFlowConfig cfg = golden_flow_config();
  core::SerFlow flow(cfg);
  const auto& vdds = flow.cell_model().vdds();
  ASSERT_GE(vdds.size(), 2u);

  util::CsvTable t({"energy_mev", "alpha_pof_vdd0.7", "alpha_pof_vdd0.8",
                    "proton_pof_vdd0.7", "proton_pof_vdd0.8"});
  std::vector<std::vector<double>> values;
  for (const double e : {1.0, 5.0, 20.0}) {
    const auto ra = flow.run_at_energy(phys::Species::kAlpha, e);
    const auto rp = flow.run_at_energy(phys::Species::kProton, e);
    const double a07 = ra.est[0][core::kModeWithPv].tot;
    const double a08 = ra.est[1][core::kModeWithPv].tot;
    const double p07 = rp.est[0][core::kModeWithPv].tot;
    const double p08 = rp.est[1][core::kModeWithPv].tot;
    values.push_back({e, a07, a08, p07, p08});
    t.add_row({e, a07, a08, p07, p08});
  }
  check_against_golden(t, "fig8_pof_energy", values);
}

TEST(GoldenFigures, Fig9FitVsVdd) {
  core::SerFlowConfig cfg = golden_flow_config();
  core::SerFlow flow(cfg);
  const auto ra = flow.sweep(env::package_alphas());
  const auto rp = flow.sweep(env::sea_level_protons());
  ASSERT_EQ(ra.vdds.size(), rp.vdds.size());

  util::CsvTable t({"vdd_v", "alpha_fit_tot", "alpha_fit_seu", "alpha_fit_mbu",
                    "proton_fit_tot"});
  std::vector<std::vector<double>> values;
  for (std::size_t v = 0; v < ra.vdds.size(); ++v) {
    const auto& a = ra.fit[v][core::kModeWithPv];
    const auto& p = rp.fit[v][core::kModeWithPv];
    values.push_back({ra.vdds[v], a.fit_tot, a.fit_seu, a.fit_mbu, p.fit_tot});
    t.add_row({ra.vdds[v], a.fit_tot, a.fit_seu, a.fit_mbu, p.fit_tot});
  }
  check_against_golden(t, "fig9_fit_vdd", values);
}

}  // namespace
}  // namespace finser
