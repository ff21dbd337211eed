/// \file mbu_layout_study.cpp
/// \brief Beyond the paper: how multi-bit-upset rates depend on the stored
/// data pattern and the angular law of the radiation source.
///
/// MBUs are a *geometric* phenomenon — one grazing track clipping sensitive
/// fins of neighboring cells. Which fins are sensitive depends on the data
/// (paper Fig. 5a: three of six transistors per cell), so the data pattern
/// changes the spatial correlation of sensitive volumes; and the share of
/// grazing tracks depends on the source's angular law. Both knobs matter
/// when qualifying ECC schemes (interleaving distance is chosen against the
/// MBU multiplicity). This example quantifies them with the array engine.

#include <array>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "finser/core/ser_flow.hpp"
#include "finser/util/csv.hpp"

namespace {

using namespace finser;

core::SerFlowConfig base_config() {
  core::SerFlowConfig cfg;
  cfg.array_rows = 7;
  cfg.array_cols = 7;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 80;
  cfg.characterization.pv_samples_grid = 20;
  cfg.array_mc.strikes = 120000;
  cfg.seed = 2718;
  return cfg;
}

void run_case(const char* label, const core::SerFlowConfig& cfg) {
  core::SerFlow flow(cfg);
  // 1.5 MeV alphas: near the deposit maximum, the MBU-richest energy.
  const auto res = flow.run_at_energy(phys::Species::kAlpha, 1.5);
  const auto& e = res.est[0][core::kModeWithPv];
  std::printf("%-28s POFtot=%.4e  SEU=%.4e  MBU=%.4e  MBU/SEU=%5.2f %%\n",
              label, e.tot, e.seu, e.mbu,
              e.seu > 0.0 ? 100.0 * e.mbu / e.seu : 0.0);
}

}  // namespace

int main() {
  std::printf("alpha strikes, 7x7 array, Vdd = 0.8 V, 1.5 MeV\n\n");

  std::printf("-- stored data pattern (isotropic source) --\n");
  for (auto [label, pattern] :
       {std::pair{"checkerboard", sram::DataPattern::kCheckerboard},
        std::pair{"all ones", sram::DataPattern::kAllOnes},
        std::pair{"all zeros", sram::DataPattern::kAllZeros},
        std::pair{"random", sram::DataPattern::kRandom}}) {
    core::SerFlowConfig cfg = base_config();
    cfg.pattern = pattern;
    run_case(label, cfg);
  }

  std::printf("\n-- angular law (checkerboard data) --\n");
  {
    core::SerFlowConfig cfg = base_config();
    cfg.array_mc.angular = core::SourceAngularLaw::kIsotropic;
    run_case("isotropic hemisphere", cfg);
    cfg.array_mc.angular = core::SourceAngularLaw::kCosine;
    run_case("cosine-law (flux-weighted)", cfg);
  }

  std::printf("\n-- charge-collection model (88° grazing beam, 1 MeV) --\n");
  {
    // The independent model (cluster 1x1) multiplies per-cell POFs; the
    // correlated 2x2 model re-prices every multi-cell tile by simulating
    // each struck cell with inter-cell charge sharing
    // (docs/charge_sharing.md). The grazing beam maximizes same-tile
    // multi-cell deposits, so the two multiplicity distributions separate.
    std::array<std::array<double, core::kMaxMultiplicity>, 2> dist{};
    const sram::ClusterMode modes[2] = {sram::ClusterMode::k1x1,
                                        sram::ClusterMode::k2x2};
    const char* labels[2] = {"independent (1x1)", "correlated (2x2)"};
    for (int m = 0; m < 2; ++m) {
      core::SerFlowConfig cfg = base_config();
      cfg.array_mc.strikes = 20000;
      cfg.array_mc.angular = core::SourceAngularLaw::kBeam;
      const double tilt = 88.0 * std::numbers::pi / 180.0;
      cfg.array_mc.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
      cfg.array_mc.cluster.mode = modes[m];
      core::SerFlow flow(cfg);
      const auto res = flow.run_at_energy(phys::Species::kAlpha, 1.0);
      dist[m] = res.est[0][core::kModeWithPv].multiplicity;
      double n2plus = 0.0;
      for (std::size_t n = 2; n < core::kMaxMultiplicity; ++n) {
        n2plus += dist[m][n];
      }
      std::printf("%-28s P(n=1)=%.4e  P(n>=2)=%.4e\n", labels[m],
                  dist[m][1], n2plus);
    }
    util::CsvTable t({"n", "p_independent", "p_correlated"});
    for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
      t.add_row({static_cast<double>(n), dist[0][n], dist[1][n]});
    }
    t.write_csv_file("mbu_layout_study_cluster.csv");
    std::printf("multiplicity distributions: mbu_layout_study_cluster.csv\n");
  }

  std::printf(
      "\nreading: the data pattern moves the MBU/SEU ratio by reshuffling\n"
      "which fins are simultaneously sensitive; the cosine law suppresses\n"
      "grazing tracks and with them most multi-cell events. ECC interleaving\n"
      "should therefore be validated against the worst-case pattern and an\n"
      "isotropic (package-alpha) source, not just vertical-beam data.\n");
  return 0;
}
