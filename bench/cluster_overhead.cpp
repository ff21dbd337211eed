/// \file cluster_overhead.cpp
/// \brief Correlated multi-node charge collection: cost and effect of the
/// cluster-aware strike pipeline (docs/charge_sharing.md) on a fixture
/// built to excite it — a near-grazing alpha beam, the standard tilted-beam
/// technique for probing MBU sensitivity. The independent per-cell model
/// (cluster 1x1) prices every touched cell from the POF LUT alone; the
/// correlated 2x2 model re-prices every multi-cell tile by adding
/// inter-cell charge sharing to each struck cell and simulating each on the
/// cell netlist, so it must report *more* n >= 2 upset-multiplicity mass
/// than the independent factorization on this fixture. The JSON artifact
/// records both the wall-clock overhead and that witness (`joint_sims`
/// counts tile samples, `sram.cluster.sims`).
/// Micro-benchmark: one 2x2 tile strike into two cells vs one single-cell
/// strike.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <optional>

#include "bench_common.hpp"
#include "finser/core/array_mc.hpp"
#include "finser/obs/obs.hpp"
#include "finser/sram/cluster.hpp"

namespace {

using namespace finser;

struct Leg {
  double seconds = 0.0;
  double tot = 0.0;
  double mbu = 0.0;
  double n2plus = 0.0;  ///< Σ_{n>=2} multiplicity[n] (with PV, lowest Vdd).
  std::uint64_t joint_sims = 0;
};

Leg run_leg(const sram::ArrayLayout& layout,
            const sram::CellSoftErrorModel& model,
            const core::SerFlowConfig& cfg, sram::ClusterMode mode) {
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.angular = core::SourceAngularLaw::kBeam;
  const double tilt = 88.0 * std::numbers::pi / 180.0;
  mc_cfg.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
  mc_cfg.cluster.mode = mode;
  std::optional<sram::ClusterPofSurface> surface;
  if (mc_cfg.cluster.enabled()) {
    surface.emplace(cfg.cell_design, mc_cfg.cluster);
    mc_cfg.cluster_surface = &*surface;
  }

  const std::uint64_t sims_before =
      obs::Registry::global().counter("sram.cluster.sims").total();
  const auto start = std::chrono::steady_clock::now();
  core::ArrayMc mc(layout, model, mc_cfg);
  const core::ArrayMcResult result = mc.run(phys::Species::kAlpha, 1.0, 777);
  Leg leg;
  leg.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  leg.joint_sims =
      obs::Registry::global().counter("sram.cluster.sims").total() -
      sims_before;
  const core::PofEstimate& est = result.est[0][core::kModeWithPv];
  leg.tot = est.tot;
  leg.mbu = est.mbu;
  for (std::size_t n = 2; n < core::kMaxMultiplicity; ++n) {
    leg.n2plus += est.multiplicity[n];
  }
  return leg;
}

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  cfg.array_mc.strikes = std::max<std::size_t>(
      1, static_cast<std::size_t>(6000 * core::mc_scale_from_env()));
  core::SerFlow flow(cfg);
  flow.cell_model(bench::progress_printer());
  const auto& model = flow.cell_model();

  obs::Registry::global().reset();
  obs::set_enabled(true);
  const Leg indep = run_leg(flow.layout(), model, cfg, sram::ClusterMode::k1x1);
  const Leg corr = run_leg(flow.layout(), model, cfg, sram::ClusterMode::k2x2);
  obs::set_enabled(false);
  obs::Registry::global().reset();

  util::CsvTable t({"mode", "seconds", "pof_tot", "pof_mbu", "n2plus_mass",
                    "joint_sims"});
  t.add_row({std::string("1x1"), indep.seconds, indep.tot, indep.mbu,
             indep.n2plus, static_cast<double>(indep.joint_sims)});
  t.add_row({std::string("2x2"), corr.seconds, corr.tot, corr.mbu,
             corr.n2plus, static_cast<double>(corr.joint_sims)});
  bench::emit(t, "cluster_overhead",
              "Cluster-aware strike pipeline: independent (1x1) vs "
              "correlated (2x2) under an 88° grazing alpha beam (1 MeV, "
              "0.7 V, with PV)");

  const double overhead = indep.seconds > 0.0
                              ? corr.seconds / indep.seconds
                              : 0.0;
  std::filesystem::create_directories(bench::kOutDir);
  const std::string path =
      std::string(bench::kOutDir) + "/cluster_overhead.json";
  std::ofstream os(path);
  char body[768];
  std::snprintf(body, sizeof body,
                "{\n%s"
                "  \"kernel\": \"cluster_strike_pipeline\",\n"
                "  \"fixture\": \"alpha 1 MeV beam, 88 deg tilt, 9x9\",\n"
                "  \"strikes\": %zu,\n"
                "  \"independent_seconds\": %.6f,\n"
                "  \"correlated_seconds\": %.6f,\n"
                "  \"overhead_x\": %.3f,\n"
                "  \"joint_sims\": %llu,\n"
                "  \"n2plus_independent\": %.9g,\n"
                "  \"n2plus_correlated\": %.9g,\n"
                "  \"correlated_exceeds_independent\": %s\n"
                "}\n",
                bench::machine_json_fields().c_str(), cfg.array_mc.strikes,
                indep.seconds, corr.seconds, overhead,
                static_cast<unsigned long long>(corr.joint_sims),
                indep.n2plus, corr.n2plus,
                corr.n2plus > indep.n2plus ? "true" : "false");
  os << body;
  std::printf("[json] %s\n", path.c_str());
  std::printf("n>=2 mass: independent %.3e vs correlated %.3e (%s)\n",
              indep.n2plus, corr.n2plus,
              corr.n2plus > indep.n2plus ? "correlated exceeds independent"
                                         : "NO EXCESS — check fixture");
}

/// Two struck cells of a 2x2 tile: two single-cell transients.
void bm_tile_2x2_two_cells(benchmark::State& state) {
  const sram::CellDesign design;
  sram::ClusterSimulator sim(design, 0.8, 2, 2);
  std::vector<sram::ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = 0.2;
  strikes[1].local = 1;
  strikes[1].charges.i1_fc = 0.15;
  const std::vector<sram::DeltaVt> dvts(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular));
  }
}
BENCHMARK(bm_tile_2x2_two_cells);

void bm_single_cell_sim(benchmark::State& state) {
  const sram::CellDesign design;
  sram::StrikeSimulator sim(design, 0.8);
  sram::StrikeCharges charges;
  charges.i1_fc = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(
        charges, sram::DeltaVt{}, spice::PulseShape::Kind::kRectangular));
  }
}
BENCHMARK(bm_single_cell_sim);

}  // namespace

FINSER_BENCH_MAIN(report)
