/// \file futurework_neutron.cpp
/// \brief The paper's Sec.-7 future work, implemented: neutron-induced
/// (indirect-ionization) SER of the 9×9 array, side by side with the
/// paper's alpha and proton results. Forced-interaction Monte Carlo over
/// the sea-level neutron spectrum; secondaries (Si/Mg recoils, alphas,
/// protons) transported with the standard charged-particle machinery.
/// Micro-benchmarks: interaction sampling and the weighted history loop.

#include "bench_common.hpp"

namespace {

using namespace finser;

void report() {
  const core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  flow.cell_model(bench::progress_printer());

  const auto rn = flow.sweep(env::sea_level_neutrons(), bench::progress_printer());
  const auto ra = flow.sweep(env::package_alphas());
  const auto rp = flow.sweep(env::sea_level_protons());

  util::CsvTable t({"vdd_v", "neutron_fit", "alpha_fit", "proton_fit",
                    "neutron_over_alpha", "neutron_mbu_seu_pct"});
  for (std::size_t v = 0; v < rn.vdds.size(); ++v) {
    const auto& fn = rn.fit[v][core::kModeWithPv];
    const auto& fa = ra.fit[v][core::kModeWithPv];
    const auto& fp = rp.fit[v][core::kModeWithPv];
    t.add_row({rn.vdds[v], fn.fit_tot, fa.fit_tot, fp.fit_tot,
               fa.fit_tot > 0.0 ? fn.fit_tot / fa.fit_tot : 0.0,
               fn.fit_seu > 0.0 ? 100.0 * fn.fit_mbu / fn.fit_seu : 0.0});
  }
  bench::emit(t, "futurework_neutron_ser",
              "Future work (paper Sec. 7): neutron vs alpha vs proton SER");

  // POF(E) of the neutron response: which energies matter.
  util::CsvTable e_table({"energy_mev", "pof_per_neutron_vdd0.7",
                          "integral_flux_per_cm2_s"});
  for (std::size_t b = 0; b < rn.bins.size(); ++b) {
    e_table.add_row({rn.bins[b].e_rep_mev,
                     rn.per_bin[b].est[0][core::kModeWithPv].tot,
                     rn.bins[b].integral_flux_per_cm2_s});
  }
  bench::emit(e_table, "futurework_neutron_pof",
              "Neutron POF vs energy (per incident neutron, Vdd = 0.7 V)");
}

void bm_interaction_sample(benchmark::State& state) {
  phys::NeutronInteractionModel model;
  stats::Rng rng(1);
  const geom::Vec3 dir{0.0, 0.0, -1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample(14.0, dir, rng));
  }
}
BENCHMARK(bm_interaction_sample);

void bm_neutron_histories(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = flow.cell_model();
  core::NeutronMcConfig mc_cfg = cfg.neutron_mc;
  mc_cfg.histories = 2000;
  core::NeutronArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(14.0, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(bm_neutron_histories)->Unit(benchmark::kMillisecond);

}  // namespace

FINSER_BENCH_MAIN(report)
