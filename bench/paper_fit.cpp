/// \file paper_fit.cpp
/// \brief Paper Figs. 9-11 and the Sec.-7 neutron extension from one
/// CampaignRunner run of campaigns/paper.json plus a neutron-only copy of its
/// scenario. Every table reads the surfaces the runner returns, so its alpha
/// and proton FITs are those `finser_cli campaign campaigns/paper.json`
/// writes to fit_summary.csv. Micro-benchmarks: FIT integration, spectrum
/// discretization, an array-MC energy point, POF-table lookups and the
/// neutron Monte Carlo.

#include "bench_common.hpp"
#include "finser/util/error.hpp"

namespace {

using namespace finser;

constexpr std::size_t kPv = core::kModeWithPv;

const surface::ResponseSurface& surface_of(
    const pipeline::ScenarioResult& result, const std::string& species) {
  for (const surface::ResponseSurface& s : result.surfaces) {
    if (s.species == species) return s;
  }
  throw util::Error("paper_fit: " + result.name + " has no " + species);
}

/// num / den, 0 where den is not positive; pct() in percent.
double over(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double pct(double num, double den) { return over(100.0 * num, den); }

void report() {
  pipeline::CampaignSpec spec =
      pipeline::parse_campaign_file(FINSER_PAPER_CAMPAIGN);
  spec.artifact_dir = bench::kArtifactDir;
  spec.output_dir.clear();
  // Neutrons sweep first in a scenario of their own, so their seeds do not
  // depend on the paper scenario's species list.
  pipeline::ScenarioSpec neutron = spec.scenarios.at(0);
  neutron.name += "_neutron";
  neutron.species = {"neutron"};
  spec.scenarios.push_back(std::move(neutron));
  const std::vector<pipeline::ScenarioResult> results =
      pipeline::CampaignRunner(std::move(spec)).run(bench::progress_printer());
  const surface::ResponseSurface& a = surface_of(results.at(0), "alpha");
  const surface::ResponseSurface& p = surface_of(results.at(0), "proton");
  const surface::ResponseSurface& n = surface_of(results.at(1), "neutron");

  // The paper normalizes each figure: the alpha FIT at the highest Vdd is
  // the "1" of Figs. 9 and 11.
  const double ref = a.fit_tot[kPv].back();
  const double norm = ref > 0.0 ? ref : 1.0;
  util::CsvTable fig9({"vdd_v", "proton_fit_norm", "alpha_fit_norm",
                       "proton_fit", "alpha_fit", "proton_over_alpha"});
  util::CsvTable fig10({"vdd_v", "proton_mbu_seu_pct", "alpha_mbu_seu_pct",
                        "proton_fit_seu", "proton_fit_mbu", "alpha_fit_seu",
                        "alpha_fit_mbu"});
  util::CsvTable fig11({"vdd_v", "ser_with_pv_norm", "ser_no_pv_norm",
                        "underestimation_pct", "ser_with_pv_fit",
                        "ser_no_pv_fit"});
  util::CsvTable ser({"vdd_v", "neutron_fit", "alpha_fit", "proton_fit",
                      "neutron_over_alpha", "neutron_mbu_seu_pct"});
  for (std::size_t v = 0; v < a.n_vdd(); ++v) {
    const double vdd = a.vdds[v];
    const double fa = a.fit_tot[kPv][v];
    const double fp = p.fit_tot[kPv][v];
    const double fn = n.fit_tot[kPv][v];
    const double fa_no_pv = a.fit_tot[core::kModeNominal][v];
    fig9.add_row({vdd, fp / norm, fa / norm, fp, fa, over(fp, fa)});
    fig10.add_row({vdd, pct(p.fit_mbu[kPv][v], p.fit_seu[kPv][v]),
                   pct(a.fit_mbu[kPv][v], a.fit_seu[kPv][v]), p.fit_seu[kPv][v],
                   p.fit_mbu[kPv][v], a.fit_seu[kPv][v], a.fit_mbu[kPv][v]});
    fig11.add_row({vdd, fa / norm, fa_no_pv / norm,
                   pct(fa - fa_no_pv, fa_no_pv), fa, fa_no_pv});
    ser.add_row({vdd, fn, fa, fp, over(fn, fa),
                 pct(n.fit_mbu[kPv][v], n.fit_seu[kPv][v])});
  }
  bench::emit(fig9, "fig9_fit_vs_vdd",
              "Fig. 9: normalized FIT rate vs Vdd (proton vs alpha)");
  bench::emit(fig10, "fig10_mbu_vs_seu", "Fig. 10: MBU/SEU ratio (%) vs Vdd");
  bench::emit(fig11, "fig11_process_variation",
              "Fig. 11: alpha SER, considering vs neglecting process variation");
  bench::emit(ser, "futurework_neutron_ser",
              "Future work (paper Sec. 7): neutron vs alpha vs proton SER");

  // POF(E) of the neutron response at the first Vdd: which energies matter.
  util::CsvTable pof({"energy_mev", "pof_per_neutron_vdd0.7",
                      "integral_flux_per_cm2_s"});
  for (std::size_t b = 0; b < n.n_bins(); ++b) {
    pof.add_row({n.bins[b].e_rep_mev, n.pof_tot[kPv][b * n.n_vdd()],
                 n.bins[b].integral_flux_per_cm2_s});
  }
  bench::emit(pof, "futurework_neutron_pof",
              "Neutron POF vs energy (per incident neutron, Vdd = 0.7 V)");
}

void bm_fit_integration(benchmark::State& state) {
  std::vector<env::EnergyBin> bins;
  std::vector<core::PofEstimate> pofs;
  const env::Spectrum p = env::sea_level_protons();
  bins = p.discretize(0.1, 100.0, 16);
  pofs.resize(bins.size());
  for (std::size_t i = 0; i < pofs.size(); ++i) {
    pofs[i].tot = 1e-3 / static_cast<double>(i + 1);
    pofs[i].seu = 0.9 * pofs[i].tot;
    pofs[i].mbu = 0.1 * pofs[i].tot;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::integrate_fit(bins, pofs, 3420.0, 1440.0));
  }
}
BENCHMARK(bm_fit_integration);

void bm_spectrum_discretize(benchmark::State& state) {
  const env::Spectrum p = env::sea_level_protons();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.discretize(0.1, 100.0, 12));
  }
}
BENCHMARK(bm_spectrum_discretize);

void bm_energy_point(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& model = flow.cell_model();
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.strikes = 1000;
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(phys::Species::kProton, 0.3, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(bm_energy_point)->Unit(benchmark::kMillisecond);

void bm_pof_lookup_pv(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& table = flow.cell_model().at_vdd(0.8);
  double q = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pof(sram::StrikeCharges{q, 0.0, 0.0}, true));
    q = q < 0.4 ? q + 1e-3 : 0.0;
  }
}
BENCHMARK(bm_pof_lookup_pv);

void bm_pof_lookup_pair(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  core::SerFlow flow(cfg);
  const auto& table = flow.cell_model().at_vdd(0.8);
  double q = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pof(sram::StrikeCharges{q, 0.2 - q, 0.0}, true));
    q = q < 0.2 ? q + 1e-3 : 0.0;
  }
}
BENCHMARK(bm_pof_lookup_pair);

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
