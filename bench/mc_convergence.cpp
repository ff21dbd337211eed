/// \file mc_convergence.cpp
/// \brief Statistical quality control of the array Monte Carlo: the POF
/// estimate's run-to-run spread must contract as 1/√N (unbiased i.i.d.
/// estimator), the reported standard error must track the observed spread,
/// and the variance-reduced samplers (importance mixture over the
/// sensitive-fin footprints, optionally Sobol-driven) must sit well below
/// the uniform curve at the same strike budget. This is the evidence behind
/// EXPERIMENTS.md's error bars and behind the `sampling.ci_target` guidance in
/// docs/statistics.md: the headline variance-reduction factor and the
/// matched-half-width strike budget are written to
/// bench_out/mc_convergence.json. The process exits 1 when that factor
/// falls below kMinVarianceRatio, so a regressed sampler fails the run.
/// Micro-benchmark: strike throughput, uniform vs importance sampling.

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench_common.hpp"
#include "finser/stats/summary.hpp"
#include "finser/stats/vr.hpp"

namespace {

using namespace finser;

/// Replicates per (budget, sampler). 300 resolve a 1.25x ratio between two
/// observed spreads at about 2 sigma; the observed spread is what compares
/// Sobol with pseudo-random draws, since the reported standard error
/// assumes i.i.d. strikes and cannot see a QMC gain.
constexpr std::uint64_t kSeeds = 300;

/// Smallest acceptable importance-vs-uniform variance ratio at the top
/// budget: half the ≈8× docs/statistics.md documents.
constexpr double kMinVarianceRatio = 4.0;

/// Per-sampler replicate statistics at one strike budget.
struct Arm {
  stats::RunningStats pof;    ///< POF_tot at 0.7 V / with-PV over seeds.
  stats::RunningStats se;     ///< Reported standard error over seeds.
  stats::RunningStats ess;    ///< Effective sample size over seeds.
  stats::RunningStats relhw;  ///< Max-over-(vdd, mode) rel. half-width.
};

/// The stopping rule's convergence metric: worst relative CI half-width of
/// POF_tot over every (supply, PV-mode) channel of the result.
double max_rel_halfwidth(const core::ArrayMcResult& res) {
  double h = 0.0;
  for (const auto& per_vdd : res.est) {
    for (const auto& e : per_vdd) {
      h = std::max(h, stats::relative_halfwidth(e.tot, e.tot_se));
    }
  }
  return h;
}

Arm run_arm(const core::SerFlow& flow, const sram::CellSoftErrorModel& model,
            const core::ArrayMcConfig& mc_cfg) {
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  Arm arm;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto res = mc.run(phys::Species::kAlpha, 1.5, seed);
    const auto& est = res.est[0][core::kModeWithPv];
    arm.pof.add(est.tot);
    arm.se.add(est.tot_se);
    arm.ess.add(est.ess);
    arm.relhw.add(max_rel_halfwidth(res));
  }
  return arm;
}

void report() {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  cfg.array_rows = 5;
  cfg.array_cols = 5;
  core::SerFlow flow(cfg);
  const auto& model = flow.cell_model(bench::progress_printer());

  // Part A — run-to-run spread at a matched strike budget, three samplers.
  // variance_ratio_vs_uniform uses the reported SE (calibrated against the
  // observed spread by tests/test_stats_variance_reduction.cpp); the
  // observed spread is printed alongside so the two can be cross-checked,
  // and it is the only fair measure for the Sobol arm.
  util::CsvTable t({"strikes", "sampler", "mean_pof", "observed_spread",
                    "reported_se", "spread_x_sqrtN", "ess",
                    "variance_ratio_vs_uniform"});
  struct Sampler {
    const char* name;
    core::SourcePositionSampling position;
    stats::QmcMode qmc;
  };
  const Sampler samplers[] = {
      {"uniform", core::SourcePositionSampling::kUniform,
       stats::QmcMode::kNone},
      {"importance", core::SourcePositionSampling::kImportance,
       stats::QmcMode::kNone},
      {"importance_sobol", core::SourcePositionSampling::kImportance,
       stats::QmcMode::kSobol},
  };
  const std::size_t budget = 32000;
  double headline_ratio = 0.0;         // SE-based, largest budget.
  double headline_spread_ratio = 0.0;  // Spread-based corroboration.
  double uniform_relhw_at_budget = 0.0;
  for (std::size_t strikes : {2000u, 8000u, 32000u}) {
    double uniform_se = 0.0;
    double uniform_spread = 0.0;
    for (const Sampler& s : samplers) {
      core::ArrayMcConfig mc_cfg = cfg.array_mc;
      mc_cfg.strikes = strikes;
      mc_cfg.position = s.position;
      mc_cfg.sampling.qmc = s.qmc;
      const Arm arm = run_arm(flow, model, mc_cfg);
      if (s.position == core::SourcePositionSampling::kUniform) {
        uniform_se = arm.se.mean();
        uniform_spread = arm.pof.stddev();
        if (strikes == budget) uniform_relhw_at_budget = arm.relhw.mean();
      }
      const double se_ratio =
          arm.se.mean() > 0.0 ? uniform_se / arm.se.mean() : 0.0;
      const double var_ratio = se_ratio * se_ratio;
      if (s.position == core::SourcePositionSampling::kImportance &&
          s.qmc == stats::QmcMode::kNone && strikes == budget) {
        headline_ratio = var_ratio;
        const double sr = arm.pof.stddev() > 0.0
                              ? uniform_spread / arm.pof.stddev()
                              : 0.0;
        headline_spread_ratio = sr * sr;
      }
      t.add_row({static_cast<double>(strikes), std::string(s.name),
                 arm.pof.mean(), arm.pof.stddev(), arm.se.mean(),
                 arm.pof.stddev() * std::sqrt(static_cast<double>(strikes)),
                 arm.ess.mean(), var_ratio});
    }
  }
  bench::emit(t, "mc_convergence",
              "MC quality control: spread vs strike count and sampler "
              "(alpha, 1.5 MeV, 0.7 V; spread*sqrt(N) ~constant per sampler; "
              "variance ratio = (SE_uniform / SE_sampler)^2)");

  // Part B — matched half-width: let the CI-driven stopper run the
  // importance sampler to the half-width the uniform sampler reaches only
  // at the full budget, and count the strikes it actually needed. chunk 512
  // + min_chunks 2 give the geometric stopping schedule fine enough
  // granularity to see sub-1/5 budgets.
  core::ArrayMcConfig ci_cfg = cfg.array_mc;
  ci_cfg.strikes = budget;
  ci_cfg.chunk = 512;
  ci_cfg.position = core::SourcePositionSampling::kImportance;
  ci_cfg.ci.target = uniform_relhw_at_budget;
  ci_cfg.ci.min_chunks = 2;
  core::ArrayMc ci_mc(flow.layout(), model, ci_cfg);
  stats::RunningStats used, achieved;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto res = ci_mc.run(phys::Species::kAlpha, 1.5, seed);
    used.add(static_cast<double>(res.units_used));
    achieved.add(max_rel_halfwidth(res));
  }
  const double budget_ratio = used.mean() / static_cast<double>(budget);
  std::cout << "\n=== Matched half-width (sampling.ci_target "
            << uniform_relhw_at_budget << ") ===\n"
            << "uniform needs " << budget << " strikes; importance stops at "
            << used.mean() << " (" << budget_ratio
            << " of the budget), achieved rel. half-width " << achieved.mean()
            << "\n";

  std::ofstream json(std::string(bench::kOutDir) + "/mc_convergence.json");
  json << "{\n"
       << bench::machine_json_fields()
       << "  \"budget_strikes\": " << budget << ",\n"
       << "  \"variance_ratio_importance_vs_uniform\": " << headline_ratio
       << ",\n"
       << "  \"variance_ratio_observed_spread\": " << headline_spread_ratio
       << ",\n"
       << "  \"ci_target\": " << uniform_relhw_at_budget << ",\n"
       << "  \"importance_strikes_at_matched_halfwidth\": " << used.mean()
       << ",\n"
       << "  \"strike_budget_ratio\": " << budget_ratio << ",\n"
       << "  \"achieved_rel_halfwidth\": " << achieved.mean() << "\n"
       << "}\n";
  json.close();
  std::cout << "[json] " << bench::kOutDir << "/mc_convergence.json\n";
  if (!(headline_ratio >= kMinVarianceRatio)) {
    std::cerr << "mc_convergence: importance-vs-uniform variance ratio "
              << headline_ratio << " at " << budget
              << " strikes is below the required " << kMinVarianceRatio
              << "x\n";
    std::exit(1);
  }
}

void bm_default_throughput(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  cfg.array_rows = 5;
  cfg.array_cols = 5;
  core::SerFlow flow(cfg);
  const auto& model = flow.cell_model();
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.strikes = 5000;
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(phys::Species::kAlpha, 1.5, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(bm_default_throughput)->Unit(benchmark::kMillisecond);

void bm_importance_throughput(benchmark::State& state) {
  core::SerFlowConfig cfg = bench::paper_flow_config();
  cfg.array_rows = 5;
  cfg.array_cols = 5;
  core::SerFlow flow(cfg);
  const auto& model = flow.cell_model();
  core::ArrayMcConfig mc_cfg = cfg.array_mc;
  mc_cfg.strikes = 5000;
  mc_cfg.position = core::SourcePositionSampling::kImportance;
  core::ArrayMc mc(flow.layout(), model, mc_cfg);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(phys::Species::kAlpha, 1.5, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(bm_importance_throughput)->Unit(benchmark::kMillisecond);

}  // namespace

FINSER_BENCH_MAIN(report)
