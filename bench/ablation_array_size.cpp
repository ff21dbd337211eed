/// \file ablation_array_size.cpp
/// \brief Probes the paper's Sec.-6 claim that a 9×9 array "is large enough
/// to obtain a realistic ratio for MBU vs. SEU": sweeps the array from 3×3
/// to 13×13 at a fixed alpha energy. In finser the per-step growth of the
/// MBU/SEU ratio decelerates sharply around 9×9 but does not fully saturate
/// — near-horizontal tracks stay inside the 26 nm fin layer across many
/// cell pitches, so ever-larger arrays keep capturing longer multi-cell
/// chords (see EXPERIMENTS.md for the discussion). Micro-benchmark: layout
/// construction and accelerated ray queries.

#include "bench_common.hpp"
#include "finser/geom/box_set.hpp"
#include "finser/stats/direction.hpp"

namespace {

using namespace finser;

void report() {
  core::SerFlowConfig base = bench::paper_flow_config();

  util::CsvTable t({"array_size", "cells", "pof_tot", "pof_seu", "pof_mbu",
                    "mbu_seu_pct", "pof_tot_per_cell"});
  for (std::size_t n : {3u, 5u, 7u, 9u, 11u, 13u}) {
    core::SerFlowConfig cfg = base;
    cfg.array_rows = n;
    cfg.array_cols = n;
    // One cached cell model works for every size (same fingerprint).
    core::SerFlow flow(cfg);
    const auto res = flow.run_at_energy(phys::Species::kAlpha, 2.0);
    // Vdd = 0.7 V, with process variation.
    const auto& e = res.est[0][core::kModeWithPv];
    t.add_row({static_cast<double>(n), static_cast<double>(n * n), e.tot, e.seu,
               e.mbu, e.seu > 0.0 ? 100.0 * e.mbu / e.seu : 0.0,
               e.tot / static_cast<double>(n * n)});
  }
  bench::emit(t, "ablation_array_size",
              "Sec. 6 claim: MBU/SEU ratio vs array size (alpha, 2 MeV, 0.7 V)");
}

void bm_layout_build(benchmark::State& state) {
  for (auto _ : state) {
    sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
    benchmark::DoNotOptimize(layout.fins().size());
  }
}
BENCHMARK(bm_layout_build)->Unit(benchmark::kMicrosecond);

void bm_grid_query(benchmark::State& state) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  geom::UniformGrid grid(layout.fins());
  stats::Rng rng(5);
  std::vector<geom::BoxHit> hits;
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 60.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    grid.query(ray, hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(bm_grid_query);

void bm_brute_query(benchmark::State& state) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  stats::Rng rng(5);
  std::vector<geom::BoxHit> hits;
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 60.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    layout.fins().query(ray, hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(bm_brute_query);

}  // namespace

FINSER_BENCH_MAIN(report)
