/// \file kernel_perf.cpp
/// \brief Performance characterization of the computational kernels behind
/// the cross-layer flow (the paper quotes ~2 h for a 10M-strike campaign on
/// its setup; this bench documents what finser achieves per kernel).
/// Report: a runtime budget table for the paper-scale campaign.

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "finser/ckpt/checkpoint.hpp"
#include "finser/core/array_mc.hpp"
#include "finser/exec/exec.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/phys/track.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/transient.hpp"
#include "finser/sram/cell.hpp"
#include "finser/stats/direction.hpp"

namespace {

using namespace finser;

/// Threshold cell model (no SPICE): deposits above q_thresh flip. Keeps the
/// thread-scaling sweep a pure measurement of the array-MC kernel.
sram::CellSoftErrorModel threshold_model(double vdd, double q_thresh_fc) {
  sram::PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (auto& s : t.singles) {
    s.nominal_qcrit_fc = q_thresh_fc;
    s.total_samples = 2;
    s.qcrit_samples_fc = {0.9 * q_thresh_fc, 1.1 * q_thresh_fc};
  }
  const util::Axis axis({0.0, q_thresh_fc, 0.4});
  std::vector<double> v(9, 1.0);
  v[0] = 0.0;
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v);
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);
  sram::CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

/// Thread-scaling sweep of the array-MC strike loop (1/2/4/8 threads, same
/// seed). Emits the machine-readable bench_out/parallel_scaling.json and a
/// human-readable CSV, and cross-checks the determinism contract: every
/// thread count must reproduce the single-thread POF bit-for-bit.
void report_parallel_scaling() {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  const sram::CellSoftErrorModel model = threshold_model(0.8, 0.02);

  core::ArrayMcConfig cfg;
  cfg.strikes = 40000;
  cfg.chunk = 512;
  const std::uint64_t seed = 20140601;

  util::CsvTable t(
      {"threads", "seconds", "strikes_per_s", "speedup_vs_1", "identical"});
  double t1_seconds = 0.0;
  double ref_tot = 0.0;
  bool all_identical = true;
  std::string rows_json;

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    cfg.threads = threads;
    core::ArrayMc mc(layout, model, cfg);
    // One warm-up run (spawns the worker threads, faults in the LUTs), then
    // the timed run.
    mc.run(phys::Species::kAlpha, 2.0, seed);
    const auto start = std::chrono::steady_clock::now();
    const auto res = mc.run(phys::Species::kAlpha, 2.0, seed);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    const double tot = res.est[0][core::kModeWithPv].tot;
    if (threads == 1) {
      t1_seconds = seconds;
      ref_tot = tot;
    }
    const bool identical = tot == ref_tot;
    all_identical = all_identical && identical;
    const double speedup = seconds > 0.0 ? t1_seconds / seconds : 0.0;
    const double rate = seconds > 0.0
                            ? static_cast<double>(cfg.strikes) / seconds
                            : 0.0;
    t.add_row({static_cast<double>(threads), seconds, rate, speedup,
               identical ? 1.0 : 0.0});

    char row[256];
    std::snprintf(row,
                  sizeof row,
                  "%s    {\"threads\": %zu, \"seconds\": %.6f, "
                  "\"strikes_per_s\": %.1f, \"speedup_vs_1\": %.3f, "
                  "\"identical_to_1_thread\": %s}",
                  rows_json.empty() ? "" : ",\n", threads, seconds, rate,
                  speedup, identical ? "true" : "false");
    rows_json += row;
  }

  bench::emit(t, "parallel_scaling",
              "Array-MC thread scaling (same seed; identical must be 1)");

  std::filesystem::create_directories(bench::kOutDir);
  const std::string path =
      std::string(bench::kOutDir) + "/parallel_scaling.json";
  std::ofstream os(path);
  os << "{\n"
     << bench::machine_json_fields()
     << "  \"kernel\": \"array_mc_strikes\",\n"
     << "  \"strikes\": " << cfg.strikes << ",\n"
     << "  \"chunk\": " << cfg.chunk << ",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"hardware_threads\": " << exec::hardware_threads() << ",\n"
     << "  \"deterministic_across_thread_counts\": "
     << (all_identical ? "true" : "false") << ",\n"
     << "  \"results\": [\n"
     << rows_json << "\n  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

/// Observability tax on the hottest loop: the same array-MC strike kernel
/// with finser::obs disabled (the shipped default — every instrumentation
/// site is one relaxed atomic load and a branch) and enabled. The disabled
/// column is the number the <2% budget in docs/observability.md refers to.
void report_obs_overhead() {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  const sram::CellSoftErrorModel model = threshold_model(0.8, 0.02);

  core::ArrayMcConfig cfg;
  cfg.strikes = 40000;
  cfg.chunk = 512;
  cfg.threads = 1;  // Single-thread: no pool noise in the comparison.
  const std::uint64_t seed = 20140601;
  core::ArrayMc mc(layout, model, cfg);

  // Median of repeated timed runs per mode, interleaved so slow drift in
  // machine load hits both modes equally.
  constexpr int kReps = 7;
  std::vector<double> off_s, on_s;
  mc.run(phys::Species::kAlpha, 2.0, seed);  // Warm-up.
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool enabled : {false, true}) {
      obs::set_enabled(enabled);
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(mc.run(phys::Species::kAlpha, 2.0, seed));
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      (enabled ? on_s : off_s).push_back(s);
    }
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double off = median(off_s);
  const double on = median(on_s);
  // Baseline: a build with no instrumentation at all is not available from
  // one binary, so "disabled overhead" is reported against the fastest
  // observed disabled run (jitter floor), and enabled against disabled.
  const double fastest_off = *std::min_element(off_s.begin(), off_s.end());
  const double disabled_pct = 100.0 * (off - fastest_off) / fastest_off;
  const double enabled_pct = 100.0 * (on - off) / off;

  util::CsvTable t({"mode", "median_seconds", "strikes_per_s", "overhead_pct"});
  t.add_row({std::string("metrics disabled"), off,
             static_cast<double>(cfg.strikes) / off, disabled_pct});
  t.add_row({std::string("metrics enabled"), on,
             static_cast<double>(cfg.strikes) / on, enabled_pct});
  bench::emit(t, "obs_overhead",
              "finser::obs cost on the array-MC kernel (disabled vs enabled)");

  std::filesystem::create_directories(bench::kOutDir);
  const std::string path = std::string(bench::kOutDir) + "/obs_overhead.json";
  std::ofstream os(path);
  char body[512];
  std::snprintf(body, sizeof body,
                "{\n%s"
                "  \"kernel\": \"array_mc_strikes\",\n"
                "  \"strikes\": %zu,\n"
                "  \"reps\": %d,\n"
                "  \"disabled_median_seconds\": %.6f,\n"
                "  \"enabled_median_seconds\": %.6f,\n"
                "  \"disabled_jitter_pct\": %.3f,\n"
                "  \"enabled_vs_disabled_pct\": %.3f\n"
                "}\n",
                bench::machine_json_fields().c_str(),
                static_cast<std::size_t>(cfg.strikes), kReps, off, on,
                disabled_pct, enabled_pct);
  os << body;
  std::cout << "[json] " << path << "\n";
}

/// Warm-vs-cold campaign through the content-addressed artifact store: the
/// cold pass characterizes the cell and builds every LUT from scratch; the
/// warm pass must load all of it back (0 characterizations) and only pay
/// for I/O + decode. The ratio is the headline number for the caching layer
/// (docs/architecture.md).
void report_artifact_cache() {
  pipeline::CampaignSpec spec;
  spec.name = "bench_artifact_cache";
  spec.artifact_dir = std::string(bench::kOutDir) + "/artifact_cache_store";
  spec.output_dir = "";  // No CSVs: measure compute + cache only.

  // Three scenarios sharing one cell model (same design, different data
  // patterns) — the shape the store is built for.
  core::SerFlowConfig base;
  base.array_rows = 4;
  base.array_cols = 4;
  base.characterization.vdds = {0.8};
  base.characterization.pv_samples_single = 40;
  base.characterization.pair_grid_points = 8;
  base.characterization.triple_grid_points = 6;
  base.characterization.pv_samples_grid = 12;
  base.array_mc.strikes = 4000;
  base.neutron_mc.histories = 4000;
  base.proton_bins = 4;
  base.alpha_bins = 4;
  base.seed = 20140601;
  const sram::DataPattern patterns[] = {sram::DataPattern::kCheckerboard,
                                        sram::DataPattern::kAllOnes,
                                        sram::DataPattern::kAllZeros};
  const char* names[] = {"checkerboard", "ones", "zeros"};
  for (int i = 0; i < 3; ++i) {
    pipeline::ScenarioSpec sc{names[i], {"alpha", "proton"}, base};
    sc.flow.pattern = patterns[i];
    spec.scenarios.push_back(sc);
  }

  std::filesystem::remove_all(spec.artifact_dir);
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const exec::ProgressSink quiet;
  const ckpt::RunOptions run;

  const auto timed_pass = [&](const char* label) {
    const std::uint64_t chars_before =
        obs::Registry::global().counter("pipeline.characterizations").total();
    const auto start = std::chrono::steady_clock::now();
    pipeline::CampaignRunner runner(spec);
    const auto results = runner.run(quiet, run);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t chars =
        obs::Registry::global().counter("pipeline.characterizations").total() -
        chars_before;
    std::printf("  [%s pass: %.3f s, %llu characterization(s)]\n", label,
                seconds, static_cast<unsigned long long>(chars));
    return std::pair<double, std::uint64_t>{seconds, chars};
  };

  const auto [cold_s, cold_chars] = timed_pass("cold");
  const auto [warm_s, warm_chars] = timed_pass("warm");
  const std::uint64_t hits =
      obs::Registry::global().counter("pipeline.artifact.hits").total();
  obs::set_enabled(false);
  obs::Registry::global().reset();

  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  util::CsvTable t(
      {"pass", "seconds", "characterizations", "speedup_vs_cold"});
  t.add_row({std::string("cold"), cold_s, static_cast<double>(cold_chars),
             1.0});
  t.add_row({std::string("warm"), warm_s, static_cast<double>(warm_chars),
             speedup});
  bench::emit(t, "artifact_cache",
              "3-scenario campaign, cold vs warm artifact store");

  std::filesystem::create_directories(bench::kOutDir);
  const std::string path = std::string(bench::kOutDir) + "/artifact_cache.json";
  std::ofstream os(path);
  char body[512];
  std::snprintf(body, sizeof body,
                "{\n%s"
                "  \"kernel\": \"campaign_artifact_store\",\n"
                "  \"scenarios\": 3,\n"
                "  \"cold_seconds\": %.6f,\n"
                "  \"warm_seconds\": %.6f,\n"
                "  \"warm_speedup\": %.3f,\n"
                "  \"cold_characterizations\": %llu,\n"
                "  \"warm_characterizations\": %llu,\n"
                "  \"warm_artifact_hits\": %llu\n"
                "}\n",
                bench::machine_json_fields().c_str(), cold_s, warm_s, speedup,
                static_cast<unsigned long long>(cold_chars),
                static_cast<unsigned long long>(warm_chars),
                static_cast<unsigned long long>(hits));
  os << body;
  std::cout << "[json] " << path << "\n";
}

/// SPICE strike kernel: the characterization hot path runs thousands of
/// strike transients per supply voltage, each differing only in rebindable
/// parameters (ΔVt sample, strike charges). Every compiled transient runs
/// the lane-batched engine; this bench times the scalar entry point
/// (StrikeSimulator::simulate, a one-lane group per transient) against
/// lane_width()-wide groups on identical work, and cross-checks that both
/// produce bit-identical outcomes.
void report_spice_kernel() {
  const sram::CellDesign design;
  const double vdd = 0.8;
  constexpr int kSamples = 120;     // PV (ΔVt) samples.
  constexpr int kSimsPerSample = 8; // Charge ladder per sample (~a bisection).

  // Deterministic workload, generated once and replayed by both passes.
  std::vector<sram::DeltaVt> dvts(kSamples);
  std::vector<std::array<double, kSimsPerSample>> charges(kSamples);
  {
    stats::Rng rng(20140602);
    for (int i = 0; i < kSamples; ++i) {
      for (double& v : dvts[static_cast<std::size_t>(i)]) {
        v = rng.normal(0.0, design.sigma_vt);
      }
      for (double& q : charges[static_cast<std::size_t>(i)]) {
        q = rng.uniform(0.02, 0.3);
      }
    }
  }

  // Scalar pass: one simulator rebound per sample, one transient per call.
  const auto run_scalar = [&](std::vector<sram::StrikeOutcome>& out) {
    out.clear();
    out.reserve(kSamples * kSimsPerSample);
    sram::StrikeSimulator sim(design, vdd);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSamples; ++i) {
      for (int s = 0; s < kSimsPerSample; ++s) {
        const double q = charges[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(s)];
        out.push_back(sim.simulate(sram::StrikeCharges{q, 0.0, 0.0},
                                   dvts[static_cast<std::size_t>(i)]));
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Lane-batched pass: the same workload, rebound lane_width() samples at a
  // time and every charge step of the ladder advanced for the whole lane
  // group in one batched transient — exactly the shape the characterizer
  // drives.
  const std::size_t lanes = spice::lane_width();
  const auto run_batched = [&](std::vector<sram::StrikeOutcome>& out) {
    out.assign(static_cast<std::size_t>(kSamples * kSimsPerSample),
               sram::StrikeOutcome{});
    sram::StrikeSimulator sim(design, vdd);
    std::vector<sram::StrikeCharges> qs;
    std::vector<sram::DeltaVt> ds;
    std::vector<std::uint8_t> active;
    std::vector<sram::StrikeSimulator::LaneOutcome> res;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSamples; i += static_cast<int>(lanes)) {
      const std::size_t group =
          std::min(lanes, static_cast<std::size_t>(kSamples - i));
      ds.assign(dvts.begin() + i, dvts.begin() + i + static_cast<int>(group));
      active.assign(group, 1);
      for (int s = 0; s < kSimsPerSample; ++s) {
        qs.clear();
        for (std::size_t g = 0; g < group; ++g) {
          qs.push_back(sram::StrikeCharges{
              charges[static_cast<std::size_t>(i) + g]
                     [static_cast<std::size_t>(s)],
              0.0, 0.0});
        }
        sim.simulate_batch(qs, ds, spice::PulseShape::Kind::kRectangular,
                           active, res);
        for (std::size_t g = 0; g < group; ++g) {
          out[(static_cast<std::size_t>(i) + g) *
                  static_cast<std::size_t>(kSimsPerSample) +
              static_cast<std::size_t>(s)] = res[g].outcome;
        }
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Warm-up (page in the models, spin up allocators), then timed passes.
  // Both timed passes run with observability disabled so neither side pays
  // the counter overhead; the counters come from separate untimed passes.
  std::vector<sram::StrikeOutcome> scalar_out, batch_out;
  run_scalar(scalar_out);
  const double scalar_s = run_scalar(scalar_out);
  run_batched(batch_out);
  const double batched_s = run_batched(batch_out);

  // Count what the scalar entry point does: solver steps skipped by the
  // steady-state fast-forward and DC hold solves saved by the ΔVt cache.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  run_scalar(scalar_out);
  const auto count = [](const char* name) {
    return static_cast<unsigned long long>(
        obs::Registry::global().counter(name).total());
  };
  const unsigned long long tran_steps = count("spice.tran.steps");
  const unsigned long long ff_steps = count("spice.tran.ff_steps");
  const unsigned long long newton_iters = count("spice.tran.newton_iters");
  const unsigned long long dc_reuse = count("sram.strike.dc_reuse");
  // Lane-utilization counters of the batched pass: how full the SIMD lanes
  // ran and how many lane-iterations were masked-off (converged/ragged).
  obs::Registry::global().reset();
  run_batched(batch_out);
  const unsigned long long batch_ticks = count("spice.batch.newton_ticks");
  const unsigned long long lane_active = count("spice.batch.lane_iters_active");
  const unsigned long long lane_masked = count("spice.batch.lane_iters_masked");
  obs::set_enabled(false);
  obs::Registry::global().reset();

  bool identical = scalar_out.size() == batch_out.size();
  for (std::size_t i = 0; identical && i < scalar_out.size(); ++i) {
    identical = scalar_out[i].flipped == batch_out[i].flipped &&
                scalar_out[i].final_q_v == batch_out[i].final_q_v &&
                scalar_out[i].final_qb_v == batch_out[i].final_qb_v;
  }

  const double n = static_cast<double>(kSamples * kSimsPerSample);
  const double scalar_rate = scalar_s > 0.0 ? n / scalar_s : 0.0;
  const double batched_rate = batched_s > 0.0 ? n / batched_s : 0.0;
  const double batched_speedup = batched_s > 0.0 ? scalar_s / batched_s : 0.0;
  const double lane_fraction =
      batch_ticks > 0 ? static_cast<double>(lane_active) /
                            (static_cast<double>(batch_ticks) *
                             static_cast<double>(lanes))
                      : 0.0;

  util::CsvTable t({"path", "seconds", "transients_per_s", "speedup",
                    "identical"});
  t.add_row({std::string("scalar entry point (W=1)"), scalar_s, scalar_rate,
             1.0, 1.0});
  t.add_row({std::string("lane-batched W=") + std::to_string(lanes),
             batched_s, batched_rate, batched_speedup,
             identical ? 1.0 : 0.0});
  bench::emit(t, "spice_kernel",
              "SPICE strike kernel: scalar entry point vs lane-batched "
              "(identical must be 1)");

  std::filesystem::create_directories(bench::kOutDir);
  const std::string path = std::string(bench::kOutDir) + "/spice_kernel.json";
  std::ofstream os(path);
  char body[1280];
  std::snprintf(body, sizeof body,
                "{\n%s"
                "  \"kernel\": \"spice_strike_transient\",\n"
                "  \"pv_samples\": %d,\n"
                "  \"transients_per_sample\": %d,\n"
                "  \"scalar_seconds\": %.6f,\n"
                "  \"batched_seconds\": %.6f,\n"
                "  \"scalar_transients_per_s\": %.1f,\n"
                "  \"batched_transients_per_s\": %.1f,\n"
                "  \"batched_speedup_vs_scalar\": %.3f,\n"
                "  \"lane_width\": %zu,\n"
                "  \"bit_identical_batched\": %s,\n"
                "  \"scalar_tran_steps\": %llu,\n"
                "  \"scalar_ff_steps\": %llu,\n"
                "  \"scalar_newton_iters\": %llu,\n"
                "  \"scalar_dc_hold_reuses\": %llu,\n"
                "  \"batch_newton_ticks\": %llu,\n"
                "  \"batch_lane_iters_active\": %llu,\n"
                "  \"batch_lane_iters_masked\": %llu,\n"
                "  \"batch_active_lane_fraction\": %.4f\n"
                "}\n",
                bench::machine_json_fields().c_str(), kSamples,
                kSimsPerSample, scalar_s, batched_s, scalar_rate,
                batched_rate, batched_speedup, lanes,
                identical ? "true" : "false", tran_steps, ff_steps,
                newton_iters, dc_reuse, batch_ticks, lane_active, lane_masked,
                lane_fraction);
  os << body;
  std::cout << "[json] " << path << "\n";
}

void report() {
  // Measure the two dominant costs directly and extrapolate the paper-scale
  // campaign (10M strikes, 18 energy points, full characterization).
  util::CsvTable t({"kernel", "per_op_us", "paper_scale_ops", "minutes"});

  {
    const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
    phys::Transporter tr(layout.fins());
    stats::Rng rng(1);
    const auto start = std::chrono::steady_clock::now();
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      geom::Ray ray;
      ray.origin = {rng.uniform(0.0, layout.width_nm()),
                    rng.uniform(0.0, layout.height_nm()), 27.0};
      ray.dir = stats::isotropic_hemisphere_down(rng);
      if (ray.dir.z == 0.0) ray.dir.z = -1e-12;
      benchmark::DoNotOptimize(tr.transport(ray, phys::Species::kAlpha, 2.0, rng));
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      n;
    t.add_row({std::string("array-MC strike transport"), us, 1e7 * 22,
               us * 1e7 * 22 / 60e6});
  }
  {
    sram::StrikeSimulator sim(sram::CellDesign{}, 0.8);
    const auto start = std::chrono::steady_clock::now();
    const int n = 300;
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(sim.simulate(sram::StrikeCharges{0.1, 0, 0}));
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      n;
    // Paper-scale characterization: 1000 PV samples x ~12 bisection sims x
    // 3 currents x 5 Vdd + grids.
    const double ops = 1000.0 * 12 * 3 * 5 + 5 * 4000;
    t.add_row({std::string("SPICE strike transient"), us, ops,
               us * ops / 60e6});
  }
  bench::emit(t, "kernel_perf",
              "Runtime budget of the paper-scale campaign on this machine");

  report_spice_kernel();
  report_parallel_scaling();
  report_obs_overhead();
  report_artifact_cache();
}

void bm_lu_solve_10x10(benchmark::State& state) {
  for (auto _ : state) {
    spice::Mna m(10);
    for (std::size_t i = 0; i < 10; ++i) {
      for (std::size_t j = 0; j < 10; ++j) {
        m.add(i, j, i == j ? 3.0 : 0.1 * static_cast<double>((i * 7 + j) % 5));
      }
      m.add_rhs(i, 1.0);
    }
    benchmark::DoNotOptimize(m.solve());
  }
}
BENCHMARK(bm_lu_solve_10x10);

void bm_finfet_eval(benchmark::State& state) {
  double vg = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::evaluate_finfet(spice::default_nfet(), 0.8, vg, 0.0, 0.0, 1.0));
    vg = vg < 0.8 ? vg + 1e-3 : 0.0;
  }
}
BENCHMARK(bm_finfet_eval);

void bm_dc_operating_point(benchmark::State& state) {
  sram::StrikeSimulator sim(sram::CellDesign{}, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.hold_state());
  }
}
BENCHMARK(bm_dc_operating_point)->Unit(benchmark::kMicrosecond);

void bm_transport_single(benchmark::State& state) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  phys::Transporter tr(layout.fins());
  stats::Rng rng(2);
  for (auto _ : state) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()), 27.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    if (ray.dir.z == 0.0) ray.dir.z = -1e-12;
    benchmark::DoNotOptimize(tr.transport(ray, phys::Species::kProton, 1.0, rng));
  }
}
BENCHMARK(bm_transport_single);

}  // namespace

FINSER_BENCH_MAIN(report)
