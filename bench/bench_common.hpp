#pragma once
/// \file bench_common.hpp
/// \brief Shared scaffolding of the figure-reproduction bench harness.
///
/// Every binary under bench/ reproduces tables or figures of the paper:
/// it (1) runs the experiment at bench fidelity (scaled by FINSER_MC_SCALE),
/// (2) prints the series to stdout in the same rows the paper plots,
/// (3) writes a CSV under bench_out/ for EXPERIMENTS.md, and then
/// (4) runs google-benchmark micro-benchmarks of the kernel it exercises.
///
/// The expensive POF-LUT characterization is cached as a `cell_model`
/// artifact in the bench_out/artifacts store and shared by every binary
/// (same fingerprint). paper_fit runs its campaign on that store, so its
/// energy bins and response surfaces land there too and a rerun is warm.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "finser/core/ser_flow.hpp"
#include "finser/exec/progress.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/csv.hpp"

namespace finser::bench {

/// Output directory of the reproduction CSVs.
inline const char* kOutDir = "bench_out";

/// The artifact store every bench binary shares.
inline const std::string kArtifactDir = std::string(kOutDir) + "/artifacts";

/// The paper's experimental setup (Sec. 6), read from campaigns/paper.json:
/// 9×9 array, Vdd 0.7-1.1 V, 14 nm SOI FinFET cell, checkerboard data, at
/// the default Monte-Carlo budget (the paper used 10M strikes and 1000 PV
/// samples). The benches add the `cell_model` cache of the kArtifactDir
/// store and scale strikes and PV samples by FINSER_MC_SCALE.
inline core::SerFlowConfig paper_flow_config() {
  static const pipeline::ArtifactStore store(kArtifactDir);
  static pipeline::ArtifactBinCache model_cache(store, "cell_model");
  core::SerFlowConfig cfg =
      pipeline::parse_campaign_file(FINSER_PAPER_CAMPAIGN).scenarios.at(0).flow;
  cfg.model_cache = &model_cache;
  core::apply_mc_scale(cfg, core::mc_scale_from_env());
  return cfg;
}

/// Print the table and write the CSV artifact.
inline void emit(const util::CsvTable& table, const std::string& name,
                 const std::string& caption) {
  std::cout << "\n=== " << caption << " ===\n";
  table.write_pretty(std::cout);
  const std::string path = std::string(kOutDir) + "/" + name + ".csv";
  table.write_csv_file(path);
  std::cout << "[csv] " << path << "\n";
}

/// Machine-context fields for the bench_out/*.json reports. Benchmark
/// numbers are only interpretable against the machine that produced them,
/// so every report records the hardware thread count and the 1-minute load
/// average at emission time (how contended the box already was). Each line
/// is indented by \p indent and ends with ",\n" so the result splices
/// directly after a report's opening "{\n". loadavg is -1 where the
/// platform cannot report it.
inline std::string machine_json_fields(const char* indent = "  ") {
  double load1 = -1.0;
#if defined(__unix__) || defined(__APPLE__)
  double avg[1] = {0.0};
  if (::getloadavg(avg, 1) == 1) load1 = avg[0];
#endif
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s\"hardware_concurrency\": %u,\n"
                "%s\"loadavg_1min\": %.2f,\n",
                indent, std::thread::hardware_concurrency(), indent, load1);
  return buf;
}

/// Progress printer for long characterizations (rate-limited sink).
inline exec::ProgressSink progress_printer() {
  return exec::ProgressSink(
      [](const std::string& msg) { std::cout << "  [" << msg << "]\n"; });
}

}  // namespace finser::bench

/// Standard bench main: run the figure reproduction, then micro-benchmarks.
#define FINSER_BENCH_MAIN(report_fn)                              \
  int main(int argc, char** argv) {                               \
    report_fn();                                                  \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }
