/// \file finser_cli.cpp
/// \brief Command-line driver of the finser cross-layer SER flow.
///
/// Usage:
///   finser_cli run <config.ini>       full flow from a config file (below),
///                                     run as a one-scenario campaign
///   finser_cli run                    ... with built-in paper defaults
///   finser_cli campaign <file.json>   multi-scenario campaign
///                                     (schema: docs/architecture.md)
///   finser_cli serve <file.json>      long-lived NDJSON POF/FIT query loop
///                                     over the campaign's response surfaces
///                                     (protocol: docs/serving.md)
///   finser_cli artifacts ls <dir>     read-only artifact-store inventory
///   finser_cli cell [vdd]             one-voltage cell summary (Qcrit, SNM)
///   finser_cli --help
///
/// The global `--threads N` flag caps the worker-thread count (default:
/// FINSER_THREADS, else hardware concurrency). Results are bit-identical
/// for any thread count (docs/parallelism.md).
///
/// Config keys (all optional; `#` comments allowed):
///   array.rows = 9            array.cols = 9
///   cell.vdds = 0.7, 0.8, 0.9, 1.0, 1.1
///   cell.sigma_vt = 0.05      # [V]
///   cell.cnode_ff = 0.17      # storage-node capacitance [fF]
///   mc.strikes = 60000        mc.pv_samples = 200
///   mc.seed = 20140601
///   mc.threads = 0            # 0 = auto; --threads overrides
///   mc.ci_target = 0          # target relative 95% CI half-width per energy
///                             # bin; 0 = fixed strike budget (--ci-target
///                             # and FINSER_CI_TARGET override)
///   species = alpha, proton, neutron
///   output.dir = finser_out
///
/// `run` lowers the config to the single-scenario campaign `--print-config`
/// prints (scenario "run", artifact store `<output.dir>/artifacts`) and runs
/// it like `campaign` does: CSVs go to `<output.dir>/run/` and
/// `<output.dir>/eh_pairs_<species>.csv`, and a rerun reuses every finished
/// product in the store — an interrupted run resumes per energy bin, or per
/// supply voltage while still characterizing.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <unistd.h>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/exec.hpp"
#include "finser/exec/progress.hpp"
#include "finser/obs/obs.hpp"
#include "finser/obs/report.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/shard/supervisor.hpp"
#include "finser/surface/serve.hpp"
#include "finser/shard/worker.hpp"
#include "finser/spice/batch.hpp"
#include "finser/sram/snm.hpp"
#include "finser/util/config.hpp"
#include "finser/util/csv.hpp"
#include "finser/util/error.hpp"

namespace {

using namespace finser;

void print_help() {
  std::printf(
      "finser_cli — cross-layer SOI FinFET SRAM soft-error analysis\n\n"
      "  finser_cli run [config.ini]       full characterization + sweeps, run\n"
      "                                    as the one-scenario campaign that\n"
      "                                    --print-config shows; artifact store\n"
      "                                    at <output.dir>/artifacts, so a\n"
      "                                    rerun resumes where it stopped\n"
      "  finser_cli campaign <file.json>   multi-scenario campaign; shared\n"
      "                                    characterization and artifact cache\n"
      "                                    (schema: docs/architecture.md)\n"
      "  finser_cli serve <file.json>      long-lived query loop: NDJSON\n"
      "                                    POF/FIT requests on stdin, one\n"
      "                                    JSON reply per line on stdout;\n"
      "                                    cache hits answer without\n"
      "                                    simulation, misses refine through\n"
      "                                    the campaign runner\n"
      "                                    (protocol: docs/serving.md)\n"
      "  finser_cli artifacts ls <dir>     read-only inventory of an artifact\n"
      "                                    store: kind, fingerprint, size and\n"
      "                                    integrity status per entry\n"
      "  finser_cli cell [vdd]             single-voltage cell summary\n"
      "  finser_cli worker <file.json>     shard worker (spawned by a\n"
      "                                    `campaign --workers N` supervisor;\n"
      "                                    not for direct use — docs/sharding.md)\n"
      "  finser_cli --help                 this text\n\n"
      "Options:\n"
      "  --print-config for `run` and `campaign`: print the fully resolved\n"
      "                 effective configuration as campaign JSON (round-trips\n"
      "                 through the campaign parser) and exit without\n"
      "                 simulating\n"
      "  --threads N    worker threads (default: FINSER_THREADS, else all\n"
      "                 hardware threads); never changes the results\n"
      "  --ci-target R  adaptive stopping: stop each energy bin's Monte Carlo\n"
      "                 once the relative 95%% CI half-width of every POF\n"
      "                 estimate is <= R, capped by the configured strike\n"
      "                 budget (0 = fixed budget; sets FINSER_CI_TARGET so\n"
      "                 shard workers inherit it; docs/statistics.md)\n"
      "  --cluster MODE correlated multi-node charge collection: group cells\n"
      "                 into MODE tiles (1x1 = independent per-cell path,\n"
      "                 byte-identical to the default; 2x2 or 1x4 price each\n"
      "                 multi-cell tile with one joint circuit simulation;\n"
      "                 sets FINSER_CLUSTER so shard workers inherit it;\n"
      "                 docs/charge_sharing.md)\n"
      "  --lanes N      SPICE lane width: how many transients the compiled\n"
      "                 engine advances per step: 0 = auto (FINSER_LANES,\n"
      "                 else the widest compiled vector unit), 1, 4 or 8;\n"
      "                 never changes the results (docs/spice.md)\n"
      "  --metrics-out PATH  enable metric collection and write a versioned\n"
      "                 JSON RunReport there at exit (docs/observability.md);\n"
      "                 FINSER_METRICS=<path> is an equivalent default\n"
      "  --trace-out PATH  also buffer per-span trace events and write a\n"
      "                 Chrome-tracing/Perfetto event file there at exit\n"
      "  --workers N    for `campaign`: run stages in N worker subprocesses\n"
      "                 under a fault-tolerant supervisor (FINSER_WORKERS is\n"
      "                 an equivalent default; 0 = in-process). Results are\n"
      "                 byte-identical at any worker count (docs/sharding.md)\n"
      "  --max-retries N  extra attempts before a crashing stage is\n"
      "                 quarantined (default 2; sharded campaigns only)\n"
      "  --stage-timeout-s SEC  per-stage wall-clock watchdog: a stage over\n"
      "                 budget is killed and retried (default 0 = off)\n"
      "  --heartbeat-timeout-s SEC  silence before a worker is presumed dead\n"
      "                 and its stage reassigned (default 30)\n"
      "  --artifact-dir DIR  for `serve`: override the campaign file's\n"
      "                 artifact_dir; for `artifacts ls`: default directory\n"
      "                 when no positional one is given\n"
      "  --max-pending N  for `serve`: bound on queued refinement requests;\n"
      "                 requests over the bound get an immediate `shed`\n"
      "                 reply instead of waiting (default 64)\n\n"
      "Exit codes:\n"
      "  0  success\n"
      "  1  unexpected error\n"
      "  2  invalid configuration or command line\n"
      "  3  numerical failure (solver gave up after its retry ladder)\n"
      "  4  interrupted, progress checkpointed (rerun to resume)\n"
      "  5  partial: sharded campaign completed with quarantined stages\n"
      "     (details in the run report's \"shard\" section)\n"
      "  6  degraded: `serve` drained, but at least one request was shed,\n"
      "     malformed, failed or cancelled (docs/serving.md)\n\n"
      "See the header of tools/finser_cli.cpp for the config-file keys.\n");
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto b = item.find_first_not_of(" \t");
    const auto e = item.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

/// Integer config value no smaller than \p min, checked before any unsigned
/// cast can wrap it. The bounds are the campaign parser's: counts and sizes
/// at least 1, seeds and thread counts at least 0.
std::uint64_t get_bounded(const util::KeyValueConfig& cfg,
                          const std::string& key, long long fallback,
                          long long min) {
  const long long v = cfg.get_int(key, fallback);
  if (v < min) {
    throw util::InvalidArgument("config value for " + key + " (line " +
                                std::to_string(cfg.line_of(key)) +
                                ") must be >= " + std::to_string(min) +
                                ", got " + std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

core::SerFlowConfig flow_config_from(const util::KeyValueConfig& cfg,
                                     std::size_t cli_threads) {
  core::SerFlowConfig flow;
  flow.array_rows = get_bounded(cfg, "array.rows", 9, 1);
  flow.array_cols = get_bounded(cfg, "array.cols", 9, 1);
  flow.characterization.vdds =
      cfg.get_double_list("cell.vdds", {0.7, 0.8, 0.9, 1.0, 1.1});
  flow.cell_design.sigma_vt = cfg.get_double("cell.sigma_vt", 0.05);
  flow.cell_design.cnode_f = cfg.get_double("cell.cnode_ff", 0.17) * 1e-15;
  flow.characterization.pv_samples_single =
      get_bounded(cfg, "mc.pv_samples", 200, 1);
  flow.array_mc.strikes = get_bounded(cfg, "mc.strikes", 60000, 1);
  flow.neutron_mc.histories = flow.array_mc.strikes;
  flow.seed = get_bounded(cfg, "mc.seed", 20140601, 0);
  // CLI --threads wins over the config key; both 0 = auto.
  flow.threads =
      cli_threads > 0 ? cli_threads : get_bounded(cfg, "mc.threads", 0, 0);
  const double ini_ci = cfg.get_double("mc.ci_target", 0.0);
  if (ini_ci < 0.0) {
    throw util::InvalidArgument("mc.ci_target must be >= 0 (0 disables "
                                "adaptive stopping)");
  }
  flow.array_mc.ci.target = ini_ci;
  flow.neutron_mc.ci.target = ini_ci;
  // No MC scale here: the campaign runner applies FINSER_MC_SCALE once, so
  // the lowered campaign (and --print-config) carries unscaled sizes. The
  // CI target and cluster mode are set, not multiplied, so applying them
  // here as well only lets --print-config record them.
  core::apply_ci_target(flow, core::ci_target_from_env());
  core::apply_cluster(flow, core::cluster_mode_from_env());
  return flow;
}

/// The in-process campaign driver behind `run` and `campaign`: runs \p spec
/// on a CampaignRunner (cancellable; resumable through its artifact store),
/// prints each scenario's FIT table, and writes the run report and trace
/// when asked.
int run_campaign(const pipeline::CampaignSpec& spec, const std::string& command,
                 const std::string& metrics_out, const std::string& trace_out,
                 const exec::CancelToken& cancel) {
  const exec::ProgressSink progress(
      [](const std::string& m) { std::printf("  [%s]\n", m.c_str()); },
      std::chrono::milliseconds(250));
  ckpt::RunOptions run;
  run.cancel = &cancel;

  pipeline::CampaignRunner runner(spec);
  const auto results = runner.run(progress, run);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& scenario = results[i];
    const auto& species = runner.spec().scenarios[i].species;
    util::CsvTable fit_table = pipeline::make_fit_table();
    for (std::size_t s = 0; s < scenario.sweeps.size(); ++s) {
      pipeline::append_fit_rows(fit_table, species[s], scenario.sweeps[s]);
    }
    std::printf("\nscenario %s:\n", scenario.name.c_str());
    fit_table.write_pretty(std::cout);
  }
  if (!spec.output_dir.empty()) {
    std::printf("\nresults written to %s/\n", spec.output_dir.c_str());
  }

  if (!metrics_out.empty()) {
    obs::RunInfo info;
    info.tool = "finser_cli";
    info.command = command;
    if (spec.scenarios.size() == 1) info.seed = spec.scenarios[0].flow.seed;
    info.threads = exec::resolve_threads(spec.threads);
    info.lanes = spice::lane_width();
    info.mc_scale = core::mc_scale_from_env();
    info.config_fingerprint = pipeline::campaign_fingerprint(spec);
    obs::write_run_report(metrics_out, info);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::write_chrome_trace(trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}

int cmd_run(const std::string& config_path, std::size_t cli_threads,
            const std::string& metrics_out, const std::string& trace_out,
            bool print_config, const exec::CancelToken& cancel) {
  util::KeyValueConfig cfg;
  if (!config_path.empty()) {
    cfg = util::KeyValueConfig::parse_file(config_path);
  }
  const std::string out_dir = cfg.get_string("output.dir", "finser_out");
  const std::vector<std::string> species =
      split_list(cfg.get_string("species", "alpha,proton"));
  const core::SerFlowConfig flow_cfg = flow_config_from(cfg, cli_threads);

  // Fail loudly on config typos before hours of Monte Carlo. The getters
  // above recorded every supported knob, so misspellings get a suggestion.
  const auto unknown = cfg.unknown_keys();
  if (!unknown.empty()) {
    for (const auto& k : unknown) {
      std::fprintf(stderr, "error: unknown config key `%s`", k.c_str());
      const std::string suggestion = cfg.suggestion_for(k);
      if (!suggestion.empty()) {
        std::fprintf(stderr, " (did you mean `%s`?)", suggestion.c_str());
      }
      std::fprintf(stderr, "\n");
    }
    return 2;
  }

  // The lowering: a single-scenario campaign whose artifact store lives
  // under the output directory. --print-config prints exactly what runs,
  // and it round-trips through the campaign parser unchanged.
  pipeline::CampaignSpec spec =
      pipeline::single_scenario_campaign(flow_cfg, species, out_dir, "run");
  spec.artifact_dir = out_dir + "/artifacts";
  if (print_config) {
    std::printf("%s\n", pipeline::campaign_to_json(spec).dump(2).c_str());
    return 0;
  }
  return run_campaign(spec,
                      config_path.empty() ? std::string("run")
                                          : "run " + config_path,
                      metrics_out, trace_out, cancel);
}

/// Sharding knobs extracted from the global flag pass (campaign supervisor
/// + worker subcommand).
struct ShardCliOptions {
  std::size_t workers = 0;  ///< 0 = in-process (the PR-4 path).
  bool workers_from_flag = false;
  std::size_t max_retries = 2;
  double stage_timeout_s = 0.0;
  double heartbeat_timeout_s = 30.0;
  std::uint64_t worker_id = 0;  ///< worker subcommand only.
  std::string lease_dir;        ///< worker subcommand only.
  std::string artifact_dir;     ///< worker subcommand only.
};

int cmd_worker(const std::string& campaign_path, std::size_t cli_threads,
               const ShardCliOptions& opts) {
  if (opts.lease_dir.empty()) {
    std::fprintf(stderr,
                 "error: worker needs --lease-dir (spawned by a `campaign "
                 "--workers N` supervisor; see docs/sharding.md)\n");
    return 2;
  }
  shard::WorkerConfig cfg;
  cfg.campaign_path = campaign_path;
  cfg.artifact_dir = opts.artifact_dir;
  cfg.lease_dir = opts.lease_dir;
  cfg.worker_id = opts.worker_id;
  cfg.threads = cli_threads;
  return shard::run_worker(cfg);
}

int cmd_campaign(const std::string& campaign_path, std::size_t cli_threads,
                 bool cli_lanes, const std::string& metrics_out,
                 const std::string& trace_out, bool print_config,
                 const ShardCliOptions& shard_opts,
                 const exec::CancelToken& cancel) {
  pipeline::CampaignSpec spec = pipeline::parse_campaign_file(campaign_path);
  if (cli_threads > 0) spec.threads = cli_threads;
  // --lanes wins over the campaign file's `lanes` key (both over auto).
  if (cli_lanes) spec.lanes = spice::lane_width();

  if (print_config) {
    std::printf("%s\n", pipeline::campaign_to_json(spec).dump(2).c_str());
    return 0;
  }

  if (shard_opts.workers > 0) {
    // Sharded path: worker subprocesses, lease-based supervision. Byte-
    // identical outputs to the in-process branch below (docs/sharding.md).
    const exec::ProgressSink progress(
        [](const std::string& m) { std::printf("  [%s]\n", m.c_str()); },
        std::chrono::milliseconds(250));
    shard::ShardConfig scfg;
    scfg.workers = shard_opts.workers;
    scfg.max_retries = shard_opts.max_retries;
    scfg.stage_timeout_s = shard_opts.stage_timeout_s;
    scfg.heartbeat_timeout_s = shard_opts.heartbeat_timeout_s;
    scfg.campaign_path = campaign_path;
    scfg.lanes = cli_lanes ? spice::lane_width() : 0;
    const shard::ShardResult result =
        shard::run_sharded_campaign(spec, scfg, &cancel, progress);

    std::printf("\nsharded campaign: %zu/%zu stages completed",
                result.stages_completed, result.stages_total);
    if (result.stages_resumed > 0) {
      std::printf(" (%zu resumed from a previous run)", result.stages_resumed);
    }
    std::printf("\n");
    for (const auto& f : result.failures) {
      std::printf("  %s stage %s after %zu attempts: %s\n", f.status.c_str(),
                  f.id.c_str(), f.attempts, f.reason.c_str());
    }
    if (!spec.output_dir.empty()) {
      std::printf("results written to %s/\n", spec.output_dir.c_str());
    }

    if (!metrics_out.empty()) {
      obs::RunInfo info;
      info.tool = "finser_cli";
      info.command = "campaign " + campaign_path + " --workers " +
                     std::to_string(shard_opts.workers);
      info.threads = exec::resolve_threads(spec.threads);
      info.lanes = spice::lane_width();
      info.mc_scale = core::mc_scale_from_env();
      info.config_fingerprint = pipeline::campaign_fingerprint(spec);
      const util::JsonValue shard_doc = shard::shard_report_json(result, scfg);
      obs::write_run_report(metrics_out, info, &shard_doc);
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      obs::write_chrome_trace(trace_out);
      std::printf("trace written to %s\n", trace_out.c_str());
    }
    switch (result.outcome) {
      case shard::ShardOutcome::kComplete:
        return 0;
      case shard::ShardOutcome::kPartial:
        return 5;
      case shard::ShardOutcome::kFailed:
        return 1;
    }
    return 1;
  }

  return run_campaign(spec, "campaign " + campaign_path, metrics_out,
                      trace_out, cancel);
}

/// A streambuf reading raw bytes from a POSIX fd with local buffering.
///
/// `serve` cannot read requests through std::cin, for two reasons:
///   - the stdio-synced streambuf reports in_avail() == 0 even when a burst
///     of requests is already buffered, which defeats ServeSession's
///     flush-at-blocking-boundary batching (one refinement per burst);
///   - the unsynced filebuf retries read(2) after EINTR, so a SIGINT/SIGTERM
///     arriving while blocked on input never surfaces and the drain hangs.
/// Owning the fd read fixes both: in_avail() reports exactly the bytes a
/// single read(2) pulled in, and an interrupted read returns eof, which ends
/// the request loop and lets the session drain (docs/serving.md).
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, buf_, sizeof buf_);
    if (n <= 0) return traits_type::eof();  // EOF, error, or EINTR (cancel)
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  char buf_[1 << 16];
};

int cmd_serve(const std::string& campaign_path, std::size_t cli_threads,
              bool cli_lanes, std::size_t max_pending,
              const std::string& artifact_dir_override,
              const exec::CancelToken& cancel) {
  pipeline::CampaignSpec spec = pipeline::parse_campaign_file(campaign_path);
  if (cli_threads > 0) spec.threads = cli_threads;
  if (cli_lanes) spec.lanes = spice::lane_width();
  if (!artifact_dir_override.empty()) spec.artifact_dir = artifact_dir_override;
  spec.output_dir.clear();  // serve answers queries; it never emits CSV files

  // Counters feed the `stats` op (and witness the warm-restart
  // zero-characterization contract), so collection is always on here.
  finser::obs::set_enabled(true);

  // stdout carries protocol replies only; progress goes to stderr.
  const exec::ProgressSink progress(
      [](const std::string& m) { std::fprintf(stderr, "  [%s]\n", m.c_str()); },
      std::chrono::milliseconds(250));
  ckpt::RunOptions run;
  run.cancel = &cancel;

  pipeline::SurfaceProvider provider(std::move(spec), cli_threads, progress,
                                     run);
  surface::ServeConfig scfg;
  scfg.max_pending = max_pending;
  surface::ServeSession session(
      provider.catalog(), scfg,
      [&provider](const std::string& scenario, const std::string& species) {
        return provider.lookup(scenario, species);
      },
      [&provider](const std::string& scenario, const std::string& species) {
        return provider.refine(scenario, species);
      },
      &cancel);
  FdInBuf inbuf(0 /* stdin */);
  std::istream in(&inbuf);
  return session.run(in, std::cout);
}

int cmd_artifacts(const std::vector<std::string>& args,
                  const std::string& artifact_dir_flag) {
  if (args.size() < 2 || args[1] != "ls") {
    std::fprintf(stderr, "error: usage: finser_cli artifacts ls <dir>\n");
    return 2;
  }
  const std::string dir = args.size() > 2 ? args[2] : artifact_dir_flag;
  if (dir.empty()) {
    std::fprintf(stderr,
                 "error: artifacts ls needs a store directory (positional "
                 "argument or --artifact-dir)\n");
    return 2;
  }
  // Read-only open: no orphan sweep, no writes — safe to point at a store a
  // live campaign or serve process is using.
  const pipeline::ArtifactStore store(dir, /*sweep_on_open=*/false);
  const std::vector<pipeline::ArtifactStore::Entry> entries = store.list();
  std::printf("%-20s %-16s %12s  %s\n", "KIND", "FINGERPRINT", "BYTES",
              "STATUS");
  std::size_t bad = 0;
  for (const auto& e : entries) {
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(e.key.fingerprint));
    std::printf("%-20s %-16s %12ju  %s\n", e.key.kind.c_str(), fp,
                static_cast<std::uintmax_t>(e.bytes), e.status.c_str());
    if (!e.ok) ++bad;
  }
  std::printf("%zu entries (%zu ok, %zu bad) in %s\n", entries.size(),
              entries.size() - bad, bad, dir.c_str());
  // An inventory is diagnostic output, not a health check: corrupt entries
  // show in STATUS but the command itself still succeeded.
  return 0;
}

int cmd_cell(double vdd) {
  const sram::CellDesign design;
  std::printf("14 nm SOI FinFET 6T cell @ Vdd = %.2f V\n", vdd);

  sram::StrikeSimulator sim(design, vdd);
  const auto kind = spice::PulseShape::Kind::kRectangular;
  const char* names[3] = {"I1 (pull-down)", "I2 (pull-up)", "I3 (pass-gate)"};
  for (int i = 0; i < 3; ++i) {
    sram::StrikeCharges dir;
    (i == 0 ? dir.i1_fc : i == 1 ? dir.i2_fc : dir.i3_fc) = 1.0;
    const double q = sram::bisect_critical_scale(sim, dir, sram::DeltaVt{}, 0.6,
                                                 1e-4, kind);
    std::printf("  Qcrit %-16s: %.4f fC (%.0f e-h pairs)\n", names[i], q,
                q / 1.602176634e-4);
  }
  const auto hold = sram::static_noise_margin(design, vdd);
  const auto read =
      sram::static_noise_margin(design, vdd, sram::AccessMode::kRead);
  std::printf("  hold SNM             : %.1f mV\n", 1e3 * hold.snm_v);
  std::printf("  read SNM             : %.1f mV\n", 1e3 * read.snm_v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Armed for the whole process lifetime: SIGINT/SIGTERM request a
  // cooperative stop at the next chunk boundary instead of killing the run.
  static exec::CancelToken cancel;
  exec::install_signal_cancel(&cancel);

  try {
    // Extract the global flags, keep the rest positional.
    std::vector<std::string> args;
    std::size_t threads = 0;
    bool lanes_given = false;
    // FINSER_METRICS turns collection on; a path-like value (anything but
    // "0"/"1") doubles as the default --metrics-out destination.
    std::string metrics_out = finser::obs::configure_from_env();
    if (metrics_out == "0" || metrics_out == "1") metrics_out.clear();
    std::string trace_out;
    bool print_config = false;
    std::size_t max_pending = 64;
    ShardCliOptions shard_opts;
    // FINSER_WORKERS seeds the worker count for `campaign`; --workers wins.
    if (const char* env = std::getenv("FINSER_WORKERS");
        env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 0) {
        shard_opts.workers = static_cast<std::size_t>(v);
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--print-config") {
        print_config = true;
        continue;
      }
      if (a == "--threads" || a == "--lanes" || a == "--metrics-out" ||
          a == "--trace-out" || a == "--workers" || a == "--max-retries" ||
          a == "--stage-timeout-s" || a == "--heartbeat-timeout-s" ||
          a == "--worker-id" || a == "--lease-dir" || a == "--artifact-dir" ||
          a == "--ci-target" || a == "--cluster" || a == "--max-pending") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
          return 2;
        }
        const char* raw = argv[++i];
        if (a == "--metrics-out") {
          metrics_out = raw;
          finser::obs::set_enabled(true);
          continue;
        }
        if (a == "--trace-out") {
          trace_out = raw;
          finser::obs::set_trace_enabled(true);
          continue;
        }
        if (a == "--lease-dir") {
          shard_opts.lease_dir = raw;
          continue;
        }
        if (a == "--artifact-dir") {
          shard_opts.artifact_dir = raw;
          continue;
        }
        char* end = nullptr;
        if (a == "--ci-target") {
          const double v = std::strtod(raw, &end);
          if (end == raw || *end != '\0' || v < 0.0) {
            std::fprintf(stderr,
                         "error: --ci-target expects a relative half-width "
                         ">= 0 (0 disables stopping), got \"%s\"\n",
                         raw);
            return 2;
          }
          // Exported instead of stored: every consumer (run flow, campaign
          // runner, shard worker subprocesses) reads FINSER_CI_TARGET, so
          // the flag and the environment variable are exactly equivalent.
          setenv("FINSER_CI_TARGET", raw, 1);
          continue;
        }
        if (a == "--cluster") {
          if (!sram::cluster_mode_from(raw).has_value()) {
            std::fprintf(stderr,
                         "error: --cluster expects 1x1, 2x2 or 1x4, got "
                         "\"%s\"\n",
                         raw);
            return 2;
          }
          // Exported like --ci-target: the run flow, campaign runner and
          // shard worker subprocesses all read FINSER_CLUSTER, so the flag
          // and the environment variable are exactly equivalent.
          setenv("FINSER_CLUSTER", raw, 1);
          continue;
        }
        if (a == "--max-pending") {
          const long v = std::strtol(raw, &end, 10);
          if (end == raw || *end != '\0' || v < 1) {
            std::fprintf(stderr,
                         "error: --max-pending expects a positive integer, "
                         "got \"%s\"\n",
                         raw);
            return 2;
          }
          max_pending = static_cast<std::size_t>(v);
          continue;
        }
        if (a == "--workers" || a == "--max-retries" || a == "--worker-id") {
          const long v = std::strtol(raw, &end, 10);
          if (end == raw || *end != '\0' || v < 0) {
            std::fprintf(stderr,
                         "error: %s expects a non-negative integer, got "
                         "\"%s\"\n",
                         a.c_str(), raw);
            return 2;
          }
          if (a == "--workers") {
            shard_opts.workers = static_cast<std::size_t>(v);
            shard_opts.workers_from_flag = true;
          } else if (a == "--max-retries") {
            shard_opts.max_retries = static_cast<std::size_t>(v);
          } else {
            shard_opts.worker_id = static_cast<std::uint64_t>(v);
          }
          continue;
        }
        if (a == "--stage-timeout-s" || a == "--heartbeat-timeout-s") {
          const double v = std::strtod(raw, &end);
          if (end == raw || *end != '\0' || v < 0.0) {
            std::fprintf(stderr,
                         "error: %s expects seconds >= 0, got \"%s\"\n",
                         a.c_str(), raw);
            return 2;
          }
          if (a == "--stage-timeout-s") {
            shard_opts.stage_timeout_s = v;
          } else {
            shard_opts.heartbeat_timeout_s = v;
          }
          continue;
        }
        if (a == "--threads") {
          const long v = std::strtol(raw, &end, 10);
          if (end == raw || *end != '\0' || v <= 0) {
            std::fprintf(stderr,
                         "error: --threads expects a positive integer, got "
                         "\"%s\"\n",
                         raw);
            return 2;
          }
          threads = static_cast<std::size_t>(v);
        } else {
          const long v = std::strtol(raw, &end, 10);
          if (end == raw || *end != '\0' || v < 0 ||
              !spice::lane_width_valid(static_cast<std::size_t>(v))) {
            std::fprintf(stderr,
                         "error: --lanes expects 0 (auto), 1, 4 or 8, got "
                         "\"%s\"\n",
                         raw);
            return 2;
          }
          // Applies process-wide immediately: every engine below sees it.
          spice::set_lane_width(static_cast<std::size_t>(v));
          lanes_given = true;
        }
      } else if (a.rfind("--", 0) == 0 && a != "--help") {
        // An unknown option must not be mistaken for a positional argument
        // (a config or campaign path) or silently ignored.
        std::fprintf(stderr, "error: unknown option %s (see --help)\n",
                     a.c_str());
        return 2;
      } else {
        args.push_back(a);
      }
    }

    const std::string cmd = !args.empty() ? args[0] : "--help";
    if (cmd == "run") {
      if (shard_opts.workers_from_flag) {
        std::fprintf(stderr,
                     "error: --workers applies to `campaign` only (wrap the "
                     "run config in a single-scenario campaign, see "
                     "--print-config)\n");
        return 2;
      }
      return cmd_run(args.size() > 1 ? args[1] : "", threads, metrics_out,
                     trace_out, print_config, cancel);
    }
    if (cmd == "campaign") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: campaign needs a JSON file argument\n");
        return 2;
      }
      return cmd_campaign(args[1], threads, lanes_given, metrics_out,
                          trace_out, print_config, shard_opts, cancel);
    }
    if (cmd == "serve") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: serve needs a campaign JSON argument\n");
        return 2;
      }
      return cmd_serve(args[1], threads, lanes_given, max_pending,
                       shard_opts.artifact_dir, cancel);
    }
    if (cmd == "artifacts") {
      return cmd_artifacts(args, shard_opts.artifact_dir);
    }
    if (cmd == "worker") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: worker needs a campaign JSON argument\n");
        return 2;
      }
      return cmd_worker(args[1], threads, shard_opts);
    }
    if (cmd == "cell") {
      double vdd = 0.8;
      if (args.size() > 1) {
        const char* raw = args[1].c_str();
        char* end = nullptr;
        vdd = std::strtod(raw, &end);
        if (end == raw || *end != '\0' || !std::isfinite(vdd) || vdd <= 0.0) {
          std::fprintf(stderr,
                       "error: cell expects a supply voltage <vdd> > 0 [V], "
                       "got \"%s\"\n",
                       raw);
          return 2;
        }
      }
      return cmd_cell(vdd);
    }
    print_help();
    return cmd == "--help" || cmd == "-h" ? 0 : 2;
  } catch (const util::Cancelled& e) {
    std::fprintf(stderr, "interrupted: %s\n", e.what());
    return 4;
  } catch (const util::NumericalError& e) {
    std::fprintf(stderr, "numerical failure: %s\n", e.what());
    return 3;
  } catch (const util::InvalidArgument& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
