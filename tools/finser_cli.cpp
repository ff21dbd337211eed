/// \file finser_cli.cpp
/// \brief Command-line driver of the finser cross-layer SER flow.
///
/// Usage:
///   finser_cli campaign <file.json>   run a campaign document through the
///                                     device → cell → array → FIT flow
///                                     (schema: docs/architecture.md; the
///                                     paper's setup: campaigns/paper.json)
///   finser_cli serve <file.json>      long-lived NDJSON POF/FIT query loop
///                                     over the campaign's response surfaces
///                                     (protocol: docs/serving.md)
///   finser_cli artifacts ls <dir>     read-only artifact-store inventory
///   finser_cli cell [vdd]             one-voltage cell summary (Qcrit, SNM)
///   finser_cli worker <file.json>     shard worker: stage assignments on
///                                     stdin, reports on stdout (spawned by
///                                     `campaign --workers N`;
///                                     docs/sharding.md)
///   finser_cli --help
///
/// The `--threads N` flag caps the worker-thread count (default:
/// FINSER_THREADS, else hardware concurrency). Results are bit-identical
/// for any thread count (docs/parallelism.md). Each command reads only the
/// flags commands() lists, and at most its positional arguments; anything
/// else exits 2.
///
/// A campaign writes its CSVs under its `output_dir`, and a rerun reuses
/// every finished product in its `artifact_dir` store — an interrupted run
/// resumes per energy bin, or per supply voltage while still
/// characterizing.
///
/// The campaign document is the one place a run's results are set, so
/// `--print-config`, shard workers and the run report see the run that
/// happens; FINSER_MC_SCALE is the one result-changing setting outside it.
/// The flags choose only how a run executes (`--threads` replaces the
/// document's thread budget; worker processes, supervision) and what it
/// reports.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include <unistd.h>

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
#include "finser/util/csv.hpp"
#include "finser/util/error.hpp"

namespace {

using namespace finser;

void print_help() {
  std::printf(
      "finser_cli — cross-layer SOI FinFET SRAM soft-error analysis\n\n"
      "  finser_cli campaign <file.json>   run a campaign document: shared\n"
      "                                    characterization and artifact cache,\n"
      "                                    so a rerun resumes where it stopped\n"
      "                                    (schema: docs/architecture.md; the\n"
      "                                    paper's setup: campaigns/paper.json)\n"
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
      "  finser_cli worker <file.json>     shard worker: reads stage\n"
      "                                    assignments on stdin and reports\n"
      "                                    on stdout (spawned by `campaign\n"
      "                                    --workers N`; not for direct use —\n"
      "                                    docs/sharding.md)\n"
      "  finser_cli --help                 this text\n\n"
      "Options (a command exits 2 on an option it does not read, and on an\n"
      "argument past the ones shown above):\n"
      "  --print-config for `campaign`: print the fully resolved\n"
      "                 effective configuration as campaign JSON (round-trips\n"
      "                 through the campaign parser) and exit without\n"
      "                 simulating\n"
      "  --threads N    for `campaign`, `serve` and `worker`: worker threads\n"
      "                 (default: FINSER_THREADS, else all hardware\n"
      "                 threads); never changes the results\n"
      "  --metrics-out PATH  for `campaign`: enable metric collection and\n"
      "                 write a versioned JSON RunReport there at exit\n"
      "                 (docs/observability.md)\n"
      "  --trace-out PATH  for `campaign`: also buffer per-span trace events\n"
      "                 and write a Chrome-tracing/Perfetto event file there\n"
      "                 at exit\n"
      "  --workers N    for `campaign`: run stages in N worker subprocesses\n"
      "                 under a fault-tolerant supervisor (default 0 =\n"
      "                 in-process). Results are byte-identical at any\n"
      "                 worker count (docs/sharding.md)\n"
      "  --max-retries N  for `campaign`: extra attempts before a crashing\n"
      "                 stage is quarantined (default 2; sharded only)\n"
      "  --stage-timeout-s SEC  for `campaign`: per-stage wall-clock\n"
      "                 watchdog: a stage over budget is killed and retried\n"
      "                 (default 0 = off; sharded only)\n"
      "  --heartbeat-timeout-s SEC  for `campaign`: silence before a worker\n"
      "                 is presumed dead and its stage reassigned (default\n"
      "                 30; 0 = off; sharded only)\n"
      "  --max-pending N  for `serve`: bound on queued refinement requests;\n"
      "                 requests over the bound get an immediate `shed`\n"
      "                 reply instead of waiting (default 64)\n\n"
      "Exit codes:\n"
      "  0  success\n"
      "  1  unexpected error\n"
      "  2  invalid configuration or command line\n"
      "  3  numerical failure (solver gave up after its retry ladder)\n"
      "  4  interrupted; finished work is in the artifact store (rerun to\n"
      "     resume)\n"
      "  5  partial: sharded campaign completed with quarantined stages\n"
      "     (details in the run report's \"shard\" section)\n"
      "  6  degraded: `serve` drained, but at least one request was shed,\n"
      "     malformed, failed or cancelled (docs/serving.md)\n\n"
      "Campaign document keys: include/finser/pipeline/campaign.hpp. Adaptive\n"
      "stopping is the document's `sampling.ci_target` (docs/statistics.md),\n"
      "cluster tiles its `cluster.mode` (docs/charge_sharing.md), and the\n"
      "artifact store its `artifact_dir`.\n");
}

/// The document at \p path with the --threads budget (0 = the document's).
pipeline::CampaignSpec read_campaign(const std::string& path,
                                     std::size_t threads) {
  pipeline::CampaignSpec spec = pipeline::parse_campaign_file(path);
  if (threads > 0) spec.threads = threads;
  return spec;
}

/// What a run reports about itself: the run report and the trace.
struct Outputs {
  std::string command;      ///< The command line, as given.
  std::string metrics_out;  ///< "" = no run report.
  std::string trace_out;    ///< "" = no trace.
};

/// Write the run report and trace \p out asks for; \p fingerprint is
/// CampaignRunner::fingerprint, \p shard a sharded run's report section.
void write_outputs(const Outputs& out, const pipeline::CampaignSpec& spec,
                   std::uint64_t fingerprint,
                   const util::JsonValue* shard = nullptr) {
  if (!out.metrics_out.empty()) {
    obs::RunInfo info;
    info.tool = "finser_cli";
    info.command = out.command;
    if (spec.scenarios.size() == 1) info.seed = spec.scenarios[0].flow.seed;
    info.threads = exec::resolve_threads(spec.threads);
    info.lanes = spice::lane_width();
    info.mc_scale = core::mc_scale_from_env();
    info.config_fingerprint = fingerprint;
    obs::write_run_report(out.metrics_out, info, shard);
    std::printf("metrics written to %s\n", out.metrics_out.c_str());
  }
  if (!out.trace_out.empty()) {
    obs::write_chrome_trace(out.trace_out);
    std::printf("trace written to %s\n", out.trace_out.c_str());
  }
}

/// `campaign` in-process: runs \p spec on a CampaignRunner (cancellable;
/// resumable through its artifact store), prints each scenario's FIT table,
/// and writes the run report and trace when asked.
int run_campaign(const pipeline::CampaignSpec& spec, const Outputs& out,
                 const exec::CancelToken& cancel) {
  const exec::ProgressSink progress(
      [](const std::string& m) { std::printf("  [%s]\n", m.c_str()); },
      std::chrono::milliseconds(250));
  pipeline::CampaignRunner runner(spec);
  const auto results = runner.run(progress, &cancel);

  for (const pipeline::ScenarioResult& scenario : results) {
    util::CsvTable fit_table = pipeline::make_fit_table();
    for (const surface::ResponseSurface& surf : scenario.surfaces) {
      pipeline::append_fit_rows(fit_table, surf.species, surf);
    }
    std::printf("\nscenario %s:\n", scenario.name.c_str());
    fit_table.write_pretty(std::cout);
  }
  if (!spec.output_dir.empty()) {
    std::printf("\nresults written to %s/\n", spec.output_dir.c_str());
  }
  write_outputs(out, spec, runner.fingerprint());
  return 0;
}

/// Sharding knobs of `campaign`, extracted from the global flag pass.
struct ShardCliOptions {
  std::size_t workers = 0;  ///< 0 = in-process.
  std::size_t max_retries = 2;
  double stage_timeout_s = 0.0;
  double heartbeat_timeout_s = 30.0;
};

int cmd_campaign(const std::string& campaign_path, std::size_t threads,
                 const Outputs& out, bool print_config,
                 const ShardCliOptions& shard_opts,
                 const exec::CancelToken& cancel) {
  const pipeline::CampaignSpec spec = read_campaign(campaign_path, threads);

  if (print_config) {
    std::printf("%s\n", pipeline::campaign_to_json(spec).dump(2).c_str());
    return 0;
  }

  if (shard_opts.workers > 0) {
    // Sharded path: worker subprocesses on pipes, supervised. Byte-identical
    // outputs to the in-process branch below (docs/sharding.md).
    const exec::ProgressSink progress(
        [](const std::string& m) { std::printf("  [%s]\n", m.c_str()); },
        std::chrono::milliseconds(250));
    shard::ShardConfig scfg;
    scfg.workers = shard_opts.workers;
    scfg.max_retries = shard_opts.max_retries;
    scfg.stage_timeout_s = shard_opts.stage_timeout_s;
    scfg.heartbeat_timeout_s = shard_opts.heartbeat_timeout_s;
    const shard::ShardResult result =
        shard::run_sharded_campaign(spec, scfg, &cancel, progress);

    std::printf("\nsharded campaign: %zu/%zu stages completed\n",
                result.stages_completed, result.stages_total);
    for (const auto& f : result.failures) {
      std::printf("  %s stage %s after %zu attempts: %s\n", f.status.c_str(),
                  f.id.c_str(), f.attempts, f.reason.c_str());
    }
    if (!spec.output_dir.empty()) {
      std::printf("results written to %s/\n", spec.output_dir.c_str());
    }
    const util::JsonValue shard_doc = shard::shard_report_json(result, scfg);
    write_outputs(out, spec, result.fingerprint, &shard_doc);
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

  return run_campaign(spec, out, cancel);
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

int cmd_serve(const std::string& campaign_path, std::size_t threads,
              std::size_t max_pending, const exec::CancelToken& cancel) {
  pipeline::CampaignSpec spec = read_campaign(campaign_path, threads);
  spec.output_dir.clear();  // serve answers queries; it never emits CSV files

  // Counters feed the `stats` op (and witness the warm-restart
  // zero-characterization contract), so collection is always on here.
  finser::obs::set_enabled(true);

  // stdout carries protocol replies only; progress goes to stderr.
  const exec::ProgressSink progress(
      [](const std::string& m) { std::fprintf(stderr, "  [%s]\n", m.c_str()); },
      std::chrono::milliseconds(250));
  pipeline::SurfaceProvider provider(std::move(spec), threads, progress,
                                     &cancel);
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

int cmd_artifacts(const std::vector<std::string>& args) {
  if (args.size() < 3 || args[1] != "ls") {
    std::fprintf(stderr, "error: usage: finser_cli artifacts ls <dir>\n");
    return 2;
  }
  const std::string& dir = args[2];
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

/// What a command reads: at most `positionals` arguments after its name,
/// and the flags listed.
struct CommandSpec {
  std::size_t positionals;
  std::vector<std::string> flags;
};

/// Every known command. main() rejects any other flag and any surplus
/// argument, so input a command would ignore exits 2 instead of looking
/// accepted.
const std::map<std::string, CommandSpec>& commands() {
  static const std::map<std::string, CommandSpec> table = {
      {"campaign",
       {1,
        {"--print-config", "--threads", "--metrics-out", "--trace-out",
         "--workers", "--max-retries", "--stage-timeout-s",
         "--heartbeat-timeout-s"}}},
      {"serve", {1, {"--threads", "--max-pending"}}},
      {"worker", {1, {"--threads"}}},
      {"artifacts", {2, {}}},  // ls <dir>
      {"cell", {1, {}}},
  };
  return table;
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
    std::size_t threads = 0;  // --threads; 0 = the document's
    Outputs out;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) out.command += ' ';
      out.command += argv[i];
    }
    bool print_config = false;
    std::size_t max_pending = 64;
    ShardCliOptions shard_opts;
    std::vector<std::string> flags;  // every flag given, in order
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0 || a == "--help") {
        args.push_back(a);
        continue;
      }
      const bool known = std::any_of(
          commands().begin(), commands().end(), [&](const auto& c) {
            const std::vector<std::string>& f = c.second.flags;
            return std::find(f.begin(), f.end(), a) != f.end();
          });
      if (!known) {
        // An unknown option must not be mistaken for a positional argument
        // (a campaign path) or silently ignored.
        std::fprintf(stderr, "error: unknown option %s (see --help)\n",
                     a.c_str());
        return 2;
      }
      flags.push_back(a);
      if (a == "--print-config") {
        print_config = true;
        continue;
      }
      // Every other flag takes a value.
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
        return 2;
      }
      const char* raw = argv[++i];
      if (a == "--metrics-out") {
        out.metrics_out = raw;
        finser::obs::set_enabled(true);
        continue;
      }
      if (a == "--trace-out") {
        out.trace_out = raw;
        finser::obs::set_trace_enabled(true);
        continue;
      }
      char* end = nullptr;
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
      if (a == "--workers" || a == "--max-retries") {
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
        } else {
          shard_opts.max_retries = static_cast<std::size_t>(v);
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
      // --threads
      const long v = std::strtol(raw, &end, 10);
      if (end == raw || *end != '\0' || v <= 0) {
        std::fprintf(stderr,
                     "error: --threads expects a positive integer, got "
                     "\"%s\"\n",
                     raw);
        return 2;
      }
      threads = static_cast<std::size_t>(v);
    }

    const std::string cmd = !args.empty() ? args[0] : "--help";
    const auto reads = commands().find(cmd);
    if (reads == commands().end()) {
      if (cmd != "--help" && cmd != "-h") {
        std::fprintf(stderr, "error: unknown command `%s`\n", cmd.c_str());
      }
      print_help();
      return cmd == "--help" || cmd == "-h" ? 0 : 2;
    }
    for (const std::string& flag : flags) {
      const std::vector<std::string>& known = reads->second.flags;
      if (std::find(known.begin(), known.end(), flag) == known.end()) {
        std::fprintf(stderr, "error: `%s` does not read %s (see --help)\n",
                     cmd.c_str(), flag.c_str());
        return 2;
      }
    }
    if (args.size() > reads->second.positionals + 1) {
      std::fprintf(stderr,
                   "error: unexpected argument `%s` for `%s` (see --help)\n",
                   args[reads->second.positionals + 1].c_str(), cmd.c_str());
      return 2;
    }
    if (cmd == "campaign") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: campaign needs a JSON file argument\n");
        return 2;
      }
      return cmd_campaign(args[1], threads, out, print_config, shard_opts,
                          cancel);
    }
    if (cmd == "serve") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: serve needs a campaign JSON argument\n");
        return 2;
      }
      return cmd_serve(args[1], threads, max_pending, cancel);
    }
    if (cmd == "artifacts") return cmd_artifacts(args);
    if (cmd == "worker") {
      if (args.size() < 2) {
        std::fprintf(stderr, "error: worker needs a campaign JSON argument\n");
        return 2;
      }
      shard::WorkerConfig cfg;
      cfg.campaign_path = args[1];
      cfg.threads = threads;
      return shard::run_worker(cfg);
    }
    // cell
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
