/// \file shard_harness.cpp
/// \brief End-to-end equivalence and degradation test for sharded campaign
/// execution (docs/sharding.md). Registered as ctest ShardCampaignEquivalence.
///
/// The driver receives the finser_cli path on argv[1] and runs one tiny
/// two-scenario campaign through these legs, each in a fresh output dir:
///
///   1. reference      — in-process `campaign` run (no --workers).
///   2. --workers 1/2/4 — sharded runs; every CSV must be byte-identical to
///      the reference (determinism is the contract, not a best effort). The
///      sub-legs repeat this with a `sampling.ci_target`, with 2x2 cluster
///      tiles, and with two different campaigns running at once on one
///      artifact_dir.
///   3. kill           — --workers 4 with FINSER_FAULT=worker_kill_after_claim:1:
///      every initial worker SIGKILLs itself right after reading its first
///      assignment; replacements (spawned without the fault) must finish the
///      campaign with exit 0 and identical CSVs.
///   4. stall          — FINSER_FAULT=heartbeat_stall:1 wedges both initial
///      workers; with --stage-timeout-s the wall-clock watchdog (not the
///      heartbeat timeout, pushed out of reach) must reclaim and finish. The
///      timeout is max(2 s, 3 × the reference leg's wall time), so a slow
///      build (sanitizers) or a loaded host does not time out healthy
///      stages.
///   5. quarantine     — FINSER_SHARD_POISON=sweep-b makes scenario b's sweep
///      die on every attempt: exit code 5 (partial), scenario a identical to
///      the reference, and the run report must carry the quarantined stage.
///   6. overrides      — for each of a `"cluster": {"mode": "2x2"}`
///      document, a `"sampling": {"ci_target": 0.35}` document and
///      FINSER_MC_SCALE=2: a --workers 2 run of the override (whose CSVs
///      must differ from plain), then a --workers 2 run of the plain
///      document on the same output dir and store, whose CSVs must equal
///      the in-process plain reference. The rerun dispatches every stage;
///      the store holds the override's products under other fingerprints,
///      so none of them stands in for a plain one.
///
/// CSVs, not metrics, are compared: scheduling counters ("shard.reassigns",
/// the heartbeat histogram) legitimately differ between runs.
///
/// Every child's stderr is appended to one log, and the harness fails if a
/// sanitizer wrote to it: a worker that a sanitizer stops is retried like
/// any dead worker, and one that reports at exit is already done, so the
/// campaign's exit code alone would hide both.

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "finser/util/io.hpp"

namespace {

using namespace finser;

/// The five files a completed run of the harness campaign writes.
const char* kCsvFiles[] = {
    "a/pof_alpha.csv", "a/fit_summary.csv", "b/pof_alpha.csv",
    "b/fit_summary.csv", "eh_pairs_alpha.csv",
};

/// Tiny but end-to-end campaign: shared cell model, two sweep stages.
/// \p strikes and \p extra_defaults parameterize the adaptive-stopping leg
/// (more strikes so the chunked stopping schedule has real decision points,
/// plus a `sampling` defaults block); a non-empty \p store sets the
/// artifact_dir (default: <outdir>/artifacts).
void write_campaign(const std::string& path, const std::string& outdir,
                    std::size_t strikes = 600,
                    const std::string& extra_defaults = "",
                    const std::string& store = "") {
  const std::string doc = std::string("{\n")
      + "  \"campaign\": \"shard-harness\",\n"
      + "  \"seed\": 5,\n"
      + "  \"output_dir\": \"" + outdir + "\",\n"
      + (store.empty() ? "" : "  \"artifact_dir\": \"" + store + "\",\n")
      + "  \"defaults\": {\n"
      + "    \"rows\": 2, \"cols\": 2, \"vdds\": [0.8], \"pv_samples\": 10,\n"
      + "    \"strikes\": " + std::to_string(strikes) + ",\n"
      + "    \"histories\": 600, \"species\": [\"alpha\"]" + extra_defaults + "\n"
      + "  },\n"
      + "  \"scenarios\": [\n"
      + "    {\"name\": \"a\"},\n"
      + "    {\"name\": \"b\", \"pattern\": \"zeros\"}\n"
      + "  ]\n"
      + "}\n";
  std::string error;
  if (!util::atomic_write_file(path, doc.data(), doc.size(), &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
}

/// Where every child's stderr goes (see the file comment).
std::string g_child_log;

/// Fork + execv finser_cli; returns the child's pid.
pid_t spawn_cli(const std::string& cli, const std::vector<std::string>& args,
                const char* fault, const char* poison) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    if (fault != nullptr) setenv("FINSER_FAULT", fault, 1);
    else unsetenv("FINSER_FAULT");
    if (poison != nullptr) setenv("FINSER_SHARD_POISON", poison, 1);
    else unsetenv("FINSER_SHARD_POISON");
    const int log = open(g_child_log.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(cli.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(cli.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  return pid;
}

/// Wait for a spawn_cli child; returns its exit code (or -signal).
int wait_cli(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    std::exit(1);
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -999;
}

int run_cli(const std::string& cli, const std::vector<std::string>& args,
            const char* fault, const char* poison) {
  return wait_cli(spawn_cli(cli, args, fault, poison));
}

bool files_identical(const std::string& a, const std::string& b) {
  std::vector<std::uint8_t> da;
  std::vector<std::uint8_t> db;
  return util::read_file(a, da, nullptr) && util::read_file(b, db, nullptr) &&
         da == db;
}

bool file_contains(const std::string& path, const std::string& needle) {
  std::vector<std::uint8_t> raw;
  if (!util::read_file(path, raw, nullptr)) return false;
  const std::string text(raw.begin(), raw.end());
  return text.find(needle) != std::string::npos;
}

int fail(const std::string& msg) {
  std::vector<std::uint8_t> log;
  if (util::read_file(g_child_log, log, nullptr)) {
    std::fwrite(log.data(), 1, log.size(), stderr);
  }
  std::fprintf(stderr, "shard harness FAILED: %s\n", msg.c_str());
  return 1;
}

/// Compare every campaign CSV under \p out against the reference outputs.
bool outputs_match_reference(const std::string& out, const std::string& ref,
                             std::string* why) {
  for (const char* rel : kCsvFiles) {
    if (!files_identical(out + "/" + rel, ref + "/" + rel)) {
      *why = std::string(rel) + " differs from reference (or is missing)";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: shard_harness <finser_cli>\n");
    return 2;
  }
  const std::string cli = argv[1];

  // The harness owns its determinism: scrub env knobs children would read.
  unsetenv("FINSER_MC_SCALE");
  unsetenv("FINSER_THREADS");
  unsetenv("FINSER_FAULT");
  unsetenv("FINSER_SHARD_POISON");

  char root_template[] = "/tmp/finser_shard_XXXXXX";
  const char* root_c = mkdtemp(root_template);
  if (root_c == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string root = root_c;
  g_child_log = root + "/children.log";
  std::string why;

  // 1. In-process reference. Its wall time scales the stall leg's stage
  //    timeout to this build and this host.
  const std::string ref_out = root + "/out_ref";
  write_campaign(root + "/ref.json", ref_out);
  const auto ref_start = std::chrono::steady_clock::now();
  if (run_cli(cli, {"campaign", root + "/ref.json"}, nullptr, nullptr) != 0) {
    return fail("in-process reference run failed");
  }
  const double ref_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - ref_start)
                                .count();

  // 2. Sharded runs at 1, 2 and 4 workers must be byte-identical.
  for (const int workers : {1, 2, 4}) {
    const std::string tag = std::to_string(workers);
    const std::string out = root + "/out_w" + tag;
    write_campaign(root + "/w" + tag + ".json", out);
    const int rc = run_cli(
        cli, {"campaign", root + "/w" + tag + ".json", "--workers", tag},
        nullptr, nullptr);
    if (rc != 0) {
      return fail("--workers " + tag + " exited " + std::to_string(rc));
    }
    if (!outputs_match_reference(out, ref_out, &why)) {
      return fail("--workers " + tag + ": " + why);
    }
    std::printf("shard OK: --workers %s bit-identical to in-process\n",
                tag.c_str());
  }

  // 2b. Adaptive stopping across processes: `sampling.ci_target` makes
  //     every energy bin stop at a deterministic chunk-granular round
  //     boundary, and shard workers read it from the supervisor's resolved
  //     copy of the document (<artifact_dir>/campaigns/<run
  //     fingerprint>.json) — a --workers 2 run must stay byte-identical to
  //     the in-process run. The campaign also turns on importance sampling,
  //     so the weighted estimator state crosses the process boundary too.
  {
    const std::string sampling =
        ",\n    \"sampling\": {\"position\": \"importance\", "
        "\"ci_min_chunks\": 2";
    const std::string full = sampling + "}";
    const std::string stopped = sampling + ", \"ci_target\": 0.35}";
    constexpr std::size_t kCiStrikes = 6000;  // > 1 chunk: rounds are real.

    // Engagement witness: the same campaign without the CI target must land
    // on different numbers (the stopper really cut the budget) — otherwise
    // this leg would pass vacuously with stopping disabled.
    const std::string full_out = root + "/out_ci_full";
    write_campaign(root + "/ci_full.json", full_out, kCiStrikes, full);
    if (run_cli(cli, {"campaign", root + "/ci_full.json"}, nullptr, nullptr) !=
        0) {
      return fail("full-budget importance reference run failed");
    }

    const std::string ci_ref = root + "/out_ci_ref";
    write_campaign(root + "/ci_ref.json", ci_ref, kCiStrikes, stopped);
    if (run_cli(cli, {"campaign", root + "/ci_ref.json"}, nullptr, nullptr) !=
        0) {
      return fail("in-process ci_target reference run failed");
    }
    if (files_identical(ci_ref + "/a/pof_alpha.csv",
                        full_out + "/a/pof_alpha.csv")) {
      return fail("ci_target leg: adaptive stopping never engaged (outputs "
                  "match the full-budget run)");
    }

    const std::string out = root + "/out_ci_w2";
    write_campaign(root + "/ci_w2.json", out, kCiStrikes, stopped);
    const int rc = run_cli(
        cli, {"campaign", root + "/ci_w2.json", "--workers", "2"}, nullptr,
        nullptr);
    if (rc != 0) {
      return fail("--workers 2 ci_target exited " + std::to_string(rc));
    }
    if (!outputs_match_reference(out, ci_ref, &why)) {
      return fail("--workers 2 ci_target: " + why);
    }
    std::printf(
        "shard OK: --workers 2 ci_target bit-identical to in-process\n");
  }

  // 2c. Correlated charge collection across processes: a campaign with a
  //     `cluster: 2x2` defaults block must stay byte-identical between
  //     in-process and --workers 2 — the memoized cluster surface (and its
  //     cluster_surface artifacts) must not leak scheduling into the numbers.
  //     The metrics report is the engagement witness: the reference run must
  //     actually have performed cluster tile simulations, otherwise this
  //     leg passes vacuously with the cluster path never taken.
  const std::string cluster =
      ",\n    \"cluster\": {\"mode\": \"2x2\", \"pv_samples\": 4}";
  const std::string cl_ref = root + "/out_cl_ref";
  {
    const std::string report = root + "/cl_report.json";
    write_campaign(root + "/cl_ref.json", cl_ref, 600, cluster);
    if (run_cli(cli,
                {"campaign", root + "/cl_ref.json", "--metrics-out", report},
                nullptr, nullptr) != 0) {
      return fail("in-process cluster reference run failed");
    }
    if (!file_contains(report, "sram.cluster.sims")) {
      return fail("cluster leg: no cluster tile simulations ran "
                  "(report lacks sram.cluster.sims)");
    }

    const std::string out = root + "/out_cl_w2";
    write_campaign(root + "/cl_w2.json", out, 600, cluster);
    const int rc = run_cli(
        cli, {"campaign", root + "/cl_w2.json", "--workers", "2"}, nullptr,
        nullptr);
    if (rc != 0) {
      return fail("--workers 2 cluster leg exited " + std::to_string(rc));
    }
    if (!outputs_match_reference(out, cl_ref, &why)) {
      return fail("--workers 2 cluster leg: " + why);
    }
    std::printf("shard OK: cluster=2x2 bit-identical to in-process\n");
  }

  // 2d. Two different campaigns — the plain one and the cluster one — run
  //     at the same time with --workers 2 on one cold artifact_dir. Each
  //     supervisor hands its workers the document named by its own run
  //     fingerprint, so neither fleet can run the other's plan, and each
  //     campaign writes its in-process bytes.
  {
    const std::string store = root + "/shared_store";
    write_campaign(root + "/cc_plain.json", root + "/out_cc_plain", 600, "",
                   store);
    write_campaign(root + "/cc_cluster.json", root + "/out_cc_cluster", 600,
                   cluster, store);
    const pid_t plain = spawn_cli(
        cli, {"campaign", root + "/cc_plain.json", "--workers", "2"}, nullptr,
        nullptr);
    const pid_t clustered = spawn_cli(
        cli, {"campaign", root + "/cc_cluster.json", "--workers", "2"},
        nullptr, nullptr);
    const int rc_plain = wait_cli(plain);
    const int rc_cluster = wait_cli(clustered);
    if (rc_plain != 0 || rc_cluster != 0) {
      return fail("concurrent campaigns exited " + std::to_string(rc_plain) +
                  " and " + std::to_string(rc_cluster));
    }
    if (!outputs_match_reference(root + "/out_cc_plain", ref_out, &why) ||
        !outputs_match_reference(root + "/out_cc_cluster", cl_ref, &why)) {
      return fail("concurrent campaigns on one store: " + why);
    }
    std::printf("shard OK: two campaigns on one store at once, each "
                "bit-identical to in-process\n");
  }

  // 3. Every initial worker SIGKILLs itself right after its first claim;
  //    replacements must still converge to the identical result.
  {
    const std::string out = root + "/out_kill";
    write_campaign(root + "/kill.json", out);
    const int rc = run_cli(
        cli, {"campaign", root + "/kill.json", "--workers", "4"},
        "worker_kill_after_claim:1", nullptr);
    if (rc != 0) {
      return fail("worker_kill_after_claim leg exited " + std::to_string(rc));
    }
    if (!outputs_match_reference(out, ref_out, &why)) {
      return fail("worker_kill_after_claim leg: " + why);
    }
    std::printf("shard OK: bit-identical under worker_kill_after_claim\n");
  }

  // 4. Wedged workers (heartbeats stalled, stage never reports done) are
  //    reclaimed by the per-stage wall-clock watchdog, not the heartbeat
  //    timeout (pushed to 600 s so only --stage-timeout-s can fire). No
  //    healthy stage takes longer than the whole reference run, so three
  //    times its wall time only ever fires on the wedged workers.
  {
    const std::string out = root + "/out_stall";
    const std::string report = root + "/stall_report.json";
    const std::string timeout =
        std::to_string(std::max(2.0, 3.0 * ref_wall_s));
    write_campaign(root + "/stall.json", out);
    const int rc = run_cli(
        cli,
        {"campaign", root + "/stall.json", "--workers", "2",
         "--stage-timeout-s", timeout, "--heartbeat-timeout-s", "600",
         "--metrics-out", report},
        "heartbeat_stall:1", nullptr);
    if (rc != 0) {
      return fail("stage-timeout leg exited " + std::to_string(rc));
    }
    if (!outputs_match_reference(out, ref_out, &why)) {
      return fail("stage-timeout leg: " + why);
    }
    if (!file_contains(report, "shard.stage_timeouts")) {
      return fail("stage-timeout leg: report lacks shard.stage_timeouts");
    }
    std::printf("shard OK: stage watchdog (%s s) reclaimed wedged workers\n",
                timeout.c_str());
  }

  // 5. A stage that fails every attempt is quarantined: exit 5, the healthy
  //    scenario still completes bit-identically, the report says why.
  {
    const std::string out = root + "/out_q";
    const std::string report = root + "/q_report.json";
    write_campaign(root + "/q.json", out);
    const int rc = run_cli(
        cli,
        {"campaign", root + "/q.json", "--workers", "2", "--max-retries", "1",
         "--metrics-out", report},
        nullptr, "sweep-b");
    if (rc != 5) {
      return fail("quarantine leg: expected exit 5 (partial), got " +
                  std::to_string(rc));
    }
    for (const char* rel : {"a/pof_alpha.csv", "a/fit_summary.csv"}) {
      if (!files_identical(out + "/" + rel, ref_out + "/" + rel)) {
        return fail(std::string("quarantine leg: healthy scenario file ") +
                    rel + " differs from reference");
      }
    }
    if (std::filesystem::exists(out + "/b/pof_alpha.csv")) {
      return fail("quarantine leg: poisoned scenario b wrote outputs");
    }
    if (!file_contains(report, "\"quarantined\"") ||
        !file_contains(report, "sweep-b")) {
      return fail("quarantine leg: report does not record the quarantine");
    }
    std::printf("shard OK: quarantine degraded to partial (exit 5)\n");
  }

  // 6. An override is part of the run it changes: a plain run on the store
  //    of an override run must not resume the override's stages. The
  //    campaign stops early under the CI target (6000 strikes, the first
  //    stopping decision after two chunks) and keeps cluster tiles cheap.
  {
    // plain_defaults(<sampling keys>, <cluster keys>): the leg's defaults
    // with the given keys added to each block.
    const auto plain_defaults = [](const std::string& sampling_keys,
                                   const std::string& cluster_keys) {
      return ",\n    \"sampling\": {\"ci_min_chunks\": 2" + sampling_keys +
             "},\n    \"cluster\": {\"pv_samples\": 4" + cluster_keys + "}";
    };
    const std::string defaults = plain_defaults("", "");
    constexpr std::size_t kStrikes = 6000;
    const std::string plain_ref = root + "/out_ov_ref";
    write_campaign(root + "/ov_ref.json", plain_ref, kStrikes, defaults);
    if (run_cli(cli, {"campaign", root + "/ov_ref.json"}, nullptr, nullptr) !=
        0) {
      return fail("overrides leg: in-process plain reference run failed");
    }
    struct Override {
      const char* tag;
      std::string defaults;  // the override document's defaults block
      const char* mc_scale;  // FINSER_MC_SCALE for the override run, or null
    };
    const Override overrides[] = {
        {"cluster", plain_defaults("", ", \"mode\": \"2x2\""), nullptr},
        {"ci", plain_defaults(", \"ci_target\": 0.35", ""), nullptr},
        {"scale", defaults, "2"},
    };
    for (const Override& o : overrides) {
      const std::string tag = o.tag;
      const std::string doc = root + "/ov_" + tag + ".json";
      const std::string plain_doc = root + "/ov_" + tag + "_plain.json";
      const std::string out = root + "/out_ov_" + tag;
      write_campaign(doc, out, kStrikes, o.defaults);
      write_campaign(plain_doc, out, kStrikes, defaults);
      if (o.mc_scale != nullptr) setenv("FINSER_MC_SCALE", o.mc_scale, 1);
      const int rc =
          run_cli(cli, {"campaign", doc, "--workers", "2"}, nullptr, nullptr);
      unsetenv("FINSER_MC_SCALE");
      if (rc != 0) {
        return fail(tag + " override run exited " + std::to_string(rc));
      }
      if (outputs_match_reference(out, plain_ref, &why)) {
        return fail(tag + " override run: outputs match the plain run (the "
                          "override never engaged)");
      }
      if (run_cli(cli, {"campaign", plain_doc, "--workers", "2"}, nullptr,
                  nullptr) != 0) {
        return fail("plain rerun after the " + tag + " override failed");
      }
      if (!outputs_match_reference(out, plain_ref, &why)) {
        return fail("plain rerun after the " + tag + " override: " + why);
      }
      std::printf("shard OK: plain rerun after the %s override recomputed\n",
                  o.tag);
    }
  }

  if (file_contains(g_child_log, "Sanitizer") ||
      file_contains(g_child_log, "runtime error:")) {
    return fail("a child process printed a sanitizer report");
  }

  std::error_code ec;
  std::filesystem::remove_all(root, ec);  // Best-effort cleanup.
  std::printf("shard harness PASSED\n");
  return 0;
}
