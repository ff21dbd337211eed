/// \file kill_resume_harness.cpp
/// \brief End-to-end crash test: SIGKILL a campaign mid-sweep, resume it,
/// and require the result bytes to match an uninterrupted reference.
///
/// Two modes share this binary:
///
///   * default (ctest KillResumeHarness) — SIGKILL a one-scenario campaign
///     in this process tree and resume it, per the plan below.
///   * `campaign <finser_cli>` (ctest KillResumeCampaign) — SIGKILL the
///     *supervisor* of a sharded campaign once its first `cell_model`
///     artifact lands in the store, require every orphaned worker to exit
///     and be reaped by this process (a child subreaper on Linux) within
///     5 s, re-run the identical command, and require every CSV to match an
///     uninterrupted in-process reference byte-for-byte (docs/sharding.md).
///
/// Default mode runs three legs — plain, adaptive (CI target 0.35, chunk 64)
/// and correlated 2x2 cluster collection under an 88° beam — at 1 and 4
/// threads. Every child runs the alpha sweep of a one-scenario
/// CampaignRunner with its artifact store in its work dir, seeded with the
/// `cell_model` and `device_lut` artifacts of the first reference, so a
/// victim's first artifact puts are energy bins:
///
///   1. reference — uninterrupted; writes ref.bin.
///   2. victim    — FINSER_FAULT=kill_after_flush:2: the process raises
///      SIGKILL right after its 2nd artifact put lands on disk. The driver
///      asserts it died by exactly that signal and left `array_bin`
///      artifacts behind.
///   3. resume    — same store, no fault: serves the finished bins from the
///      store (core.bin_cache_hits >= 1), computes the rest, writes out.bin.
///
/// Pass criterion: out.bin is byte-identical to ref.bin for every leg and
/// thread count — resuming through the store changes nothing about the
/// numbers, only about who computed them when.

#include <sys/types.h>
#include <sys/wait.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numbers>
#include <string>
#include <vector>

#include <unistd.h>

#include "finser/core/ser_flow.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/io.hpp"

namespace {

using namespace finser;

/// The leg's one-scenario campaign: the alpha sweep of a tiny flow, with its
/// artifact store at \p store and no CSV outputs.
pipeline::CampaignSpec harness_campaign(const std::string& store,
                                        std::size_t threads,
                                        const std::string& leg) {
  core::SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pair_grid_points = 6;
  cfg.characterization.triple_grid_points = 6;
  cfg.characterization.pv_samples_grid = 6;
  cfg.array_mc.strikes = 1200;
  cfg.alpha_bins = 3;
  cfg.seed = 77;
  if (leg == "ci") {
    // Adaptive leg: per-bin CI-driven early stopping must engage (small
    // chunks so the round schedule has real decision points inside the
    // budget) and its stopping state must survive kill + resume byte-for-
    // byte — the per-bin blob serializes units_used / stopped_early.
    cfg.array_mc.strikes = 2400;
    cfg.array_mc.chunk = 64;
    cfg.array_mc.ci.target = 0.35;
    cfg.neutron_mc.ci.target = 0.35;
  }
  if (leg == "cluster") {
    // Cluster leg: correlated 2x2 charge collection under a near-grazing
    // beam, so stored bins carry real charge-shared tile simulations — the
    // memoized cluster surface must not perturb kill + resume byte-identity
    // (its entries are pure functions of quantized keys).
    cfg.array_mc.angular = core::SourceAngularLaw::kBeam;
    const double tilt = 88.0 * std::numbers::pi / 180.0;
    cfg.array_mc.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
    cfg.array_mc.cluster.mode = sram::ClusterMode::k2x2;
    cfg.array_mc.cluster.pv_samples = 4;
  }
  pipeline::CampaignSpec spec =
      pipeline::single_scenario_campaign(cfg, {"alpha"}, "", leg);
  spec.artifact_dir = store;
  spec.threads = threads;
  return spec;
}

/// Child body: run the leg's one-scenario campaign on \p store and write
/// the exact bytes of its alpha sweep. With \p resuming, the run must have
/// served at least one energy bin from the store.
int run_sweep(const std::string& store, std::size_t threads,
              const std::string& result_file, const std::string& leg,
              bool resuming) {
  obs::set_enabled(true);
  pipeline::CampaignRunner runner(harness_campaign(store, threads, leg));
  const std::vector<pipeline::ScenarioResult> results = runner.run();
  const core::EnergySweepResult& result = results[0].sweeps[0];

  util::ByteWriter w;
  w.u64(result.per_bin.size());
  for (const auto& bin : result.per_bin) {
    const std::vector<std::uint8_t> blob = core::encode_result(bin);
    w.u64(blob.size());
    w.bytes(blob.data(), blob.size());
  }
  for (const auto& modes : result.fit) {
    for (const auto& fit : modes) {
      w.f64(fit.fit_tot);
      w.f64(fit.fit_seu);
      w.f64(fit.fit_mbu);
    }
  }
  std::string error;
  if (!util::atomic_write_file(result_file, w.data().data(), w.size(), &error)) {
    std::fprintf(stderr, "harness child: cannot write %s: %s\n",
                 result_file.c_str(), error.c_str());
    return 1;
  }
  if (resuming &&
      obs::Registry::global().counter("core.bin_cache_hits").total() < 1) {
    std::fprintf(stderr, "harness child: resume served no energy bin from "
                         "the store\n");
    return 1;
  }
  return 0;
}

/// Fork + execv this binary in child mode; returns the raw waitpid status.
int spawn_child(const char* self, const std::string& store, std::size_t threads,
                const std::string& result_file, const std::string& leg,
                bool resuming, const char* fault_spec) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    if (fault_spec != nullptr) {
      setenv("FINSER_FAULT", fault_spec, 1);
    } else {
      unsetenv("FINSER_FAULT");
    }
    const std::string t = std::to_string(threads);
    const char* role = resuming ? "resume" : "run";
    std::vector<char*> argv;
    const char* args[] = {self,        "child",     store.c_str(),
                          t.c_str(),   result_file.c_str(), leg.c_str(),
                          role};
    for (const char* a : args) argv.push_back(const_cast<char*>(a));
    argv.push_back(nullptr);
    execv(self, argv.data());
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    std::exit(1);
  }
  return status;
}

bool files_identical(const std::string& a, const std::string& b) {
  std::vector<std::uint8_t> da;
  std::vector<std::uint8_t> db;
  return util::read_file(a, da, nullptr) && util::read_file(b, db, nullptr) &&
         da == db;
}

/// Number of finished artifacts of \p kind in the store directory \p dir
/// (an in-flight `*.art.tmp` does not count).
std::size_t count_artifacts(const std::string& dir, const std::string& kind) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind(kind + "-", 0) == 0 &&
        e.path().extension() == ".art") {
      ++n;
    }
  }
  return n;
}

/// Copy the cell_model and device_lut artifacts of \p from (if it exists)
/// into a fresh store directory \p to.
void seed_store(const std::string& from, const std::string& to) {
  std::filesystem::create_directories(to);
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(from, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("cell_model-", 0) == 0 || name.rfind("device_lut-", 0) == 0) {
      std::filesystem::copy_file(e.path(), to + "/" + name);
    }
  }
}

int fail(const std::string& msg) {
  std::fprintf(stderr, "kill-resume harness FAILED: %s\n", msg.c_str());
  return 1;
}

int run_driver(const char* self) {
  // The harness owns its determinism: scrub every env knob that could make
  // children disagree with each other.
  unsetenv("FINSER_MC_SCALE");
  unsetenv("FINSER_THREADS");
  unsetenv("FINSER_FAULT");

  char root_template[] = "/tmp/finser_krh_XXXXXX";
  const char* root_c = mkdtemp(root_template);
  if (root_c == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string root = root_c;
  // The first reference's cell model and device LUT, shared by every later
  // store so only the first child characterizes.
  const std::string seed = root + "/seed";

  for (const std::string leg : {"plain", "ci", "cluster"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string tag = leg + " leg, threads=" + std::to_string(threads);
      const std::string dir = root + "/" + leg + std::to_string(threads);
      const std::string ref_file = dir + "/ref.bin";
      const std::string out_file = dir + "/out.bin";

      // 1. Uninterrupted reference.
      seed_store(seed, dir + "/ref-store");
      int status = spawn_child(self, dir + "/ref-store", threads, ref_file, leg,
                               /*resuming=*/false, nullptr);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return fail("reference run (" + tag + ") did not exit cleanly");
      }
      if (!std::filesystem::exists(seed)) seed_store(dir + "/ref-store", seed);

      // 2. Victim: dies by SIGKILL right after its 2nd artifact put.
      const std::string store = dir + "/store";
      seed_store(seed, store);
      status = spawn_child(self, store, threads, out_file, leg,
                           /*resuming=*/false, "kill_after_flush:2");
      if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        return fail("victim (" + tag + ") was expected to die by SIGKILL, "
                    "status=" + std::to_string(status));
      }
      if (count_artifacts(store, "array_bin") == 0) {
        return fail("victim (" + tag + ") left no array_bin artifact behind");
      }

      // 3. Resume: serves the stored bins and finishes the sweep.
      status = spawn_child(self, store, threads, out_file, leg,
                           /*resuming=*/true, nullptr);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return fail("resume run (" + tag + ") did not exit cleanly");
      }
      if (!files_identical(out_file, ref_file)) {
        return fail("resumed result differs from uninterrupted reference (" +
                    tag + ")");
      }
      std::printf("kill-resume OK (%s): bit-identical after SIGKILL + "
                  "resume\n",
                  tag.c_str());
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(root, ec);  // Best-effort cleanup.
  std::printf("kill-resume harness PASSED\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Campaign mode: SIGKILL the sharded-campaign supervisor, then resume.
// ---------------------------------------------------------------------------

/// The shard harness's two-scenario campaign at 6,000 strikes instead of
/// 600: its sweeps then outlast the 10 ms poll that looks for the first cell
/// model, so the supervisor is still running when the harness kills it.
void write_campaign(const std::string& path, const std::string& outdir) {
  const std::string doc = std::string("{\n")
      + "  \"campaign\": \"kill-resume\",\n"
      + "  \"seed\": 5,\n"
      + "  \"output_dir\": \"" + outdir + "\",\n"
      + "  \"defaults\": {\n"
      + "    \"rows\": 2, \"cols\": 2, \"vdds\": [0.8], \"pv_samples\": 10,\n"
      + "    \"strikes\": 6000, \"histories\": 6000, \"species\": [\"alpha\"]\n"
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

/// Fork + execv the CLI as the leader of a process group of its own, which
/// the workers it forks join: kill_and_reap() can then end the whole run,
/// orphans included.
pid_t spawn_cli(const std::string& cli, const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    setpgid(0, 0);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(cli.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(cli.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  setpgid(pid, pid);  // Also here: the child may not have run yet.
  return pid;
}

/// SIGKILL every process of \p group (a CLI run spawn_cli() started and the
/// workers it forked; 0 = none) and reap every child this harness holds —
/// as the subreaper, orphaned workers included — so a failing run leaves no
/// worker behind.
void kill_and_reap(pid_t group) {
  if (group > 0) killpg(group, SIGKILL);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const pid_t reaped = waitpid(-1, nullptr, WNOHANG);
    if (reaped < 0) return;  // ECHILD: none left.
    if (reaped > 0) continue;
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "kill-resume campaign: children still running "
                           "5 s after SIGKILL\n");
      return;
    }
    usleep(5 * 1000);
  }
}

/// Fail the campaign leg: first end every process of \p group and reap
/// every child (kill_and_reap()).
int campaign_fail(const std::string& msg, pid_t group = 0) {
  kill_and_reap(group);
  std::fprintf(stderr, "kill-resume campaign FAILED: %s\n", msg.c_str());
  return 1;
}

int run_campaign_driver(const std::string& cli) {
#ifdef __linux__
  // Orphaned workers are re-parented to this process, so it can prove they
  // exit by reaping them.
  if (prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) {
    std::perror("prctl(PR_SET_CHILD_SUBREAPER)");
    return 1;
  }
#endif
  unsetenv("FINSER_MC_SCALE");
  unsetenv("FINSER_THREADS");
  unsetenv("FINSER_FAULT");
  unsetenv("FINSER_SHARD_POISON");

  char root_template[] = "/tmp/finser_krc_XXXXXX";
  const char* root_c = mkdtemp(root_template);
  if (root_c == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string root = root_c;

  // 1. Uninterrupted in-process reference.
  const std::string ref_out = root + "/out_ref";
  write_campaign(root + "/ref.json", ref_out);
  {
    int status = 0;
    const pid_t pid = spawn_cli(cli, {"campaign", root + "/ref.json"});
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return campaign_fail("in-process reference run did not exit cleanly",
                           pid);
    }
  }

  // 2. Victim: SIGKILL the supervisor once the first cell model lands in the
  //    store — workers are orphaned mid-campaign and must exit once their
  //    pipes to the supervisor close.
  const std::string out = root + "/out";
  const std::string campaign = root + "/campaign.json";
  const std::string store = out + "/artifacts";
  write_campaign(campaign, out);
  const std::vector<std::string> cmd = {"campaign", campaign, "--workers", "2"};
  {
    const pid_t pid = spawn_cli(cli, cmd);
    bool killed = false;
    for (int i = 0; i < 12000; ++i) {  // 120 s budget at 10 ms per poll.
      int status = 0;
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        return campaign_fail("campaign finished before the harness could "
                             "SIGKILL the supervisor",
                             pid);
      }
      if (count_artifacts(store, "cell_model") > 0) {
        kill(pid, SIGKILL);
        killed = true;
        break;
      }
      usleep(10 * 1000);
    }
    if (!killed) {
      return campaign_fail("no cell_model artifact appeared within 120 s",
                           pid);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFSIGNALED(status) ||
        WTERMSIG(status) != SIGKILL) {
      return campaign_fail("supervisor did not die by SIGKILL", pid);
    }
#ifdef __linux__
    // Every orphan must exit, and be reaped here, within 5 s, so the resume
    // run starts against a quiet store.
    std::size_t orphans = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      const pid_t reaped = waitpid(-1, nullptr, WNOHANG);
      if (reaped > 0) {
        ++orphans;
      } else if (reaped < 0) {
        break;  // ECHILD: no orphan left
      } else if (std::chrono::steady_clock::now() > deadline) {
        return campaign_fail("orphaned workers still running 5 s after the "
                             "supervisor died",
                             pid);
      } else {
        usleep(5 * 1000);
      }
    }
    if (orphans == 0) {
      return campaign_fail("no orphaned worker was reaped");
    }
    std::printf("kill-resume campaign: %zu orphaned worker(s) exited and "
                "were reaped\n",
                orphans);
#endif
  }

  // 3. Resume: the identical command dispatches every stage; the finished
  //    ones come back as artifact-store hits.
  {
    int status = 0;
    const pid_t pid = spawn_cli(cli, cmd);
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return campaign_fail("resumed campaign run did not exit cleanly", pid);
    }
  }

  // 4. Every CSV must match the uninterrupted reference byte-for-byte.
  for (const char* rel :
       {"a/pof_alpha.csv", "a/fit_summary.csv", "b/pof_alpha.csv",
        "b/fit_summary.csv", "eh_pairs_alpha.csv"}) {
    if (!files_identical(out + "/" + rel, ref_out + "/" + rel)) {
      return campaign_fail(std::string(rel) +
                           " differs from reference (or is missing)");
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(root, ec);  // Best-effort cleanup.
  std::printf("kill-resume campaign PASSED: supervisor SIGKILL + resume is "
              "bit-identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "campaign") == 0) {
    return run_campaign_driver(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "child") == 0) {
    if (argc != 7) {
      std::fprintf(stderr, "harness child: bad argument count\n");
      return 2;
    }
    return run_sweep(argv[2], static_cast<std::size_t>(std::atol(argv[3])),
                     argv[4], argv[5], std::strcmp(argv[6], "resume") == 0);
  }
  return run_driver(argv[0]);
}
