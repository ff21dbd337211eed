#include "finser/shard/supervisor.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "finser/exec/exec.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/shard/lease.hpp"
#include "finser/util/error.hpp"
#include "finser/util/io.hpp"

namespace finser::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Terminal + transient states of one plan stage in the scheduler.
enum class StageState {
  kPending,      // waiting for deps / backoff / a free worker
  kAssigned,     // handed to a worker, not yet terminal
  kCompleted,
  kQuarantined,  // failed max_retries + 1 attempts
  kBlocked,      // a dependency is quarantined/blocked, or no workers left
};

struct StageBook {
  StageState state = StageState::kPending;
  std::size_t attempts = 0;        // attempts started so far
  Clock::time_point eligible_at;   // backoff gate (valid when kPending)
  std::string last_error;
};

struct WorkerBook {
  pid_t pid = -1;
  bool alive = false;
  long stage = -1;                 // assigned plan index, -1 = idle
  std::uint64_t attempt = 0;       // attempt ordinal of that assignment
  bool acked = false;              // running-heartbeat for it observed
  std::uint64_t task_seq = 0;      // task records written to this slot
  std::uint64_t hb_seq = 0;        // last heartbeat seq observed
  Clock::time_point last_hb;       // last liveness evidence
  Clock::time_point assigned_at;
  Clock::time_point task_written_at;
  std::string kill_reason;         // set before a deliberate SIGKILL
  std::size_t respawns = 0;
};

std::string exit_description(int wstatus) {
  if (WIFSIGNALED(wstatus)) {
    return "worker died (signal " + std::to_string(WTERMSIG(wstatus)) + ")";
  }
  if (WIFEXITED(wstatus)) {
    return "worker exited (code " + std::to_string(WEXITSTATUS(wstatus)) +
           ")";
  }
  return "worker died";
}

/// fork + exec one worker. Replacement workers get FINSER_FAULT stripped in
/// the child: a one-shot fault (worker_kill_after_claim:1) must prove
/// *recovery*, not kill every successor forever. FINSER_SHARD_POISON stays
/// inherited — it exists to crash every attempt of one stage.
pid_t spawn_worker(const std::string& cli, const std::string& campaign_doc,
                   const std::string& lease_dir, std::size_t worker_id,
                   std::size_t threads, bool replacement) {
  std::vector<std::string> args = {
      cli,
      "worker",
      campaign_doc,
      "--worker-id",
      std::to_string(worker_id),
      "--lease-dir",
      lease_dir,
      "--threads",
      std::to_string(threads),
  };

  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    if (replacement) ::unsetenv("FINSER_FAULT");
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);  // exec failed; supervisor sees a normal worker death
  }
  return pid;
}

void remove_control_files(const std::string& lease_dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(lease_dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("task-", 0) == 0 || name.rfind("hb-", 0) == 0) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
    }
  }
}

}  // namespace

ShardResult run_sharded_campaign(const pipeline::CampaignSpec& spec,
                                 const ShardConfig& config,
                                 const exec::CancelToken* cancel,
                                 const exec::ProgressSink& progress) {
  FINSER_REQUIRE(config.workers >= 1, "shard: workers must be >= 1");

  // Workers ship stage products through the artifact store, so one is
  // mandatory: default it under the output dir when the spec has none.
  pipeline::CampaignSpec resolved = spec;
  if (resolved.artifact_dir.empty()) {
    FINSER_REQUIRE(!resolved.output_dir.empty(),
                   "shard: campaign needs artifact_dir or output_dir "
                   "(workers exchange stage products through the store)");
    resolved.artifact_dir = resolved.output_dir + "/artifacts";
  }
  const std::string artifact_dir = resolved.artifact_dir;
  const std::string lease_dir = artifact_dir + "/leases";
  std::error_code ec;
  std::filesystem::create_directories(lease_dir, ec);
  FINSER_REQUIRE(!ec, "shard: cannot create lease dir " + lease_dir + ": " +
                          ec.message());

  // Startup hygiene: sweep atomic-write debris from both directories, then
  // clear stale control files. Done markers survive — they are the resume
  // record (stale-campaign ones are rejected by fingerprint on read).
  pipeline::ArtifactStore::sweep_orphans(artifact_dir);
  pipeline::ArtifactStore::sweep_orphans(lease_dir);
  remove_control_files(lease_dir);

  // Workers run the document planned here, not the user's file: the
  // defaulted artifact dir, the CLI's overrides and any later edit of the
  // file cannot make them disagree with the supervisor.
  const std::string campaign_doc = lease_dir + "/campaign.json";
  const std::string doc_text = pipeline::campaign_to_json(resolved).dump(2);
  std::string write_error;
  if (!util::atomic_write_file(campaign_doc, doc_text.data(), doc_text.size(),
                               &write_error)) {
    throw util::Error("shard: cannot write " + campaign_doc + ": " +
                      write_error);
  }

  pipeline::CampaignRunner planner(resolved);
  const std::uint64_t campaign = planner.fingerprint();
  const std::vector<pipeline::StageInfo>& plan = planner.plan();

  ShardResult result;
  result.stages_total = plan.size();
  result.fingerprint = campaign;

  std::vector<StageBook> stages(plan.size());
  const Clock::time_point start = Clock::now();
  for (StageBook& s : stages) s.eligible_at = start;

  // Resume: a valid done marker from this exact campaign completes the
  // stage before any worker spawns.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    LeaseRecord done;
    if (try_read_lease(done_path(lease_dir, plan[i].id), campaign, done) &&
        done.kind == LeaseKind::kDone && done.stage == plan[i].id) {
      stages[i].state = StageState::kCompleted;
      result.stages_resumed += 1;
    }
  }
  if (result.stages_resumed > 0) {
    progress.message("shard: resumed " +
                     std::to_string(result.stages_resumed) + "/" +
                     std::to_string(plan.size()) +
                     " stages from done markers");
  }

  const std::string cli =
      config.cli_path.empty() ? "/proc/self/exe" : config.cli_path;
  const std::size_t worker_threads =
      config.worker_threads != 0
          ? config.worker_threads
          : std::max<std::size_t>(
                1, exec::resolve_threads(resolved.threads) / config.workers);

  // A runaway crash loop (exec always failing, a poisoned stage killing
  // every visitor) must converge: cap total respawns well above what any
  // legitimate retry schedule needs.
  const std::size_t respawn_budget =
      (config.max_retries + 1) * plan.size() + 2 * config.workers + 8;
  std::size_t respawns_used = 0;

  std::vector<WorkerBook> workers(config.workers);
  const auto spawn_slot = [&](std::size_t w, bool replacement) -> bool {
    // Clear the slot's control files so the newcomer cannot read its
    // predecessor's assignment or have its fresh heartbeat shadowed.
    std::error_code rm_ec;
    std::filesystem::remove(task_path(lease_dir, w), rm_ec);
    std::filesystem::remove(heartbeat_path(lease_dir, w), rm_ec);
    const pid_t pid = spawn_worker(cli, campaign_doc, lease_dir, w,
                                   worker_threads, replacement);
    if (pid < 0) return false;
    WorkerBook& book = workers[w];
    const std::size_t keep_respawns = book.respawns;
    book = WorkerBook{};
    book.respawns = keep_respawns;
    book.pid = pid;
    book.alive = true;
    book.last_hb = Clock::now();
    exec::signal_fanout_add(pid);
    return true;
  };

  const auto reap_all = [&](bool force) {
    for (WorkerBook& w : workers) {
      if (!w.alive) continue;
      if (force) ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      exec::signal_fanout_remove(w.pid);
      w.alive = false;
    }
  };

  for (std::size_t w = 0; w < config.workers; ++w) {
    if (!spawn_slot(w, /*replacement=*/false)) {
      reap_all(/*force=*/true);
      throw util::Error("shard: cannot spawn worker " + std::to_string(w));
    }
  }
  progress.message("shard: supervising " + std::to_string(config.workers) +
                   " workers over " + std::to_string(plan.size()) +
                   " stages");

  // --- stage bookkeeping helpers -------------------------------------------

  // One attempt of stage s ended without completing (worker death, timeout
  // or reported failure): retry with exponential backoff, or quarantine.
  const auto attempt_failed = [&](std::size_t s, const std::string& reason) {
    StageBook& book = stages[s];
    book.last_error = reason;
    if (book.attempts > config.max_retries) {
      book.state = StageState::kQuarantined;
      FINSER_OBS_COUNT("shard.quarantines", 1);
      progress.message("shard: stage " + plan[s].id + " quarantined after " +
                       std::to_string(book.attempts) +
                       " attempts: " + reason);
      return;
    }
    const double backoff = std::min(
        config.backoff_max_s,
        config.backoff_base_s *
            std::pow(2.0, static_cast<double>(book.attempts) - 1.0));
    book.state = StageState::kPending;
    book.eligible_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
    FINSER_OBS_COUNT("shard.retries", 1);
    progress.message("shard: stage " + plan[s].id + " will retry (" +
                     reason + ")");
  };

  const auto release_worker_stage = [&](WorkerBook& w,
                                        const std::string& reason) {
    if (w.stage < 0) return;
    FINSER_OBS_COUNT("shard.reassigns", 1);
    const std::size_t s = static_cast<std::size_t>(w.stage);
    w.stage = -1;
    if (stages[s].state == StageState::kAssigned) attempt_failed(s, reason);
  };

  // --- supervision loop ----------------------------------------------------

  bool cancelled = false;
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) {
      cancelled = true;
      break;
    }
    const Clock::time_point now = Clock::now();

    // 1. Reap deaths. A dead worker's assignment is reclaimed and the slot
    // is respawned (without re-arming FINSER_FAULT) while budget lasts.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (!book.alive) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(book.pid, &status, WNOHANG);
      if (reaped != book.pid) continue;
      exec::signal_fanout_remove(book.pid);
      book.alive = false;
      FINSER_OBS_COUNT("shard.worker_deaths", 1);
      const std::string reason = book.kill_reason.empty()
                                     ? exit_description(status)
                                     : book.kill_reason;
      progress.message("shard: worker " + std::to_string(w) + " down: " +
                       reason);
      release_worker_stage(book, reason);
      if (respawns_used < respawn_budget) {
        ++respawns_used;
        ++book.respawns;
        if (!spawn_slot(w, /*replacement=*/true)) book.alive = false;
      }
    }

    // 2. Heartbeats: liveness, claim acks, completions, failures.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (!book.alive) continue;
      LeaseRecord hb;
      if (!try_read_lease(heartbeat_path(lease_dir, w), campaign, hb) ||
          hb.kind != LeaseKind::kHeartbeat) {
        continue;
      }
      if (hb.seq != book.hb_seq) {
        if (book.hb_seq != 0) {
          FINSER_OBS_RECORD(
              "shard.heartbeat_ms",
              static_cast<std::int64_t>(seconds_since(book.last_hb) * 1e3));
        }
        book.hb_seq = hb.seq;
        book.last_hb = now;
      }
      if (book.stage < 0) continue;
      const std::size_t s = static_cast<std::size_t>(book.stage);
      if (hb.stage != plan[s].id || hb.attempt != book.attempt) continue;
      switch (hb.state) {
        case LeaseState::kRunning:
          book.acked = true;
          break;
        case LeaseState::kDone:
          stages[s].state = StageState::kCompleted;
          result.stages_completed += 1;
          book.stage = -1;
          progress.message("shard: stage " + plan[s].id + " completed by "
                           "worker " + std::to_string(w));
          break;
        case LeaseState::kFailed: {
          const std::size_t failed = s;
          book.stage = -1;
          attempt_failed(failed, hb.message.empty() ? "stage failed"
                                                    : hb.message);
          break;
        }
        default:
          break;
      }
    }

    // 3. Timeouts: a silent worker and an over-budget stage are the same
    // pathology from the campaign's point of view — kill and reassign.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (!book.alive || !book.kill_reason.empty()) continue;
      if (config.heartbeat_timeout_s > 0.0 &&
          seconds_since(book.last_hb) > config.heartbeat_timeout_s) {
        book.kill_reason = "heartbeat timeout (" +
                           std::to_string(config.heartbeat_timeout_s) + " s)";
        ::kill(book.pid, SIGKILL);
        continue;
      }
      if (config.stage_timeout_s > 0.0 && book.stage >= 0 &&
          seconds_since(book.assigned_at) > config.stage_timeout_s) {
        book.kill_reason = "stage timeout (" +
                           std::to_string(config.stage_timeout_s) + " s)";
        FINSER_OBS_COUNT("shard.stage_timeouts", 1);
        ::kill(book.pid, SIGKILL);
      }
    }

    // 4. Heal un-acked task files: if the assignment write was torn
    // (lease_torn drill) the worker reads nothing — rewrite after an ack
    // window. Same (stage, attempt), so a worker that *did* see the first
    // copy dedupes the rewrite.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (!book.alive || book.stage < 0 || book.acked) continue;
      const double window = std::max(0.25, 4.0 * config.poll_period_s);
      if (seconds_since(book.task_written_at) < window) continue;
      LeaseRecord task;
      task.kind = LeaseKind::kTask;
      task.state = LeaseState::kAssign;
      task.campaign = campaign;
      task.worker = w;
      task.attempt = book.attempt;
      task.seq = ++book.task_seq;
      task.stage = plan[static_cast<std::size_t>(book.stage)].id;
      write_lease(task_path(lease_dir, w), task);
      book.task_written_at = Clock::now();
      FINSER_OBS_COUNT("shard.task_rewrites", 1);
    }

    // 5. Cascade blocking: a stage whose dependency can never complete is
    // terminal too (recorded, so the report explains every missing CSV).
    for (std::size_t s = 0; s < plan.size(); ++s) {
      if (stages[s].state != StageState::kPending) continue;
      for (std::size_t d : plan[s].deps) {
        if (stages[d].state == StageState::kQuarantined ||
            stages[d].state == StageState::kBlocked) {
          stages[s].state = StageState::kBlocked;
          stages[s].last_error =
              "dependency " + plan[d].id + " did not complete";
          break;
        }
      }
    }

    // 6. Assign ready stages to idle workers, both in deterministic order.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (!book.alive || book.stage >= 0 || !book.kill_reason.empty()) {
        continue;
      }
      long pick = -1;
      for (std::size_t s = 0; s < plan.size(); ++s) {
        if (stages[s].state != StageState::kPending) continue;
        if (now < stages[s].eligible_at) continue;
        bool ready = true;
        for (std::size_t d : plan[s].deps) {
          if (stages[d].state != StageState::kCompleted) ready = false;
        }
        if (ready) {
          pick = static_cast<long>(s);
          break;
        }
      }
      if (pick < 0) break;  // nothing ready; later workers see the same plan
      const std::size_t s = static_cast<std::size_t>(pick);
      StageBook& stage = stages[s];
      stage.state = StageState::kAssigned;
      stage.attempts += 1;
      book.stage = pick;
      book.attempt = stage.attempts;
      book.acked = false;
      book.assigned_at = now;
      book.last_hb = now;  // fresh timeout window for the new assignment
      LeaseRecord task;
      task.kind = LeaseKind::kTask;
      task.state = LeaseState::kAssign;
      task.campaign = campaign;
      task.worker = w;
      task.attempt = book.attempt;
      task.seq = ++book.task_seq;
      task.stage = plan[s].id;
      write_lease(task_path(lease_dir, w), task);
      book.task_written_at = Clock::now();
      FINSER_OBS_COUNT("shard.claims", 1);
      progress.message("shard: stage " + plan[s].id + " -> worker " +
                       std::to_string(w) +
                       (book.attempt > 1
                            ? " (attempt " + std::to_string(book.attempt) + ")"
                            : ""));
    }

    // 7. Termination: every stage terminal, or nobody left to run them.
    const bool all_terminal = std::all_of(
        stages.begin(), stages.end(), [](const StageBook& s) {
          return s.state == StageState::kCompleted ||
                 s.state == StageState::kQuarantined ||
                 s.state == StageState::kBlocked;
        });
    if (all_terminal) break;
    const bool any_alive = std::any_of(
        workers.begin(), workers.end(),
        [](const WorkerBook& w) { return w.alive; });
    if (!any_alive && respawns_used >= respawn_budget) {
      for (std::size_t s = 0; s < plan.size(); ++s) {
        if (stages[s].state == StageState::kPending ||
            stages[s].state == StageState::kAssigned) {
          stages[s].state = StageState::kBlocked;
          stages[s].last_error = "no workers left (respawn budget exhausted)";
        }
      }
      break;
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.005, config.poll_period_s)));
  }

  // --- shutdown ------------------------------------------------------------

  if (cancelled) {
    for (WorkerBook& w : workers) {
      if (w.alive) ::kill(w.pid, SIGTERM);
    }
    reap_all(/*force=*/false);
    throw util::Cancelled("shard: campaign cancelled");
  }

  for (std::size_t w = 0; w < workers.size(); ++w) {
    WorkerBook& book = workers[w];
    if (!book.alive) continue;
    LeaseRecord task;
    task.kind = LeaseKind::kTask;
    task.state = LeaseState::kShutdown;
    task.campaign = campaign;
    task.worker = w;
    task.seq = ++book.task_seq;
    write_lease(task_path(lease_dir, w), task);
  }
  // Give workers one poll period to exit cleanly, then escalate.
  const Clock::time_point shutdown_start = Clock::now();
  for (;;) {
    bool any = false;
    for (WorkerBook& w : workers) {
      if (!w.alive) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        exec::signal_fanout_remove(w.pid);
        w.alive = false;
      } else {
        any = true;
      }
    }
    if (!any) break;
    if (seconds_since(shutdown_start) > 5.0) {
      reap_all(/*force=*/true);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // --- outcome -------------------------------------------------------------

  for (std::size_t s = 0; s < plan.size(); ++s) {
    const StageBook& book = stages[s];
    if (book.state == StageState::kCompleted) continue;
    StageFailure failure;
    failure.id = plan[s].id;
    failure.label = plan[s].label;
    failure.attempts = book.attempts;
    failure.status =
        book.state == StageState::kQuarantined ? "quarantined" : "blocked";
    failure.reason = book.last_error;
    result.failures.push_back(std::move(failure));
  }
  result.stages_completed = 0;
  for (const StageBook& s : stages) {
    if (s.state == StageState::kCompleted) result.stages_completed += 1;
  }
  if (result.failures.empty()) {
    result.outcome = ShardOutcome::kComplete;
  } else if (result.stages_completed > 0) {
    result.outcome = ShardOutcome::kPartial;
  } else {
    result.outcome = ShardOutcome::kFailed;
  }
  return result;
}

util::JsonValue shard_report_json(const ShardResult& result,
                                  const ShardConfig& config) {
  util::JsonValue doc = util::JsonValue::object();
  doc["workers"] = static_cast<std::uint64_t>(config.workers);
  doc["max_retries"] = static_cast<std::uint64_t>(config.max_retries);
  doc["stage_timeout_s"] = config.stage_timeout_s;
  switch (result.outcome) {
    case ShardOutcome::kComplete:
      doc["outcome"] = std::string("complete");
      break;
    case ShardOutcome::kPartial:
      doc["outcome"] = std::string("partial");
      break;
    case ShardOutcome::kFailed:
      doc["outcome"] = std::string("failed");
      break;
  }
  doc["stages_total"] = static_cast<std::uint64_t>(result.stages_total);
  doc["stages_completed"] =
      static_cast<std::uint64_t>(result.stages_completed);
  doc["stages_resumed"] = static_cast<std::uint64_t>(result.stages_resumed);
  util::JsonValue failures = util::JsonValue::array();
  for (const StageFailure& f : result.failures) {
    util::JsonValue o = util::JsonValue::object();
    o["id"] = f.id;
    o["label"] = f.label;
    o["attempts"] = static_cast<std::uint64_t>(f.attempts);
    o["status"] = f.status;
    o["reason"] = f.reason;
    failures.push_back(std::move(o));
  }
  doc["failures"] = std::move(failures);
  return doc;
}

}  // namespace finser::shard
