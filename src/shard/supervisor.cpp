#include "finser/shard/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "finser/exec/exec.hpp"
#include "finser/obs/obs.hpp"
#include "finser/shard/worker.hpp"
#include "finser/util/error.hpp"
#include "finser/util/io.hpp"

namespace finser::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Retry backoff: kBackoffBaseS · 2^(attempt−1), capped at kBackoffMaxS.
constexpr double kBackoffBaseS = 0.1;
constexpr double kBackoffMaxS = 2.0;
/// Longest wait for a report: the resolution of timeouts and backoff.
constexpr int kTickMs = 50;

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
  pid_t pid = -1;                  // -1 = slot down
  int to = -1;                     // write end of the worker's stdin
  int from = -1;                   // read end of the worker's stdout
  std::string pending;             // report bytes past the last '\n'
  long stage = -1;                 // assigned plan index, -1 = idle
  std::string assignment;          // "<stage-id> <attempt>", "" = idle
  Clock::time_point last_hb;       // last liveness evidence
  Clock::time_point assigned_at;
  std::string kill_reason;         // set before a deliberate SIGKILL
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

/// fork + exec one worker on a fresh pipe pair into \p book. Both pipes are
/// close-on-exec, so a worker keeps only the copies on its fds 0 and 1 and
/// never holds another worker's pipe. Replacement workers get FINSER_FAULT
/// stripped in the child: a one-shot fault (worker_kill_after_claim:1) must
/// prove *recovery*, not kill every successor forever. FINSER_SHARD_POISON
/// stays inherited — it exists to crash every attempt of one stage.
bool spawn_worker(WorkerBook& book, const std::string& doc,
                  std::size_t threads, bool replacement) {
  int in[2];
  int out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) return false;
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return false;
  }
  const std::string t = std::to_string(threads);
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (replacement) ::unsetenv("FINSER_FAULT");
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    // dup2 onto itself (a supervisor started with fd 0 closed) keeps the
    // close-on-exec flag; the worker's two ends must survive exec.
    ::fcntl(STDIN_FILENO, F_SETFD, 0);
    ::fcntl(STDOUT_FILENO, F_SETFD, 0);
    ::execl("/proc/self/exe", "/proc/self/exe", "worker", doc.c_str(),
            "--threads", t.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; supervisor sees a normal worker death
  }
  ::close(in[0]);
  ::close(out[1]);
  if (pid < 0) {
    ::close(in[1]);
    ::close(out[0]);
    return false;
  }
  book = WorkerBook{};
  book.pid = pid;
  book.to = in[1];
  book.from = out[0];
  book.last_hb = Clock::now();
  exec::signal_fanout_add(pid);
  return true;
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
  pipeline::CampaignRunner planner(resolved);
  const std::uint64_t campaign = planner.fingerprint();
  const std::vector<pipeline::StageInfo>& plan = planner.plan();

  // Workers run the document planned here, not the user's file: the
  // defaulted artifact dir and any later edit of the file cannot make them
  // disagree with the supervisor. The file is named by
  // the run fingerprint, so campaigns that share a store cannot swap plans.
  char name[17];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(campaign));
  const std::string doc =
      resolved.artifact_dir + "/campaigns/" + name + ".json";
  const std::string doc_text = pipeline::campaign_to_json(resolved).dump(2);
  std::string write_error;
  if (!util::atomic_write_file(doc, doc_text.data(), doc_text.size(),
                               &write_error)) {
    throw util::Error("shard: cannot write " + doc + ": " + write_error);
  }

  ShardResult result;
  result.stages_total = plan.size();
  result.fingerprint = campaign;

  std::vector<StageBook> stages(plan.size());
  for (StageBook& s : stages) s.eligible_at = Clock::now();

  const std::size_t worker_threads = std::max<std::size_t>(
      1, exec::resolve_threads(resolved.threads) / config.workers);
  // A worker that dies before its assignment is written must cost one
  // attempt, not the supervisor: the write then fails with EPIPE instead of
  // raising SIGPIPE, and the worker's EOF fails the attempt.
  ::signal(SIGPIPE, SIG_IGN);

  // A runaway crash loop (exec always failing, a poisoned stage killing
  // every visitor) must converge: cap total respawns well above what any
  // legitimate retry schedule needs.
  const std::size_t respawn_budget =
      (config.max_retries + 1) * plan.size() + 2 * config.workers + 8;
  std::size_t respawns_used = 0;

  std::vector<WorkerBook> workers(config.workers);

  // Closing a worker's stdin shuts it down; a cancelled run also SIGTERMs
  // it, so a busy stage stops at its next chunk. Whoever is still running
  // after 5 s is killed.
  const auto stop_workers = [&](bool terminate) {
    for (WorkerBook& w : workers) {
      if (w.pid < 0) continue;
      ::close(w.to);
      if (terminate) ::kill(w.pid, SIGTERM);
    }
    const Clock::time_point start = Clock::now();
    for (WorkerBook& w : workers) {
      if (w.pid < 0) continue;
      while (::waitpid(w.pid, nullptr, WNOHANG) == 0) {
        if (seconds_since(start) > 5.0) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      exec::signal_fanout_remove(w.pid);
      ::close(w.from);
      w.pid = -1;
    }
  };

  for (WorkerBook& w : workers) {
    if (!spawn_worker(w, doc, worker_threads, /*replacement=*/false)) {
      stop_workers(/*terminate=*/true);
      throw util::Error("shard: cannot spawn a worker");
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
        kBackoffMaxS,
        kBackoffBaseS * std::pow(2.0, static_cast<double>(book.attempts) - 1.0));
    book.state = StageState::kPending;
    book.eligible_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
    FINSER_OBS_COUNT("shard.retries", 1);
    progress.message("shard: stage " + plan[s].id + " will retry (" +
                     reason + ")");
  };

  // A worker is down once its report pipe reads EOF: reap it, reclaim its
  // stage, and respawn the slot (without FINSER_FAULT) while budget lasts.
  const auto worker_down = [&](std::size_t w) {
    WorkerBook& book = workers[w];
    int status = 0;
    ::waitpid(book.pid, &status, 0);
    exec::signal_fanout_remove(book.pid);
    ::close(book.to);
    ::close(book.from);
    book.pid = -1;
    FINSER_OBS_COUNT("shard.worker_deaths", 1);
    const std::string reason = book.kill_reason.empty()
                                   ? exit_description(status)
                                   : book.kill_reason;
    progress.message("shard: worker " + std::to_string(w) + " down: " +
                     reason);
    if (book.stage >= 0) {
      FINSER_OBS_COUNT("shard.reassigns", 1);
      const auto s = static_cast<std::size_t>(book.stage);
      if (stages[s].state == StageState::kAssigned) attempt_failed(s, reason);
    }
    if (respawns_used < respawn_budget) {
      ++respawns_used;
      spawn_worker(book, doc, worker_threads, /*replacement=*/true);
    }
  };

  // A condemned worker is killed; its EOF then fails its attempt.
  const auto condemn = [](WorkerBook& book, const std::string& reason) {
    book.kill_reason = reason;
    ::kill(book.pid, SIGKILL);
  };

  // One report line from worker w. A condemned worker's lines no longer
  // count, and a line that is not a report on its own assignment condemns
  // the worker: it fails the attempt and is never trusted.
  const auto on_report = [&](std::size_t w, const std::string& line) {
    WorkerBook& book = workers[w];
    if (!book.kill_reason.empty()) return;
    std::string why;
    const Report report = classify_report(line, book.assignment, &why);
    if (report == Report::kMalformed) {
      condemn(book, "malformed report `" + line.substr(0, 80) + "`");
      return;
    }
    if (report == Report::kHeartbeat) {
      FINSER_OBS_RECORD(
          "shard.heartbeat_ms",
          static_cast<std::int64_t>(seconds_since(book.last_hb) * 1e3));
      book.last_hb = Clock::now();
      return;
    }
    const auto s = static_cast<std::size_t>(book.stage);
    book.stage = -1;
    book.assignment.clear();
    if (report == Report::kFailed) {
      attempt_failed(s, why.empty() ? "stage failed" : why);
      return;
    }
    stages[s].state = StageState::kCompleted;
    progress.message("shard: stage " + plan[s].id + " completed by worker " +
                     std::to_string(w));
  };

  // --- supervision loop ----------------------------------------------------

  bool cancelled = false;
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) {
      cancelled = true;
      break;
    }

    // 1. Reports: wait up to one tick for any worker to write (a signal ends
    // the wait early), then read what arrived. EOF is the worker's death.
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].pid < 0) continue;
      fds.push_back({workers[w].from, POLLIN, 0});
      owners.push_back(w);
    }
    ::poll(fds.data(), fds.size(), kTickMs);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      WorkerBook& book = workers[owners[i]];
      char buf[4096];
      const ssize_t n = ::read(book.from, buf, sizeof buf);
      if (n <= 0) {
        if (n == 0 || errno != EINTR) worker_down(owners[i]);
        continue;
      }
      book.pending.append(buf, static_cast<std::size_t>(n));
      for (std::size_t eol = book.pending.find('\n');
           eol != std::string::npos; eol = book.pending.find('\n')) {
        const std::string line = book.pending.substr(0, eol);
        book.pending.erase(0, eol + 1);
        on_report(owners[i], line);
      }
      // A well-formed report fits one atomic pipe write.
      if (book.pending.size() >= PIPE_BUF && book.kill_reason.empty()) {
        condemn(book, "overlong report line");
      }
    }

    // 2. Timeouts: a silent worker and an over-budget stage are the same
    // pathology from the campaign's point of view — kill it; its EOF then
    // reclaims the stage.
    for (WorkerBook& book : workers) {
      if (book.pid < 0 || !book.kill_reason.empty()) continue;
      if (config.heartbeat_timeout_s > 0.0 &&
          seconds_since(book.last_hb) > config.heartbeat_timeout_s) {
        condemn(book, "heartbeat timeout (" +
                          std::to_string(config.heartbeat_timeout_s) + " s)");
      } else if (config.stage_timeout_s > 0.0 && book.stage >= 0 &&
                 seconds_since(book.assigned_at) > config.stage_timeout_s) {
        FINSER_OBS_COUNT("shard.stage_timeouts", 1);
        condemn(book, "stage timeout (" +
                          std::to_string(config.stage_timeout_s) + " s)");
      }
    }

    // 3. Cascade blocking: a stage whose dependency can never complete is
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

    // 4. Assign ready stages to idle workers, both in deterministic order.
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers.size(); ++w) {
      WorkerBook& book = workers[w];
      if (book.pid < 0 || book.stage >= 0 || !book.kill_reason.empty()) {
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
      book.assignment = plan[s].id + " " + std::to_string(stage.attempts);
      book.assigned_at = now;
      book.last_hb = now;  // fresh timeout window for the new assignment
      // A failed write needs no handling: a worker that cannot read its
      // assignment is dead, and its EOF fails the attempt.
      const std::string line = book.assignment + "\n";
      (void)!::write(book.to, line.data(), line.size());
      FINSER_OBS_COUNT("shard.claims", 1);
      progress.message("shard: stage " + plan[s].id + " -> worker " +
                       std::to_string(w) +
                       (stage.attempts > 1
                            ? " (attempt " + std::to_string(stage.attempts) +
                                  ")"
                            : ""));
    }

    // 5. Termination: every stage terminal, or nobody left to run them.
    const bool all_terminal = std::all_of(
        stages.begin(), stages.end(), [](const StageBook& s) {
          return s.state == StageState::kCompleted ||
                 s.state == StageState::kQuarantined ||
                 s.state == StageState::kBlocked;
        });
    if (all_terminal) break;
    const bool any_alive = std::any_of(
        workers.begin(), workers.end(),
        [](const WorkerBook& w) { return w.pid >= 0; });
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
  }

  stop_workers(cancelled);
  if (cancelled) throw util::Cancelled("shard: campaign cancelled");

  // --- outcome -------------------------------------------------------------

  for (std::size_t s = 0; s < plan.size(); ++s) {
    const StageBook& book = stages[s];
    if (book.state == StageState::kCompleted) {
      result.stages_completed += 1;
      continue;
    }
    StageFailure failure;
    failure.id = plan[s].id;
    failure.label = plan[s].label;
    failure.attempts = book.attempts;
    failure.status =
        book.state == StageState::kQuarantined ? "quarantined" : "blocked";
    failure.reason = book.last_error;
    result.failures.push_back(std::move(failure));
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
