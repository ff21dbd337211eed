#include "finser/shard/worker.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "finser/exec/cancel.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"

namespace finser::shard {

namespace {

/// The worker's end of the report pipe (non-blocking, owned), shared by the
/// stage loop and the heartbeat thread.
class Reporter {
 public:
  explicit Reporter(int fd) : fd_(fd) {}
  ~Reporter() { ::close(fd_); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// One heartbeat tick: never blocks, and drops the line when the pipe is
  /// full. Returns false once the supervisor's read end is gone (POLLERR on
  /// a pipe's write end), stalled or not.
  bool heartbeat() {
    if (util::fault_fire(util::FaultSite::kHeartbeatStall)) stalled = true;
    pollfd p{fd_, 0, 0};
    if (::poll(&p, 1, 0) == 1 && (p.revents & POLLERR) != 0) return false;
    if (!stalled) (void)!::write(fd_, "hb\n", 3);
    return true;
  }

  /// A `done` or `failed` line: waits for room, so it is never dropped, and
  /// exits the process when no supervisor is left to read it.
  void report(std::string line) const {
    std::replace(line.begin(), line.end(), '\n', ' ');
    line.resize(std::min<std::size_t>(line.size(), PIPE_BUF - 1));
    line += '\n';
    while (::write(fd_, line.data(), line.size()) < 0) {
      if (errno == EPIPE) ::_exit(0);
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, -1);
    }
  }

  std::atomic<bool> stalled{false};  ///< heartbeat_stall fired (sticky).

 private:
  int fd_;
};

/// The heartbeat thread, owned by run_worker's scope: it ticks every 100 ms
/// and exits the process once orphaned, until the destructor stops and joins
/// it — on every return path, so it never touches \p reporter after
/// run_worker has destroyed it. The timed wait wakes on stop at once.
class HeartbeatThread {
 public:
  explicit HeartbeatThread(Reporter& reporter)
      : thread_([this, &reporter] {
          std::unique_lock<std::mutex> lock(mutex_);
          do {
            if (!reporter.heartbeat()) ::_exit(0);
          } while (!stop_cv_.wait_for(lock, std::chrono::milliseconds(100),
                                      [this] { return stop_; }));
        }) {}

  ~HeartbeatThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_one();
    thread_.join();
  }

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;  // Last: starts after the members it reads exist.
};

}  // namespace

int run_worker(const WorkerConfig& config) {
  // The supervisor's resolved document round-trips through JSON exactly, so
  // both sides plan the same stages (the MC scale comes from the inherited
  // environment).
  pipeline::CampaignRunner runner(
      pipeline::parse_campaign_file(config.campaign_path));
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < runner.plan().size(); ++i) {
    index_of[runner.plan()[i].id] = i;
  }

  // SIGTERM (supervisor fan-out / operator Ctrl-C) cancels the running
  // stage cooperatively, or ends the wait for the next assignment.
  exec::CancelToken cancel;
  exec::install_signal_cancel(&cancel);

  // Reports go to a private copy of stdout and fd 1 becomes stderr, so no
  // stray library print can forge a report line. EPIPE, not SIGPIPE, tells
  // a writer that the supervisor is gone.
  const int report_fd = ::fcntl(STDOUT_FILENO, F_DUPFD_CLOEXEC, 3);
  FINSER_REQUIRE(report_fd >= 0, "worker: cannot open the report pipe");
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  ::fcntl(report_fd, F_SETFL, O_NONBLOCK);
  ::signal(SIGPIPE, SIG_IGN);
  Reporter reporter(report_fd);
  const HeartbeatThread hb_thread(reporter);

  const char* poison_env = std::getenv("FINSER_SHARD_POISON");
  const std::string poison = poison_env != nullptr ? poison_env : "";
  const exec::ProgressSink progress;  // workers are quiet; supervisor narrates

  std::string assignment;
  while (std::getline(std::cin, assignment)) {
    const std::string stage = assignment.substr(0, assignment.find(' '));
    // The kill-after-claim drill dies exactly here — the assignment read,
    // no stage work done — the worst spot for the supervisor.
    if (util::fault_fire(util::FaultSite::kWorkerKillAfterClaim)) {
      ::raise(SIGKILL);
    }
    if (!poison.empty() && stage.find(poison) != std::string::npos) {
      ::raise(SIGKILL);  // deterministic repeat-crasher (quarantine tests)
    }

    std::string report = "done " + assignment;
    try {
      const auto it = index_of.find(stage);
      FINSER_REQUIRE(it != index_of.end(),
                     "worker: unknown stage id `" + stage + "`");
      runner.run_stage(it->second, config.threads, progress, &cancel);
    } catch (const util::Cancelled&) {
      return 4;
    } catch (const std::exception& e) {
      report = "failed " + assignment + " " + e.what();
    }

    // heartbeat_stall wedges at the stage boundary: no heartbeat, no
    // report, no exit — exactly the pathology the supervisor's timeouts must
    // catch. The heartbeat thread still exits the process once orphaned.
    while (reporter.stalled) ::pause();
    reporter.report(report);
  }
  return cancel.cancelled() ? 4 : 0;
}

Report classify_report(const std::string& line, const std::string& assignment,
                       std::string* why) {
  if (line == "hb") return Report::kHeartbeat;
  if (assignment.empty()) return Report::kMalformed;
  if (line == "done " + assignment) return Report::kDone;
  const std::string failed = "failed " + assignment;
  if (line.compare(0, failed.size(), failed) != 0 ||
      (line.size() > failed.size() && line[failed.size()] != ' ')) {
    return Report::kMalformed;
  }
  if (why != nullptr) {
    *why = line.substr(std::min(line.size(), failed.size() + 1));
  }
  return Report::kFailed;
}

}  // namespace finser::shard
