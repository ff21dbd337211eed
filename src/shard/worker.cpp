#include "finser/shard/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "finser/exec/cancel.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/shard/lease.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"

namespace finser::shard {

namespace {

/// Heartbeat state shared between the main loop and the heartbeat thread.
/// The main loop owns state *transitions* (ack, done, failed); the thread
/// only re-emits the current record every tick, which is what heals a torn
/// or lost heartbeat file without any acknowledgement protocol.
struct Heartbeat {
  std::mutex mutex;
  LeaseRecord rec;     // current record (kind/campaign/worker pre-filled)
  std::string path;
  bool stalled = false;  // heartbeat_stall fired: stop writing, then wedge

  void publish(LeaseState state, const std::string& stage,
               std::uint64_t attempt, const std::string& message = "") {
    std::lock_guard<std::mutex> lock(mutex);
    rec.state = state;
    rec.stage = stage;
    rec.attempt = attempt;
    rec.message = message;
    rec.seq += 1;
    if (!stalled) write_lease(path, rec);
  }

  /// One thread tick: advance seq and rewrite the current record.
  void tick() {
    std::lock_guard<std::mutex> lock(mutex);
    if (stalled) return;
    if (util::fault_fire(util::FaultSite::kHeartbeatStall)) {
      stalled = true;  // sticky: this worker never heartbeats again
      return;
    }
    rec.seq += 1;
    write_lease(path, rec);
  }

  bool is_stalled() {
    std::lock_guard<std::mutex> lock(mutex);
    return stalled;
  }
};

std::chrono::duration<double> period(double seconds) {
  return std::chrono::duration<double>(seconds > 0.0 ? seconds : 0.01);
}

void sleep_s(double seconds) { std::this_thread::sleep_for(period(seconds)); }

/// The heartbeat thread, owned by run_worker's scope: it ticks \p hb every
/// period and exits the process if the supervisor vanishes, until the
/// destructor stops and joins it — on every return path, so the thread
/// never touches \p hb after run_worker has destroyed it. The timed wait
/// wakes on stop at once instead of sleeping out the period.
class HeartbeatThread {
 public:
  HeartbeatThread(Heartbeat& hb, double period_s, pid_t parent)
      : thread_([this, &hb, period_s, parent] {
          for (;;) {
            if (::getppid() != parent) ::_exit(0);
            hb.tick();
            std::unique_lock<std::mutex> lock(mutex_);
            if (stop_cv_.wait_for(lock, period(period_s),
                                  [this] { return stop_; })) {
              return;
            }
          }
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
  // both sides plan the same stages and stamp the same run fingerprint
  // into leases (the MC scale comes from the inherited environment).
  pipeline::CampaignRunner runner(
      pipeline::parse_campaign_file(config.campaign_path));
  const std::uint64_t campaign = runner.fingerprint();
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < runner.plan().size(); ++i) {
    index_of[runner.plan()[i].id] = i;
  }

  // SIGTERM (supervisor fan-out / operator Ctrl-C) cancels the running
  // stage cooperatively; the worker then exits.
  exec::CancelToken cancel;
  exec::install_signal_cancel(&cancel);

  Heartbeat hb;
  hb.path = heartbeat_path(config.lease_dir, config.worker_id);
  hb.rec.kind = LeaseKind::kHeartbeat;
  hb.rec.state = LeaseState::kIdle;
  hb.rec.campaign = campaign;
  hb.rec.worker = config.worker_id;
  hb.publish(LeaseState::kIdle, "", 0);

  // Orphan watch: if the supervisor is kill -9'd we are re-parented; exit
  // instead of computing for a campaign nobody is steering. Checked in both
  // loops so even a wedged (stalled) worker's watchdog thread still exits.
  const pid_t parent = ::getppid();
  const HeartbeatThread hb_thread(hb, config.heartbeat_period_s, parent);

  const char* poison_env = std::getenv("FINSER_SHARD_POISON");
  const std::string poison = poison_env != nullptr ? poison_env : "";
  const std::string task_file = task_path(config.lease_dir, config.worker_id);
  const exec::ProgressSink progress;  // workers are quiet; supervisor narrates

  std::string done_stage;       // dedupe: last (stage, attempt) handled
  std::uint64_t done_attempt = 0;
  for (;;) {
    if (::getppid() != parent) ::_exit(0);
    if (cancel.cancelled()) return 4;

    LeaseRecord task;
    if (!try_read_lease(task_file, campaign, task) ||
        task.kind != LeaseKind::kTask) {
      sleep_s(config.poll_period_s);
      continue;
    }
    if (task.state == LeaseState::kShutdown) return 0;
    if (task.state != LeaseState::kAssign ||
        (task.stage == done_stage && task.attempt == done_attempt)) {
      sleep_s(config.poll_period_s);
      continue;
    }
    done_stage = task.stage;
    done_attempt = task.attempt;

    // Ack: the supervisor treats this heartbeat as the claim. The
    // kill-after-claim drill dies exactly here — after the claim is
    // durable, before any stage work — the worst spot for the supervisor.
    hb.publish(LeaseState::kRunning, task.stage, task.attempt);
    if (util::fault_fire(util::FaultSite::kWorkerKillAfterClaim)) {
      ::raise(SIGKILL);
    }
    if (!poison.empty() && task.stage.find(poison) != std::string::npos) {
      ::raise(SIGKILL);  // deterministic repeat-crasher (quarantine tests)
    }

    try {
      const auto it = index_of.find(task.stage);
      FINSER_REQUIRE(it != index_of.end(),
                     "worker: unknown stage id `" + task.stage +
                         "` (lease dir shared with another campaign?)");
      runner.run_stage(it->second, config.threads, progress, &cancel);
      // Durable completion marker first (resume authority for future
      // supervisors), then the done heartbeat (completion authority for
      // this one). Losing the marker only costs a recompute next run.
      LeaseRecord done;
      done.kind = LeaseKind::kDone;
      done.state = LeaseState::kDone;
      done.campaign = campaign;
      done.worker = config.worker_id;
      done.attempt = task.attempt;
      done.seq = task.seq;
      done.stage = task.stage;
      write_lease(done_path(config.lease_dir, task.stage), done);
      hb.publish(LeaseState::kDone, task.stage, task.attempt);
    } catch (const util::Cancelled&) {
      return 4;
    } catch (const std::exception& e) {
      hb.publish(LeaseState::kFailed, task.stage, task.attempt, e.what());
    }

    // heartbeat_stall wedges at the stage boundary: no heartbeat, no done
    // report, no exit — exactly the pathology the supervisor's timeout
    // must catch. The watchdog thread still handles orphan exit.
    while (hb.is_stalled()) ::pause();
  }
}

}  // namespace finser::shard
