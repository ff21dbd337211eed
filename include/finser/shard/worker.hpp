#pragma once
/// \file worker.hpp
/// \brief Worker-process side of sharded campaign execution, and the line
/// protocol it speaks with its supervisor.
///
/// `finser_cli worker <doc>` parses the campaign document its supervisor
/// resolved, rebuilds the identical stage plan (pipeline::CampaignRunner::plan
/// is deterministic) and talks over one pipe pair. The supervisor writes one
/// assignment line `<stage-id> <attempt>` to the worker's stdin per stage and
/// closes stdin to shut the worker down. The worker writes report lines to
/// its stdout:
///
///   hb                            liveness, every 100 ms (heartbeat thread)
///   done <stage-id> <attempt>     the stage ran; its products are in the store
///   failed <stage-id> <attempt> <why>   the stage raised <why>
///
/// Each report is one line of at most PIPE_BUF bytes written by one write(2),
/// so the heartbeat thread and the stage loop never interleave. The pipe is
/// non-blocking: a heartbeat that finds it full is dropped (the next one says
/// the same), while `done` and `failed` wait for room and are never dropped.
/// The worker ends on stdin EOF — its supervisor closed it, or died — and a
/// busy worker's heartbeat thread exits the process once the report pipe has
/// no reader left, so an orphaned worker never computes on.
///
/// Fault hooks (util/fault.hpp): `worker_kill_after_claim` SIGKILLs right
/// after an assignment is read, the mid-stage-death drill; `heartbeat_stall`
/// stops the heartbeats and wedges the worker at its next stage boundary
/// without a report, the hung-worker drill. The FINSER_SHARD_POISON
/// environment variable (a stage-id substring) makes every worker die on
/// matching assignments, which is how tests force a deterministic quarantine
/// across retries.

#include <string>

namespace finser::shard {

/// Configuration of one worker process (set from CLI arguments by the
/// supervisor when it spawns the worker).
struct WorkerConfig {
  std::string campaign_path;  ///< The supervisor's resolved campaign JSON.
  std::size_t threads = 0;    ///< Stage thread budget; 0 = auto.
};

/// Run the worker loop; returns the process exit code (0 on a clean
/// shutdown, 4 when cancelled). Stage failures are reported as `failed`
/// lines and the loop continues to the next assignment.
int run_worker(const WorkerConfig& config);

/// What a report line (without its '\n') says about the assignment a worker
/// holds, \p assignment being its `<stage-id> <attempt>` line ("" = idle).
/// Only the lines above, for that very assignment, are trusted; everything
/// else is kMalformed. A kFailed line's reason goes to \p why.
enum class Report { kHeartbeat, kDone, kFailed, kMalformed };
Report classify_report(const std::string& line, const std::string& assignment,
                       std::string* why = nullptr);

}  // namespace finser::shard
