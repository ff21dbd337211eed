#pragma once
/// \file worker.hpp
/// \brief Worker-process side of sharded campaign execution.
///
/// `finser_cli worker` parses the campaign document its supervisor resolved
/// and wrote into the lease dir, rebuilds the identical stage plan
/// (pipeline::CampaignRunner::plan is deterministic), then loops: poll the
/// task lease for an assignment, ack it with a `running` heartbeat, execute
/// the stage via run_stage(), report `done` or `failed`, repeat until a
/// shutdown task arrives. A heartbeat
/// thread rewrites the hb lease every `heartbeat_period_s` so the
/// supervisor can tell "slow" from "dead". Workers also watch getppid():
/// if the supervisor vanishes (kill -9), they exit on their own instead of
/// running orphaned forever.
///
/// Fault hooks (util/fault.hpp): `worker_kill_after_claim` SIGKILLs right
/// after the ack heartbeat lands — the mid-stage-death drill;
/// `heartbeat_stall` stops the heartbeat thread and wedges the worker at
/// its next stage boundary — the hung-worker drill. The FINSER_SHARD_POISON
/// environment variable (a stage-id substring) makes every worker die on
/// matching assignments, which is how tests force a deterministic
/// quarantine across retries.

#include <cstdint>
#include <string>

namespace finser::shard {

/// Configuration of one worker process (set from CLI flags by the
/// supervisor when it spawns the worker).
struct WorkerConfig {
  std::string campaign_path;  ///< The supervisor's resolved campaign JSON.
  std::string lease_dir;      ///< Control-plane directory.
  std::uint64_t worker_id = 0;
  std::size_t threads = 0;          ///< Stage thread budget; 0 = auto.
  double heartbeat_period_s = 0.1;
  double poll_period_s = 0.025;
};

/// Run the worker loop; returns the process exit code (0 on a clean
/// shutdown). Never throws — stage failures are reported through the
/// heartbeat lease and the loop continues to the next assignment.
int run_worker(const WorkerConfig& config);

}  // namespace finser::shard
