#pragma once
/// \file lease.hpp
/// \brief Atomic, CRC-guarded lease records for sharded campaign execution.
///
/// The shard supervisor and its `finser_cli worker` subprocesses coordinate
/// ONLY through the filesystem: the ArtifactStore carries stage products,
/// and a lease directory (`<artifact_dir>/leases/`) carries the control
/// plane. Every control record is one small file written with
/// util::atomic_write_file and framed like an artifact blob, as a sealed
/// record (util/sealed_record.hpp): magic, CRC-32 over the body, key echo
/// (here: the campaign fingerprint) — and loaded with the same never-throw
/// discipline: a missing, torn, corrupted or stale record reads as
/// "absent", never as an error (docs/sharding.md, docs/robustness.md).
///
/// Three record roles share one format, distinguished by LeaseKind and by
/// filename:
///
///   task-<worker>   supervisor → worker: "run stage <id>, attempt k" (or
///                   shutdown). Rewritten in place for each assignment;
///                   workers dedupe by (stage, attempt).
///   hb-<worker>     worker → supervisor: heartbeat, rewritten every tick.
///                   Carries the worker's state machine (idle / running /
///                   done / failed) and echoes the assignment it is acting
///                   on. The `done` heartbeat is the completion authority
///                   during a run.
///   done-<stage>    worker → future runs: durable completion marker. Only
///                   consulted at supervisor startup to resume a killed
///                   campaign; a torn one merely costs a recompute.
///
/// Records embed the run fingerprint (CampaignRunner::fingerprint) so a
/// lease directory reused across edited specs, overrides or MC scales (or a
/// different campaign pointed at the same artifact_dir) is swept as stale
/// instead of trusted. Rejects are counted per reason on
/// "shard.lease.rejects" (plus "shard.lease.reject.<why>" detail counters,
/// mirroring the artifact store's classification tests).

#include <cstdint>
#include <string>

namespace finser::shard {

/// Role of a lease record (serialized; order is ABI).
enum class LeaseKind : std::uint32_t {
  kTask = 0,       ///< supervisor → worker assignment.
  kHeartbeat = 1,  ///< worker → supervisor liveness + state.
  kDone = 2,       ///< durable stage-completion marker (resume only).
};

/// Worker / assignment state machine carried in a record (serialized).
enum class LeaseState : std::uint32_t {
  kIdle = 0,      ///< heartbeat: no assignment in hand.
  kAssign = 1,    ///< task: stage assigned, awaiting ack.
  kRunning = 2,   ///< heartbeat: stage in progress.
  kDone = 3,      ///< heartbeat/done: stage completed.
  kFailed = 4,    ///< heartbeat: stage raised; message holds the reason.
  kShutdown = 5,  ///< task: campaign over, exit cleanly.
};

/// One decoded control record. `seq` is a per-writer monotonic counter
/// (assignment number for tasks, tick number for heartbeats) used to
/// dedupe rewrites; `attempt` distinguishes retries of one stage so a
/// stale `done` from attempt k cannot complete attempt k+1.
struct LeaseRecord {
  LeaseKind kind = LeaseKind::kHeartbeat;
  LeaseState state = LeaseState::kIdle;
  std::uint64_t campaign = 0;  ///< CampaignRunner::fingerprint() echo.
  std::uint64_t worker = 0;    ///< writer's worker index.
  std::uint64_t attempt = 0;   ///< retry ordinal of the referenced stage.
  std::uint64_t seq = 0;       ///< writer-monotonic record counter.
  std::string stage;           ///< StageInfo::id ("" when idle/shutdown).
  std::string message;         ///< failure reason / diagnostics.
};

/// Paths of the three record roles inside \p lease_dir. \p stage_id must be
/// a plan id (path-safe by construction).
std::string task_path(const std::string& lease_dir, std::uint64_t worker);
std::string heartbeat_path(const std::string& lease_dir, std::uint64_t worker);
std::string done_path(const std::string& lease_dir,
                      const std::string& stage_id);

/// Atomically persist \p rec at \p path (creates \p path's directory on
/// demand). Returns false with the cause in \p error (if non-null) on I/O
/// failure — the control plane is heartbeat-repaired, so callers log and
/// continue. Honors the `lease_torn` fault site: the selected write lands
/// as a bare prefix of the record, exercising every reader's CRC rejection.
bool write_lease(const std::string& path, const LeaseRecord& rec,
                 std::string* error = nullptr);

/// Load the record at \p path. Returns false on any miss; torn, corrupted,
/// truncated or wrong-campaign records are classified misses with a
/// diagnostic in \p reason, never exceptions. A plain missing file (the
/// normal polling case) reports "no lease" quietly; everything else counts
/// one "shard.lease.rejects".
bool try_read_lease(const std::string& path, std::uint64_t expected_campaign,
                    LeaseRecord& out, std::string* reason = nullptr);

}  // namespace finser::shard
