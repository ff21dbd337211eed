#pragma once
/// \file supervisor.hpp
/// \brief Fault-tolerant multi-process campaign execution (finser::shard).
///
/// The supervisor turns a pipeline::CampaignRunner stage plan into a fleet
/// of `finser_cli worker` subprocesses and keeps the campaign moving
/// through worker death, wedged stages and torn control files:
///
///   * **Assignment** — ready stages (dependencies completed) are handed to
///     idle workers in deterministic plan order via task lease files;
///     workers ack by heartbeat and report done/failed the same way. All
///     coordination is filesystem-only (shard/lease.hpp) — there are no
///     pipes or shared memory, so a record is either complete or absent.
///   * **Supervision** — worker exit (code or signal) and heartbeat
///     timeouts both reclaim the assignment; the stage is retried with
///     exponential backoff, on a fresh worker if the old one died. A stage
///     that fails `max_retries + 1` attempts is *quarantined*: its failure
///     is recorded (and surfaced in the run report's "shard" section),
///     dependent stages are marked blocked, and every other stage still
///     runs to completion — graceful degradation, not abort.
///   * **Watchdog** — with `stage_timeout_s > 0`, a stage exceeding its
///     wall-clock budget is treated exactly like a heartbeat timeout (kill
///     + retry), so a wedged Newton loop becomes a retryable failure.
///   * **Determinism** — every stage is a pure function of its fingerprint
///     and thread-count-invariant, so any worker count (including the
///     in-process path, workers = 0) produces byte-identical CSVs and
///     results; the equivalence is asserted by the ShardCampaignEquivalence
///     harness at worker counts {1, 2, 4}, including under kill -9.
///   * **Resume** — durable done markers keyed by the run fingerprint
///     (CampaignRunner::fingerprint) let a killed supervisor pick up where
///     it stopped; combined with the content-addressed artifact store, a
///     re-run recomputes only what never finished. Workers run the document
///     the supervisor resolved, `<lease dir>/campaign.json`.
///
/// Counters: "shard.claims" (assignments handed out), "shard.reassigns"
/// (reclaimed after death/timeout), "shard.retries", "shard.quarantines",
/// "shard.worker_deaths", "shard.stage_timeouts", "shard.task_rewrites",
/// plus the "shard.heartbeat_ms" latency histogram.

#include <cstdint>
#include <string>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/util/json.hpp"

namespace finser::shard {

/// Knobs of one sharded run (CLI flags map onto these 1:1).
struct ShardConfig {
  std::size_t workers = 2;      ///< Worker subprocesses (>= 1).
  std::size_t max_retries = 2;  ///< Extra attempts before quarantine.
  double heartbeat_period_s = 0.1;   ///< Worker heartbeat cadence.
  double heartbeat_timeout_s = 30.0; ///< Silence before a worker is killed.
  double stage_timeout_s = 0.0;      ///< Per-stage wall clock; 0 = off.
  double poll_period_s = 0.05;       ///< Supervisor poll cadence.
  double backoff_base_s = 0.1;       ///< Retry backoff: base * 2^(attempt-1).
  double backoff_max_s = 2.0;        ///< Backoff ceiling.
  std::string cli_path;      ///< finser_cli binary; "" = /proc/self/exe.
  std::size_t worker_threads = 0;  ///< Per-worker thread budget; 0 = split.
};

/// How a sharded campaign ended (maps to CLI exit codes 0 / 5 / 1).
enum class ShardOutcome {
  kComplete = 0,  ///< Every stage completed.
  kPartial = 1,   ///< >= 1 stage quarantined/blocked, >= 1 completed.
  kFailed = 2,    ///< Nothing completed.
};

/// Terminal record of one non-completed stage.
struct StageFailure {
  std::string id;
  std::string label;
  std::size_t attempts = 0;
  std::string status;  ///< "quarantined" | "blocked".
  std::string reason;  ///< Last failure ("worker died (signal 9)", ...).
};

/// Result of run_sharded_campaign().
struct ShardResult {
  ShardOutcome outcome = ShardOutcome::kComplete;
  std::size_t stages_total = 0;
  std::size_t stages_completed = 0;
  std::size_t stages_resumed = 0;  ///< Honored done markers from a prior run.
  std::uint64_t fingerprint = 0;   ///< Run fingerprint every lease carries.
  std::vector<StageFailure> failures;
};

/// Execute \p spec with \p config.workers subprocesses. Blocks until the
/// campaign completes, degrades to partial, or fails; throws
/// util::Cancelled when \p cancel fires (after SIGTERM-ing the fleet) and
/// util::Error for unrecoverable supervisor-side problems (unspawnable
/// workers, unwritable lease dir). \p spec must have a non-empty
/// output_dir or artifact_dir (the artifact dir defaults to
/// `<output_dir>/artifacts` when unset — workers need the store to ship
/// stage products across processes).
ShardResult run_sharded_campaign(const pipeline::CampaignSpec& spec,
                                 const ShardConfig& config,
                                 const exec::CancelToken* cancel = nullptr,
                                 const exec::ProgressSink& progress = {});

/// The run-report "shard" section for \p result (worker count, outcome,
/// per-stage failure records) — embedded by the CLI next to "metrics".
util::JsonValue shard_report_json(const ShardResult& result,
                                  const ShardConfig& config);

}  // namespace finser::shard
