#pragma once
/// \file supervisor.hpp
/// \brief Fault-tolerant multi-process campaign execution (finser::shard).
///
/// The supervisor turns a pipeline::CampaignRunner stage plan into a fleet
/// of `finser_cli worker` subprocesses and keeps the campaign moving
/// through worker death and wedged stages:
///
///   * **Assignment** — ready stages (dependencies completed) are handed to
///     idle workers in deterministic plan order. Each worker has one pipe
///     pair: assignment lines go to its stdin, and its heartbeat, `done` and
///     `failed` report lines come back on its stdout, which the supervisor
///     poll(2)s (the line protocol: shard/worker.hpp).
///   * **Supervision** — EOF on a worker's stdout plus waitpid() is its
///     death, whatever killed it; the stage attempt it held fails and the
///     stage is retried with exponential backoff on a fresh worker.
///     Heartbeat silence and a malformed report line get the worker killed
///     the same way. A stage that fails `max_retries + 1` attempts is
///     *quarantined*: its failure is recorded (and surfaced in the run
///     report's "shard" section), dependent stages are marked blocked, and
///     every other stage still runs to completion — graceful degradation,
///     not abort.
///   * **Watchdog** — with `stage_timeout_s > 0`, a stage exceeding its
///     wall-clock budget is treated exactly like a heartbeat timeout (kill
///     + retry), so a wedged Newton loop becomes a retryable failure.
///   * **Determinism** — every stage is a pure function of its fingerprint
///     and thread-count-invariant, so any worker count (including the
///     in-process path, workers = 0) produces byte-identical CSVs and
///     results; the equivalence is asserted by the ShardCampaignEquivalence
///     harness at worker counts {1, 2, 4}, including under kill -9.
///   * **Resume** — there is no shard resume record: a rerun dispatches
///     every stage, and each finished product comes back as an
///     artifact-store hit, exactly as in an in-process rerun. Workers run
///     the document the supervisor resolved,
///     `<artifact_dir>/campaigns/<run fingerprint>.json`.
///
/// Counters: "shard.claims" (assignments handed out), "shard.reassigns"
/// (reclaimed after a death), "shard.retries", "shard.quarantines",
/// "shard.worker_deaths", "shard.stage_timeouts", plus the
/// "shard.heartbeat_ms" histogram of heartbeat intervals.

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
  std::size_t workers = 2;            ///< Worker subprocesses (>= 1).
  std::size_t max_retries = 2;        ///< Extra attempts before quarantine.
  double heartbeat_timeout_s = 30.0;  ///< Silence before a kill; 0 = off.
  double stage_timeout_s = 0.0;       ///< Per-stage wall clock; 0 = off.
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
  std::uint64_t fingerprint = 0;  ///< Run fingerprint; names the document.
  std::vector<StageFailure> failures;
};

/// Execute \p spec with \p config.workers subprocesses. Blocks until the
/// campaign completes, degrades to partial, or fails; throws
/// util::Cancelled when \p cancel fires (after SIGTERM-ing the fleet) and
/// util::Error for unrecoverable supervisor-side problems (unspawnable
/// workers, an unwritable document). \p spec must have a non-empty
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
