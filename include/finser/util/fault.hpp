#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection for the robustness test suite.
///
/// The resilience machinery (resume from the artifact store, cache
/// regeneration, solver retry ladders) is only trustworthy if its failure paths are *exercised*,
/// so finser can inject its own faults, counter-deterministically — in the
/// spirit of gem5-based soft-error injection frameworks, but aimed at the
/// analysis pipeline itself.
///
/// Faults are configured through the FINSER_FAULT environment variable (or
/// fault_configure() in tests). Grammar, one or more comma-separated specs:
///
///   FINSER_FAULT=<site>:<n>[:<count>][,<site>:<n>...]
///
/// The site fires on hits n .. n+count-1 of its call counter (count
/// defaults to 1). Sites:
///
///   io_write_fail:N      the Nth atomic file write fails — a failed
///                        artifact put must warn and let the run continue
///   cache_flip:OFFSET    the first artifact put gets the byte at OFFSET
///                        XOR-flipped before the write — the next load must
///                        reject the blob by CRC and regenerate it
///   newton_diverge:N     the Nth strike transient throws NumericalError —
///                        characterization must count/exclude the sample
///   kill_after_flush:N   raise(SIGKILL) right after the Nth successful
///                        artifact put — drives the kill-and-resume tests
///   worker_kill_after_claim:N  a shard worker raises SIGKILL right after
///                        reading its Nth stage assignment — the supervisor
///                        must reclaim the stage and reassign it
///   heartbeat_stall:N    from the Nth heartbeat tick on, a shard worker
///                        stops heartbeating and wedges at its next stage
///                        boundary — the supervisor must time it out, kill
///                        it and reassign its stage
///
/// All counters are process-global atomics: for a fixed thread count and
/// seed the firing point is deterministic. Shard workers are separate
/// processes, so their counters are per-worker; the supervisor does not
/// re-arm FINSER_FAULT for replacement workers it spawns after a death
/// (docs/sharding.md), which is what lets a one-shot fault prove recovery.

#include <cstdint>
#include <string>

namespace finser::util {

/// Injection sites (see the file comment for semantics).
enum class FaultSite : std::size_t {
  kIoWriteFail = 0,
  kCacheFlip,
  kNewtonDiverge,
  kKillAfterFlush,
  kWorkerKillAfterClaim,
  kHeartbeatStall,
  kCount,
};

/// (Re)configure from a spec string; "" disables every site. Counters are
/// reset. Throws util::InvalidArgument on a malformed spec. Overrides any
/// FINSER_FAULT environment configuration.
void fault_configure(const std::string& spec);

/// Count one hit of \p site; true exactly when the configured window
/// [n, n+count) is hit. Reads FINSER_FAULT lazily on first use. Unconfigured
/// sites return false without counting (the disabled path is one relaxed
/// atomic load).
bool fault_fire(FaultSite site);

/// Configured argument of \p site (the N/OFFSET field; 0 when unconfigured).
std::uint64_t fault_arg(FaultSite site);

/// Hits counted so far for \p site (tests use this to locate a target call
/// index deterministically: configure an unreachable trigger, run once,
/// read the count).
std::uint64_t fault_count(FaultSite site);

}  // namespace finser::util
