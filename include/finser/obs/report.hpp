#pragma once
/// \file report.hpp
/// \brief Versioned RunReport JSON and Chrome-tracing output of finser::obs.
///
/// A RunReport is the durable artifact of one run: every metric in the
/// Registry plus build/config fingerprints, serialized as JSON
/// (schema "finser.run_report", version 1 — see docs/observability.md).
/// The document is split into
///
///   * `"metrics"`  — deterministic counters/histograms. Byte-identical
///                    across thread counts for the same seed (tested);
///   * `"timing"`   — wall-clock spans, gauges, and derived rates
///                    (particles/sec). Schedule-dependent by nature.
///
/// The trace writer emits the Chrome Trace Event JSON format
/// (`{"traceEvents": [...]}`, "X" complete events, microsecond timestamps)
/// loadable by chrome://tracing and Perfetto.

#include <string>

#include "finser/obs/obs.hpp"
#include "finser/util/json.hpp"

namespace finser::obs {

/// Caller-provided context embedded in the report's "run" section.
struct RunInfo {
  std::string tool;         ///< e.g. "finser_cli".
  std::string command;      ///< e.g. "campaign campaigns/paper.json".
  std::uint64_t seed = 0;
  std::size_t threads = 0;  ///< Resolved worker-thread count (0 = unknown).
  std::size_t lanes = 0;    ///< Resolved SPICE lane width (0 = unknown).
  double mc_scale = 1.0;
  /// Configuration fingerprint (util::Fnv1a); serialized as a hex string
  /// because JSON doubles cannot carry 64 bits.
  std::uint64_t config_fingerprint = 0;
};

/// Current report schema version (bump on breaking layout changes).
inline constexpr int kRunReportVersion = 1;

/// Serialize \p snapshot's deterministic part only (the "metrics" object).
/// This is the sub-document the thread-count-invariance contract covers.
util::JsonValue metrics_json(const Snapshot& snapshot);

/// Build the full report document from a snapshot + run info.
util::JsonValue build_run_report(const Snapshot& snapshot, const RunInfo& info);

/// snapshot() + build + atomically write pretty-printed JSON to \p path.
/// With \p shard non-null, the document gains a top-level "shard" section
/// (sharded-campaign outcome; see shard::shard_report_json and
/// docs/sharding.md). Throws util::Error on I/O failure.
void write_run_report(const std::string& path, const RunInfo& info,
                      const util::JsonValue* shard = nullptr);

/// Build the Chrome Trace Event document from the registry's buffered spans.
util::JsonValue build_chrome_trace(const Registry& registry);

/// Atomically write the trace document to \p path (throws util::Error).
void write_chrome_trace(const std::string& path);

/// Validate that \p doc has the report's required structure (schema marker,
/// version, build/run/metrics/timing sections with their mandatory keys).
/// Returns an empty string when valid, else a description of the first
/// problem. Used by the run-report round-trip test.
std::string validate_run_report(const util::JsonValue& doc);

}  // namespace finser::obs
