#pragma once
/// \file scenarios.hpp
/// \brief The campaign scenarios every workload runs, derived from the seed.
///
/// All scenarios share one geometry and, except the cold one, one cell
/// model (the "seed model"), so the warm workloads and the serve misses
/// load it from the seed store instead of characterizing. The seed sets the
/// Monte-Carlo seed and the random-pattern seed of every scenario and the
/// serve request stream; the cell model does not depend on it.

#include <cstdint>
#include <string>
#include <vector>

#include "finser/util/json.hpp"
#include "ledger.hpp"

namespace perf_ledger {

struct ScenarioDef {
  std::string name;
  std::size_t rows = 9;
  std::size_t cols = 9;
  std::string pattern = "checkerboard";
  std::uint64_t pattern_seed = 1;
  std::vector<double> vdds;
  std::size_t pv_samples = 16;
  std::size_t strikes = 0;
  std::vector<std::string> species;
  bool cluster_2x2 = false;
  std::uint64_t seed = 0;

  util::JsonValue to_json() const;
};

/// Hits per serve round: a closed-loop burst of hits, then one miss. Sized
/// so that the hits and the miss each take about half of a round.
inline constexpr std::size_t kServeHitsPerRound = 10000;
/// Serve requests kept in flight (below the server's --max-pending 64).
inline constexpr std::size_t kServeWindow = 32;
/// Sibling scenarios available as serve misses; one is refined per round.
inline constexpr std::size_t kServeSiblings = 64;

/// "ref": the scenario the set-up campaign builds (seed model + surfaces).
ScenarioDef seed_scenario(const Context& ctx);
/// The scenario one operation of \p w runs; for serve_mixed, the refine
/// unit (a sibling) that the traced replay times.
ScenarioDef op_scenario(const Context& ctx, Workload w);
/// Sibling \p k of the serve catalog: the seed model, a random pattern of
/// its own, so every refine misses every cache.
ScenarioDef serve_sibling(const Context& ctx, std::size_t k);

/// Campaign document over \p scenarios.
std::string campaign_json(const std::string& name, const std::string& store,
                          const std::string& out,
                          const std::vector<ScenarioDef>& scenarios);

/// Write \p text to \p path (parent directories created); throws on error.
void write_text(const std::string& path, const std::string& text);

/// FNV-1a over (file name, bytes) of every regular file directly inside
/// \p dir, in name order: the identity of one scenario's CSV outputs.
std::uint64_t digest_dir(const std::string& dir);

std::string hex64(std::uint64_t v);

/// Copy the cell_model and device_lut artifacts of \p from into \p to.
void copy_model_slice(const std::string& from, const std::string& to);

/// Fingerprints of the \p kind entries of the store at \p dir, read-only
/// through ArtifactStore::list(); entries failing their integrity check
/// are reported as "bad:<fingerprint>".
std::vector<std::string> store_entries(const std::string& dir,
                                       const std::string& kind);

/// Reference digest \p key at the reference seed (reference.json), or ""
/// when the file has no such entry.
std::string reference_digest(const std::string& key);

}  // namespace perf_ledger
