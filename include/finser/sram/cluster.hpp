#pragma once
/// \file cluster.hpp
/// \brief Correlated multi-node charge collection: multi-cell strike
/// simulation and the joint-charge POF surface behind it.
///
/// The independent-cell strike path folds a track into per-cell charge
/// triples and prices each cell against its own POF LUT — cells never
/// interact. Rao & Desai (arXiv:1706.03315) show that in 14 nm FinFETs a
/// single strike collects charge on several nodes *simultaneously*, which
/// changes both the upset probability and the clustering shape of MBUs.
///
/// This layer adds the correlated alternative behind a `cluster` mode:
///
///  * ClusterSimulator — N coupled 6T cells lowered once into one
///    spice::CompiledCircuit: shared supply and wordline rails, shared
///    per-column bitlines (the electrical coupling path through the off
///    pass gates), per-cell storage nodes, threshold-shift rebind slots and
///    strike-current sources. Process-variation sampling runs lane-batched
///    through the AoSoA batch engine, so every lane's outcome is
///    byte-identical to a scalar evaluation at any `--lanes` width.
///
///  * ClusterPofSurface — the cluster-level analogue of the per-cell POF
///    LUT: a memoized map from the *quantized joint charge vector* of a
///    tile's struck cells to the distribution of the number of flipped
///    cells. A full LUT over N×3 charge axes is dimensionally hopeless
///    (docs/charge_sharing.md discusses the trade-off); instead entries are
///    computed on demand and every entry is a pure function of its key —
///    PV sample seeds derive from the key hash via stats::Rng::derive_seed
///    — so values are identical regardless of query order, thread count,
///    worker count, lane width or kill/resume history.
///
/// `cluster = 1x1` (the default) bypasses all of this: the engines keep the
/// independent per-cell path bit-for-bit.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "finser/sram/cell.hpp"

namespace finser::sram {

/// Cluster tiling mode of the strike pipeline.
enum class ClusterMode {
  k1x1,  ///< Independent cells — today's path, byte-identical.
  k2x2,  ///< 2×2 cell tiles (row and column neighbours correlate).
  k1x4,  ///< 1 row × 4 column tiles (wordline-direction MBU clusters).
};

/// Tile dimensions of a mode.
std::size_t cluster_rows(ClusterMode mode);
std::size_t cluster_cols(ClusterMode mode);

/// Canonical name ("1x1" / "2x2" / "1x4") and its inverse (nullopt on an
/// unknown name).
const char* cluster_mode_name(ClusterMode mode);
std::optional<ClusterMode> cluster_mode_from(const std::string& name);

/// Knobs of the correlated strike path. The defaults (mode 1x1) reproduce
/// the independent per-cell pipeline bit-for-bit.
struct ClusterConfig {
  ClusterMode mode = ClusterMode::k1x1;
  /// Fraction of a struck cell's collected charge that also appears on each
  /// adjacent (Manhattan distance 1) struck cell of the same tile — the
  /// multi-node charge-collection term of arXiv:1706.03315, applied to the
  /// dominant collection node (the off pull-down drain, current I1).
  double share_fraction = 0.12;
  /// Joint process-variation samples per surface entry (with-PV channel).
  std::size_t pv_samples = 24;
  /// Joint-charge quantization step [fC] of the surface keys. Queries are
  /// snapped to this grid *before* simulation, so a memo hit returns
  /// exactly what a fresh evaluation of the same key would.
  double quantum_fc = 0.005;

  bool enabled() const { return mode != ClusterMode::k1x1; }
};

/// Tile id of cell (row, col) under tile_rows × tile_cols clustering;
/// border tiles are ragged (smaller) when the array size is not a multiple
/// of the tile size.
inline std::uint32_t cluster_tile_id(std::uint32_t row, std::uint32_t col,
                                     std::size_t array_cols,
                                     std::size_t tile_rows,
                                     std::size_t tile_cols) {
  const auto tiles_per_row = static_cast<std::uint32_t>(
      (array_cols + tile_cols - 1) / tile_cols);
  return (row / static_cast<std::uint32_t>(tile_rows)) * tiles_per_row +
         col / static_cast<std::uint32_t>(tile_cols);
}

/// Position of cell (row, col) within its tile, as a flat local index
/// (local_row * tile_cols + local_col).
inline std::uint8_t cluster_local_index(std::uint32_t row, std::uint32_t col,
                                        std::size_t tile_rows,
                                        std::size_t tile_cols) {
  return static_cast<std::uint8_t>(
      (row % static_cast<std::uint32_t>(tile_rows)) * tile_cols +
      col % static_cast<std::uint32_t>(tile_cols));
}

/// Multi-cell strike simulator: tile_rows × tile_cols 6T cells in one
/// netlist at a fixed supply voltage (retention). Every cell is built in
/// the canonical Q=1/QB=0 frame (strike_index already folded the stored bit
/// into the I1/I2/I3 triple), cells of one tile column share their
/// bitlines, and all cells share the supply and (low) wordline rails. The
/// netlist is lowered once into a spice::CompiledCircuit; each evaluation
/// is a parameter rebind, never a rebuild.
class ClusterSimulator {
 public:
  ClusterSimulator(const CellDesign& design, double vdd_v,
                   std::size_t tile_rows, std::size_t tile_cols);

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  /// One struck cell of the tile: flat local index + its charge triple.
  struct CellStrike {
    std::uint8_t local = 0;
    StrikeCharges charges;
  };

  /// Result of one joint transient. `flipped[i]` covers every tile cell
  /// (unstruck cells keep zero injection and cannot flip).
  struct Outcome {
    std::vector<std::uint8_t> flipped;
    std::size_t flip_count = 0;
    bool failed = false;
    std::string error;
  };

  /// Simulate one simultaneous strike into the tile. \p dvts carries one
  /// DeltaVt per tile cell (flat local order).
  Outcome simulate(const std::vector<CellStrike>& strikes,
                   const std::vector<DeltaVt>& dvts,
                   spice::PulseShape::Kind kind);

  /// Lane-batched simulate() over process-variation samples: sample s runs
  /// with \p dvt_samples[s], all sharing \p strikes. Samples are packed
  /// into SIMD lanes in index order; each lane's outcome is byte-identical
  /// to a scalar simulate() with the same inputs, so results do not depend
  /// on the configured lane width.
  void simulate_batch(const std::vector<CellStrike>& strikes,
                      const std::vector<std::vector<DeltaVt>>& dvt_samples,
                      spice::PulseShape::Kind kind, std::vector<Outcome>& out);

  /// Forget the pivot orders cached by earlier simulations. They never
  /// change a result bit, only whether a factorization counts as
  /// `spice.mna.pivot_reuse` or `spice.mna.pivot_refactor`; after a reset
  /// those counters depend on the next simulation alone, not on what this
  /// simulator ran before.
  void reset_pivot_caches();

  std::size_t tile_rows() const { return tile_rows_; }
  std::size_t tile_cols() const { return tile_cols_; }
  std::size_t cell_count() const { return tile_rows_ * tile_cols_; }
  double vdd() const { return vdd_v_; }

 private:
  void bind(const std::vector<CellStrike>& strikes,
            const std::vector<DeltaVt>& dvts, spice::PulseShape::Kind kind);
  std::vector<double> hold_guess() const;
  Outcome finish_wave(const spice::Waveform& wave) const;

  CellDesign design_;
  double vdd_v_;
  std::size_t tile_rows_;
  std::size_t tile_cols_;
  double tau_s_;

  spice::Circuit circuit_;
  std::vector<std::size_t> n_q_, n_qb_;       ///< Per cell.
  std::vector<std::size_t> n_bl_, n_blb_;     ///< Per tile column.
  std::size_t n_vdd_ = 0, n_wl_ = 0;
  std::vector<std::array<spice::Mosfet*, kRoleCount>> fets_;  ///< Per cell.
  std::vector<std::array<spice::PulseISource*, 3>> srcs_;     ///< Per cell.
  std::vector<std::string> probes_;  ///< q0, qb0, q1, qb1, ...
  spice::TransientOptions topt_;

  std::optional<spice::CompiledCircuit> compiled_;
  spice::SolveWorkspace ws_;
  spice::BatchWorkspace bw_;
};

/// Memoized cluster-level POF surface: quantized joint charge vector →
/// flip-count distribution. Thread-safe, with misses simulated
/// concurrently: the mutex guards only the memo, the keys in flight and a
/// per-supply-voltage pool of idle ClusterSimulators. A miss marks its key
/// in flight, checks out an idle simulator (building one when none is idle)
/// and runs the joint simulation unlocked; a query for a key in flight
/// waits for it and reads the entry as a hit, so each key is simulated
/// exactly once at any thread count. Every entry is a pure function of its
/// key (PV seeds derive from the key hash, and pooled simulators drop their
/// pivot caches before each evaluation), so the memo is schedule-invariant.
class ClusterPofSurface {
 public:
  ClusterPofSurface(const CellDesign& design, const ClusterConfig& config);

  /// One struck cell of a tile instance, in surface-query form.
  struct CellCharge {
    std::uint8_t local = 0;  ///< Flat local index within the tile.
    StrikeCharges charges;
  };

  /// Distribution of the number of flipped cells of one simultaneously
  /// struck tile instance: out[k] = P(exactly k flips), k = 0..cells.size().
  /// \p cells must be sorted by local index (canonical key order).
  void flip_count_distribution(double vdd_v, bool with_pv,
                               const std::vector<CellCharge>& cells,
                               std::vector<double>& out);

  const ClusterConfig& config() const { return config_; }
  std::size_t tile_rows() const { return cluster_rows(config_.mode); }
  std::size_t tile_cols() const { return cluster_cols(config_.mode); }

  /// Number of memoized entries (diagnostics/tests).
  std::size_t size() const;

  /// Artifact identity of this surface's values: the cell-model fingerprint
  /// (a proxy for the cell design + characterization identity) plus every
  /// cluster knob that changes entries.
  std::uint64_t fingerprint(std::uint64_t model_fingerprint) const;

  /// Byte codec for ArtifactStore caching ("cluster_surface" kind): the
  /// memoized (key, distribution) entries. decode_merge() inserts entries
  /// that are not already present (values are pure functions of keys, so
  /// any subset from any worker is a valid cache) and returns the number
  /// of entries absorbed; it throws util::Error on a malformed payload.
  std::vector<std::uint8_t> encode() const;
  std::size_t decode_merge(const std::vector<std::uint8_t>& blob);

 private:
  using Key = std::vector<std::int64_t>;
  using SimPtr = std::unique_ptr<ClusterSimulator>;
  std::vector<double> evaluate(const Key& key, ClusterSimulator& sim,
                               bool with_pv,
                               const std::vector<CellCharge>& cells) const;
  /// Return \p sim to the pool, take \p key out of flight (inserting
  /// \p dist unless null) and wake the queries waiting on it.
  void finish_miss(const Key& key, SimPtr sim, std::vector<double>* dist);

  CellDesign design_;
  ClusterConfig config_;
  mutable std::mutex mu_;  ///< Guards memo_, in_flight_ and idle_.
  std::condition_variable landed_;  ///< A key left in_flight_.
  std::map<Key, std::vector<double>> memo_;
  std::set<Key> in_flight_;  ///< Keys being simulated right now.
  /// Idle simulators by supply voltage [µV]; a miss checks one out for the
  /// length of its evaluation.
  std::map<std::int64_t, std::vector<SimPtr>> idle_;
};

}  // namespace finser::sram
