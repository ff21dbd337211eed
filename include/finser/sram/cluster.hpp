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
///  * ClusterSimulator — the struck cells of one tile, each simulated on
///    one retention StrikeSimulator with its own charge triple and
///    threshold shifts. The cells of a physical tile share only ideal
///    rails, so they are electrically independent; the lane-batched engine
///    runs process-variation samples, and every outcome is the same at any
///    lane width.
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
#include <mutex>
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
  bool operator==(const ClusterConfig&) const = default;
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

/// Multi-cell strike simulator: tile bookkeeping over one retention
/// StrikeSimulator at a fixed supply voltage. Every node the cells of a tile
/// share — supply, wordline, each column's bitlines — is an ideal source,
/// so a tile is N electrically independent cells: a simultaneous strike is
/// each struck cell's own strike, run on the design's single-cell netlist
/// with that cell's charge triple and threshold shifts. Every cell is in the
/// canonical Q=1/QB=0 frame (strike_index already folded the stored bit
/// into the I1/I2/I3 triple). Correlation between cells enters only through
/// ClusterPofSurface's charge sharing, before simulation.
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

  /// Result of one tile strike. `flipped[i]` covers every tile cell
  /// (unstruck cells carry no injection and are never flipped).
  struct Outcome {
    std::vector<std::uint8_t> flipped;
    std::size_t flip_count = 0;
    bool failed = false;
    std::string error;
  };

  /// Simulate one simultaneous strike into the tile: each struck cell's
  /// triple with its own entry of \p dvts, which carries one DeltaVt per
  /// tile cell (flat local order). Throws util::NumericalError if a cell's
  /// solve fails.
  Outcome simulate(const std::vector<CellStrike>& strikes,
                   const std::vector<DeltaVt>& dvts,
                   spice::PulseShape::Kind kind);

  /// simulate() over process-variation samples: sample s runs with
  /// \p dvt_samples[s], all sharing \p strikes. Every (sample, struck cell)
  /// pair is one lane of StrikeSimulator::simulate_batch, so each sample's
  /// outcome is byte-identical to a simulate() with the same inputs at any
  /// lane width. A sample fails, with its first failing cell's error, when
  /// any of its cells does.
  void simulate_batch(const std::vector<CellStrike>& strikes,
                      const std::vector<std::vector<DeltaVt>>& dvt_samples,
                      spice::PulseShape::Kind kind, std::vector<Outcome>& out);

  std::size_t cell_count() const { return cells_; }

 private:
  std::size_t cells_;
  StrikeSimulator sim_;
};

/// Memoized cluster-level POF surface: quantized joint charge vector →
/// flip-count distribution. Thread-safe, with misses simulated
/// concurrently: the mutex guards only the memo and the keys in flight. A
/// miss marks its key in flight and runs its simulations unlocked on a
/// ClusterSimulator of its own; a query for a key in flight waits for it
/// and reads the entry as a hit, so each key is simulated exactly once at
/// any thread count. Every entry is a pure function of its key (PV seeds
/// derive from the key hash), so the memo is schedule-invariant.
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
  /// of entries absorbed. It merges nothing and throws util::Error unless
  /// the whole payload is well-formed: every key a query of this tile could
  /// make (3 + 4·n words, 1 <= n <= tile cells, a 0/1 PV flag, ascending
  /// in-tile local indices) with n + 1 probabilities in [0, 1].
  std::vector<std::uint8_t> encode() const;
  std::size_t decode_merge(const std::vector<std::uint8_t>& blob);

 private:
  using Key = std::vector<std::int64_t>;
  std::vector<double> evaluate(const Key& key, double vdd_v, bool with_pv,
                               const std::vector<CellCharge>& cells) const;
  /// Take \p key out of flight (inserting \p dist unless null) and wake
  /// the queries waiting on it.
  void finish_miss(const Key& key, std::vector<double>* dist);

  CellDesign design_;
  ClusterConfig config_;
  mutable std::mutex mu_;  ///< Guards memo_ and in_flight_.
  std::condition_variable landed_;  ///< A key left in_flight_.
  std::map<Key, std::vector<double>> memo_;
  std::set<Key> in_flight_;  ///< Keys being simulated right now.
};

}  // namespace finser::sram
