#pragma once
/// \file array_engine.hpp
/// \brief Common interface + chunked driver of the array-level Monte Carlos.
///
/// Both array engines — the charged-particle ArrayMc (direct ionization) and
/// the forced-interaction NeutronArrayMc (indirect ionization) — reduce the
/// same loop shape: N independent strike/history units, processed in
/// fixed-size RNG chunks on the exec thread pool, accumulated into one
/// PofAccumulator per (vdd, mode) and merged pairwise in chunk-index order.
/// ArrayEngine hoists that entire driver — worker-scratch management, the
/// plain vs checkpointed execution paths, partial decode/merge, and the
/// final estimate — into one place; the engines supply only the per-chunk
/// physics (simulate_chunk) and their checkpoint fingerprint.
///
/// The driver preserves the exec-layer determinism contract verbatim: chunk
/// *i* consumes stats::Rng::stream(seed, i) and nothing else, partials merge
/// in chunk-index order, so results are bit-identical at any thread count
/// and across kill/resume (docs/parallelism.md, docs/robustness.md).
///
/// ArrayEngine is also the unit the pipeline layer schedules: a campaign
/// stage node is "one engine × one energy point", keyed by the same
/// fingerprint the checkpoint layer uses (docs/architecture.md).

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/core/pof_combine.hpp"
#include "finser/exec/progress.hpp"
#include "finser/phys/track.hpp"
#include "finser/sram/cluster.hpp"
#include "finser/sram/layout.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/stats/rng.hpp"
#include "finser/stats/summary.hpp"
#include "finser/stats/vr.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/fingerprint.hpp"

namespace finser::core {

/// Monte-Carlo POF estimate for one (species, energy, Vdd, PV-mode).
struct PofEstimate {
  double tot = 0.0;
  double seu = 0.0;
  double mbu = 0.0;
  double tot_se = 0.0;  ///< Standard errors of the means above.
  double seu_se = 0.0;
  double mbu_se = 0.0;
  double hit_fraction = 0.0;  ///< Strikes with any sensitive deposit.
  std::size_t strikes = 0;
  /// Effective sample size of the weighted POF_tot estimator,
  /// (Σw)² / Σw² — equals `strikes` for the uniform (unit-weight)
  /// estimator, smaller when importance weights vary (docs/statistics.md).
  double ess = 0.0;

  /// Exact per-strike upset-multiplicity distribution, averaged over
  /// strikes: multiplicity[n] = P(exactly n cells flip) for n <
  /// kMaxMultiplicity-1; the last bin aggregates "that many or more".
  /// Computed by Poisson-binomial dynamic programming over the touched
  /// cells' POFs, so multiplicity[1] ≡ seu and Σ_{n≥2} ≡ mbu by
  /// construction — the extra information ECC/interleaving sizing needs
  /// beyond the paper's binary SEU/MBU split.
  std::array<double, kMaxMultiplicity> multiplicity{};
};

/// Index pair (0 = nominal, 1 = with process variation).
inline constexpr std::size_t kModeNominal = 0;
inline constexpr std::size_t kModeWithPv = 1;

/// Merge-friendly (count, mean, M2) Welford accumulator behind one
/// PofEstimate: three RunningStats channels (tot/seu/mbu) plus the
/// multiplicity mass. Chunked engines keep one accumulator per (vdd, mode)
/// per chunk and merge the partials pairwise in chunk order — the merge is
/// exact for the mean and numerically stable for the variance, so the
/// parallel reduction reproduces the serial statistics.
class PofAccumulator {
 public:
  /// Add one strike's combined POFs with unit weight.
  void add(const CombinedPof& pof);

  /// Add one strike's combined POFs with a likelihood-ratio weight: the
  /// plain channels receive weight·pof (the Horvitz–Thompson estimator the
  /// SE machinery already understands), while the weighted-Welford channel
  /// tracks (pof, weight) for ESS accounting. add(pof) ≡ add_weighted(pof, 1)
  /// bit-for-bit.
  void add_weighted(const CombinedPof& pof, double weight);

  /// Add \p mass to multiplicity bin \p n (bins are plain sums).
  void add_multiplicity(std::size_t n, double mass);

  /// Fold \p other in (Chan et al. parallel Welford merge).
  void merge(const PofAccumulator& other);

  /// Number of strikes accumulated (via add()).
  std::size_t count() const { return tot_.count(); }

  /// Relative half-width of the 95% CI on the POF_tot channel — the
  /// quantity the adaptive stopping rule drives to `--ci-target`.
  double rel_halfwidth() const {
    return stats::relative_halfwidth(tot_.mean(), tot_.stderr_of_mean());
  }

  /// Effective sample size of the weighted POF_tot channel.
  double ess() const { return wtot_.ess(); }

  /// Final estimate. \p strikes normalizes the multiplicity mass and is
  /// recorded verbatim; \p hit_fraction is campaign-level bookkeeping.
  PofEstimate finalize(std::size_t strikes, double hit_fraction) const;

  /// Bit-exact serialization for checkpoint blobs: the raw Welford state
  /// round-trips as IEEE-754 doubles, so a deserialized accumulator merges
  /// identically to the original.
  void write(util::ByteWriter& w) const;
  static PofAccumulator read(util::ByteReader& r);

 private:
  stats::RunningStats tot_;
  stats::RunningStats seu_;
  stats::RunningStats mbu_;
  /// Weighted-Welford shadow of the tot channel: raw (pof, weight) pairs,
  /// for effective-sample-size accounting of importance-sampled runs.
  stats::WeightedRunningStats wtot_;
  std::array<double, kMaxMultiplicity> mult_{};
};

/// Result of one energy point: estimates for every (Vdd, mode).
struct ArrayMcResult {
  std::vector<double> vdds;
  /// est[vdd_index][mode].
  std::vector<std::array<PofEstimate, 2>> est;
  /// Adaptive-stopping state of the run that produced this result: the
  /// configured unit budget, the units actually consumed (== units_total
  /// unless CI-driven stopping converged first), and whether it stopped
  /// early. Serialized with the result so a resumed/cached bin restores the
  /// exact stopping state (docs/statistics.md).
  std::size_t units_total = 0;
  std::size_t units_used = 0;
  bool stopped_early = false;
};

/// Bit-exact ArrayMcResult codec, used for the `array_bin` artifacts
/// through which sweeps cache and resume per energy bin (one blob per bin).
/// Doubles round-trip as raw IEEE-754, so a restored bin is
/// indistinguishable from a recomputed one.
std::vector<std::uint8_t> encode_result(const ArrayMcResult& result);
ArrayMcResult decode_result(util::ByteReader& r);

/// One chunk's worth of accumulated statistics. Produced one per RNG chunk
/// and merged pairwise in chunk-index order (exec::reduce_pairwise), which
/// makes the reduction independent of the thread schedule.
struct McPartial {
  /// acc[vdd_index][mode] (mode: kModeNominal / kModeWithPv).
  std::vector<std::array<PofAccumulator, 2>> acc;
  /// Strikes (histories) with any sensitive deposit.
  std::size_t hits = 0;
  /// Likelihood-ratio-weighted hit mass: Σ w over hitting strikes — equals
  /// `hits` exactly for the unit-weight estimator, and is the unbiased
  /// hit-fraction numerator under importance sampling.
  double weighted_hits = 0.0;

  McPartial() = default;
  explicit McPartial(std::size_t nv) : acc(nv) {}

  /// Merge for exec::parallel_reduce (associative; a absorbs b).
  static McPartial merge(McPartial a, McPartial b);

  /// Checkpoint-blob codec. The raw Welford state round-trips bit-exactly,
  /// so decode(encode(p)) merges identically to p itself — the property the
  /// resume-bit-identity guarantee rests on.
  std::vector<std::uint8_t> encode() const;
  static McPartial decode(const std::vector<std::uint8_t>& blob,
                          std::size_t expected_nv);
};

/// One (species, energy) evaluation point of an array engine. The unified
/// currency of the pipeline layer: SerFlow bins, campaign stage nodes and
/// per-bin artifacts are all keyed by it.
struct EnergyPoint {
  phys::Species species = phys::Species::kProton;
  double e_mev = 0.0;
  /// Optional energy-bin bounds [MeV] for within-bin energy stratification
  /// (stats::SamplingConfig::energy_strata). Both 0 = a point energy: every
  /// unit runs at e_mev exactly, stratification (if configured) is a no-op.
  double e_lo_mev = 0.0;
  double e_hi_mev = 0.0;

  /// Whether the bin bounds describe a usable energy range.
  bool has_range() const {
    return e_lo_mev > 0.0 && e_hi_mev > e_lo_mev;
  }
};

/// Common interface + shared chunked driver of ArrayMc / NeutronArrayMc.
class ArrayEngine {
 public:
  /// \param layout and \param model must outlive the engine.
  ArrayEngine(const sram::ArrayLayout& layout,
              const sram::CellSoftErrorModel& model);
  virtual ~ArrayEngine();

  ArrayEngine(const ArrayEngine&) = delete;
  ArrayEngine& operator=(const ArrayEngine&) = delete;

  /// Unified entry point: run the Monte Carlo at one energy point. Units
  /// (strikes or histories) are processed in fixed-size chunks on the exec
  /// thread pool; chunk *i* draws from stats::Rng::stream(seed, i), so the
  /// result is bit-identical for any thread count. Const and thread-safe:
  /// concurrent calls on one engine (e.g. parallel energy bins) are fine.
  ///
  /// \p run_opts adds checkpoint/cancel behaviour (ckpt::RunOptions): with a
  /// checkpoint path, each chunk's partial is persisted and a resumed run
  /// recomputes only the missing chunks — the pairwise reduction over the
  /// full chunk set makes the result bit-identical to an uninterrupted run.
  /// Cancellation throws util::Cancelled at a chunk boundary.
  ArrayMcResult run_point(const EnergyPoint& point, std::uint64_t seed,
                          const exec::ProgressSink& progress = {},
                          const ckpt::RunOptions& run_opts = {}) const;

  /// Area of the source-sampling plane [nm²]: (W + 2·margin)(H + 2·margin).
  /// This — not the bare array footprint — is the area POF estimates are
  /// normalized to, and therefore the area that enters the FIT integral.
  double sampled_area_nm2() const;

  /// Identity of one run for checkpoint/artifact validation: everything
  /// that decides the numbers (engine config, layout, model fingerprint,
  /// point, seed) and nothing about the schedule (threads, cadence).
  virtual std::uint64_t point_fingerprint(const EnergyPoint& point,
                                          std::uint64_t seed) const = 0;

  /// Units of Monte-Carlo work (strikes or histories) of one run.
  virtual std::size_t units() const = 0;

  const sram::ArrayLayout& layout() const { return *layout_; }
  const sram::CellSoftErrorModel& model() const { return *model_; }

 protected:
  /// Per-worker mutable state: the Transporter keeps internal scratch and
  /// the strike loop reuses per-cell charge slots, so each pool slot gets
  /// its own copy (created lazily on first chunk, on the worker's thread).
  struct WorkerScratch {
    phys::Transporter transporter;
    std::vector<sram::StrikeCharges> cell_charges;
    std::vector<std::uint32_t> touched_cells;
    std::vector<double> pofs;  ///< Per-touched-cell POFs of one strike.
    /// Cluster-path scratch (unused when cluster_surface() is null):
    /// touched cells keyed by (tile id, cell id), the per-tile surface query
    /// and the returned flip-count distribution.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tile_order;
    std::vector<sram::ClusterPofSurface::CellCharge> cluster_query;
    std::vector<double> cluster_dist;

    WorkerScratch(const sram::ArrayLayout& layout,
                  const phys::Transporter::Config& tc);
  };

  // --- engine-specific knobs the shared driver needs -----------------------

  /// Units per deterministic RNG chunk.
  virtual std::size_t chunk_size() const = 0;
  /// Requested thread budget (0 = auto).
  virtual std::size_t threads() const = 0;
  /// Straggling model for the shared Transporter scratch.
  virtual phys::StragglingModel straggling() const = 0;
  /// Engine name for error messages ("ArrayMc" / "NeutronArrayMc").
  virtual const char* kind() const = 0;
  /// Progress-phase label ("strikes" / "histories").
  virtual const char* unit_label() const = 0;
  /// obs span/counter names (static storage — string literals).
  virtual const char* span_name() const = 0;
  virtual const char* runs_counter() const = 0;
  virtual const char* units_counter() const = 0;
  /// Lateral margin of the source-sampling plane [nm].
  virtual double source_margin_nm() const = 0;
  /// Cluster-level POF surface of the correlated multi-node charge
  /// collection mode, or nullptr for the independent per-cell path. When
  /// non-null, score_strike/score_weighted_history dispatch to
  /// score_clustered() instead of the per-cell LUT loop; the null default
  /// keeps every existing engine byte-identical. The surface may be shared
  /// across engines/threads (it locks internally) and must stay alive for
  /// the engine's lifetime.
  virtual sram::ClusterPofSurface* cluster_surface() const { return nullptr; }
  /// CI-driven early-stopping knobs (disabled by default). When enabled,
  /// run_point() executes chunks in deterministic geometric rounds
  /// (ckpt::round_boundaries) and stops at the first boundary where every
  /// (vdd, mode) accumulator's POF_tot 95% CI is within ci_stop().target
  /// relative half-width — a pure function of the merged chunk prefix, so
  /// the decision is identical at any thread/worker count and on resume.
  virtual const stats::CiStopConfig& ci_stop() const = 0;

  /// Simulate units [r.begin, r.end) of chunk r.index into \p part, drawing
  /// only from \p rng (= stats::Rng::stream(seed, r.index)) — plus, for QMC
  /// configurations, from point sets derived from \p seed and the *global*
  /// unit index (both invariant to chunking, preserving the determinism
  /// contract).
  virtual void simulate_chunk(const exec::ChunkRange& r,
                              const EnergyPoint& point, std::uint64_t seed,
                              stats::Rng& rng, WorkerScratch& ws,
                              McPartial& part) const = 0;

  // --- shared per-strike helpers (identical in both engines) ---------------

  /// Reset the per-cell charge slots touched by the previous strike.
  void begin_strike(WorkerScratch& ws) const;

  /// Fold a transported track's fin deposits into the per-cell sensitive
  /// charges (paper steps 2-3), tracking touched cells.
  void add_deposits(const phys::TrackResult& track, WorkerScratch& ws) const;

  /// Steps 4-5, unweighted (charged particles): cell POFs from the LUTs,
  /// combined via Eqs. 4-6, for every supply voltage and both PV modes.
  void score_strike(WorkerScratch& ws, McPartial& part) const;

  /// Weighted per-incident-neutron estimator: POFs scaled by \p weight, the
  /// n >= 1 multiplicity bins carry the interaction weight and the no-flip
  /// bin absorbs the rest so each history still contributes unit mass.
  void score_weighted_history(WorkerScratch& ws, McPartial& part,
                              double weight) const;

  /// Correlated scoring path (cluster_surface() non-null): touched cells
  /// group by layout tile; singleton tiles keep the per-cell LUT arithmetic
  /// while multi-cell tiles are priced by one joint flip-count distribution
  /// from the surface, convolved (saturating) into the multiplicity
  /// histogram. \p weighted selects the Horvitz–Thompson accumulation of
  /// score_weighted_history; unweighted calls pass weight = 1. Consumes no
  /// strike RNG, so chunk determinism is untouched.
  void score_clustered(sram::ClusterPofSurface& surface, WorkerScratch& ws,
                       McPartial& part, double weight, bool weighted) const;

  /// Supply voltages of the model (cached at construction).
  const std::vector<double>& vdds() const { return vdds_; }

 private:
  const sram::ArrayLayout* layout_;
  const sram::CellSoftErrorModel* model_;
  std::vector<double> vdds_;
};

/// Hash an array layout's result-relevant identity (dimensions, footprint,
/// stored bit pattern) — the shared tail of every engine/sweep fingerprint.
void hash_layout(util::Fnv1a& h, const sram::ArrayLayout& layout);

}  // namespace finser::core
