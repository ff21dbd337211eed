#pragma once
/// \file array_engine.hpp
/// \brief Common run loop and strike scoring of the array-level Monte Carlos.
///
/// Both array engines — the charged-particle ArrayMc (direct ionization) and
/// the forced-interaction NeutronArrayMc (indirect ionization) — reduce the
/// same loop shape: N independent strike/history units, processed in
/// fixed-size RNG chunks on the exec thread pool, accumulated into one
/// PofAccumulator per (vdd, mode) and merged pairwise in chunk-index order.
/// ArrayEngine holds that whole loop — worker-scratch management, the
/// one round-scheduled execution path for fixed and adaptive budgets, the
/// partial merge, and the final estimate — and the one scoring routine that
/// prices a strike's deposits (score). An engine hands the base class its
/// fixed values once, as an ArrayEngine::Spec, and supplies only the
/// per-chunk physics (simulate_chunk) and the fingerprint of a run.
///
/// The driver preserves the exec-layer determinism contract verbatim: chunk
/// *i* consumes stats::Rng::stream(seed, i) and nothing else, partials merge
/// in chunk-index order, so results are bit-identical at any thread count
/// (docs/parallelism.md).
///
/// The strike loop does nothing per strike that a run can do once: the
/// PofTable of each supply voltage is resolved once at construction, and
/// each worker's scratch holds the TrackResult the Transporter fills, so a
/// strike allocates nothing once the worker's buffers have grown.
///
/// ArrayEngine is also the unit the pipeline layer schedules: a campaign
/// stage node is "one engine × one energy point", and its `array_bin`
/// artifact is keyed by point_fingerprint (docs/architecture.md).

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "finser/core/pof_combine.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/exec/thread_pool.hpp"
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

/// Merge-friendly accumulator behind one PofEstimate: three Welford
/// RunningStats channels (tot/seu/mbu), the weight sums Σw and Σw² of the
/// effective sample size, and the multiplicity mass. Chunked engines keep
/// one accumulator per (vdd, mode) per chunk and merge the partials
/// pairwise in chunk order — the merge is exact for the mean and the sums
/// and numerically stable for the variance, so the parallel reduction
/// reproduces the serial statistics.
class PofAccumulator {
 public:
  using Multiplicity = std::array<double, kMaxMultiplicity>;

  /// Add one strike with likelihood-ratio \p weight (finite, >= 0; unit
  /// weight for analog strikes). The POF channels receive weight·pof (the
  /// Horvitz–Thompson estimator the SE machinery already understands), the
  /// bins n >= 1 weight·dist[n], and the ESS sums w and w². Bin 0 keeps the
  /// strike's unit mass: a unit-weight strike adds dist[0] (for independent
  /// cells the product Π(1 − p)), a \p weighted one
  /// 1 − Σ_{n>=1} weight·dist[n]. The two need not round alike even at
  /// weight 1 (POFs {0.3, 0.6}: 0.27999999999999997 against 0.28), so the
  /// caller's choice fixes result bits: ArrayMc weights the strikes whose
  /// weight is not exactly 1, NeutronArrayMc every history.
  void add(const CombinedPof& pof, const Multiplicity& dist, double weight,
           bool weighted);

  /// Add one strike that touched no sensitive cell: a zero POF and all of
  /// its mass in bin 0 — bit for bit add({}, {1, 0, …}, weight, either).
  void add_miss(double weight);

  /// Fold \p other in (Chan et al. parallel Welford merge; sums add).
  void merge(const PofAccumulator& other);

  /// Number of strikes accumulated, zero-weight ones included.
  std::size_t count() const { return tot_.count(); }

  /// Relative half-width of the 95% CI on the POF_tot channel — the
  /// quantity the adaptive stopping rule drives to `sampling.ci_target`.
  double rel_halfwidth() const {
    return stats::relative_halfwidth(tot_.mean(), tot_.stderr_of_mean());
  }

  /// Effective sample size (Σw)² / Σw²: count() for unit weights, 0 before
  /// any positive weight. Zero-weight strikes count toward count() only.
  double ess() const {
    return sum_w2_ > 0.0 ? sum_w_ * sum_w_ / sum_w2_ : 0.0;
  }

  /// Final estimate. \p strikes normalizes the multiplicity mass and is
  /// recorded verbatim; \p hit_fraction is campaign-level bookkeeping.
  PofEstimate finalize(std::size_t strikes, double hit_fraction) const;

 private:
  stats::RunningStats tot_;
  stats::RunningStats seu_;
  stats::RunningStats mbu_;
  double sum_w_ = 0.0;
  double sum_w2_ = 0.0;
  Multiplicity mult_{};
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
  /// Likelihood-ratio-weighted hit mass: Σ w over the strikes (histories)
  /// with any sensitive deposit — their exact count for the unit-weight
  /// estimator, and the unbiased hit-fraction numerator under importance
  /// sampling.
  double weighted_hits = 0.0;

  McPartial() = default;
  explicit McPartial(std::size_t nv) : acc(nv) {}

  /// Merge for exec::reduce_pairwise (associative; a absorbs b).
  static McPartial merge(McPartial a, McPartial b);
};

/// One (species, energy) evaluation point of an array engine. The unified
/// currency of the pipeline layer: SerFlow bins, campaign stage nodes and
/// per-bin artifacts are all keyed by it.
struct EnergyPoint {
  phys::Species species = phys::Species::kProton;
  double e_mev = 0.0;  ///< Every unit runs at this energy exactly.
};

/// Shared chunked run loop and strike scoring of ArrayMc / NeutronArrayMc.
class ArrayEngine {
 public:
  virtual ~ArrayEngine();

  ArrayEngine(const ArrayEngine&) = delete;
  ArrayEngine& operator=(const ArrayEngine&) = delete;

  /// Unified entry point: run the Monte Carlo at one energy point. Units
  /// (strikes or histories) are processed in fixed-size chunks on the exec
  /// thread pool; chunk *i* draws from stats::Rng::stream(seed, i), so the
  /// result is bit-identical for any thread count. Const and thread-safe:
  /// concurrent calls on one engine (e.g. parallel energy bins) are fine.
  ///
  /// A fixed budget runs every chunk in one round; a CI target (Spec::ci)
  /// runs geometric rounds that may stop early. Either way the chunks go
  /// through the one round scheduler (ckpt/scheduler.hpp).
  /// A non-null \p cancel stops the run at a chunk boundary with
  /// util::Cancelled; a token that never fires changes no bit.
  ArrayMcResult run_point(const EnergyPoint& point, std::uint64_t seed,
                          const exec::ProgressSink& progress = {},
                          const exec::CancelToken* cancel = nullptr) const;

  /// Area of the source-sampling plane [nm²]: (W + 2·margin)(H + 2·margin).
  /// This — not the bare array footprint — is the area POF estimates are
  /// normalized to, and therefore the area that enters the FIT integral.
  double sampled_area_nm2() const;

  /// Identity of one run for artifact validation: everything that decides
  /// the numbers (engine config, layout, model fingerprint, point, seed) and
  /// nothing about the schedule (threads, cadence).
  virtual std::uint64_t point_fingerprint(const EnergyPoint& point,
                                          std::uint64_t seed) const = 0;

  const sram::ArrayLayout& layout() const { return *layout_; }
  const sram::CellSoftErrorModel& model() const { return *model_; }

 protected:
  /// What an engine tells the shared run loop: values fixed for the
  /// engine's lifetime, handed to the constructor once.
  struct Spec {
    const char* kind;        ///< Engine name for error messages.
    const char* unit_label;  ///< Progress phase ("strikes" / "histories").
    /// obs span and counter names (string literals: static storage).
    const char* span_name;
    const char* runs_counter;
    const char* units_counter;
    std::size_t units;       ///< Strikes or histories per run.
    std::size_t chunk_size;  ///< Units per deterministic RNG chunk.
    std::size_t threads;     ///< Requested thread budget (0 = auto).
    phys::StragglingModel straggling;  ///< For the worker Transporters.
    double source_margin_nm;  ///< Lateral margin of the source plane.
    /// CI-driven early stopping. When enabled, run_point() executes chunks
    /// in deterministic geometric rounds (ckpt::round_boundaries) and stops
    /// at the first boundary where every (vdd, mode) accumulator's POF_tot
    /// 95% CI is within ci.target relative half-width — a pure function of
    /// the merged chunk prefix, so the decision is identical at any
    /// thread/worker count.
    stats::CiStopConfig ci;
    /// Cluster-level POF surface of the correlated multi-node charge
    /// collection mode, or nullptr for the independent per-cell path
    /// (see score). The surface may be shared across engines and threads
    /// (it locks internally) and must outlive the engine.
    sram::ClusterPofSurface* cluster_surface;
  };

  /// \param layout and \param model must outlive the engine.
  ArrayEngine(const sram::ArrayLayout& layout,
              const sram::CellSoftErrorModel& model, const Spec& spec);

  /// Per-worker mutable state: the Transporter keeps internal scratch and
  /// the strike loop reuses per-cell charge slots and one track buffer, so
  /// each pool slot gets its own copy (created lazily on first chunk, on the
  /// worker's thread) and a strike allocates nothing once the buffers have
  /// grown to fit. Every copy's Transporter shares the layout's one
  /// read-only fin index.
  struct WorkerScratch {
    phys::Transporter transporter;
    phys::TrackResult track;  ///< Filled by transporter.transport per track.
    std::vector<sram::StrikeCharges> cell_charges;
    std::vector<std::uint32_t> touched_cells;
    std::vector<double> pofs;  ///< Per-cell POFs of one strike.
    /// Touched cells keyed by (group, cell id): the layout tile with a
    /// cluster surface, else one group per cell in deposit order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tile_order;
    /// Cluster path: one multi-cell tile's surface query and the returned
    /// flip-count distribution.
    std::vector<sram::ClusterPofSurface::CellCharge> cluster_query;
    std::vector<double> cluster_dist;

    WorkerScratch(const sram::ArrayLayout& layout,
                  const phys::Transporter::Config& tc);
  };

  /// Simulate units [r.begin, r.end) of chunk r.index into \p part, drawing
  /// only from \p rng (= stats::Rng::stream(seed, r.index)) — plus, for QMC
  /// configurations, from point sets derived from \p seed and the *global*
  /// unit index (both invariant to chunking, preserving the determinism
  /// contract).
  virtual void simulate_chunk(const exec::ChunkRange& r,
                              const EnergyPoint& point, std::uint64_t seed,
                              stats::Rng& rng, WorkerScratch& ws,
                              McPartial& part) const = 0;

  // --- shared per-strike steps (identical in both engines) -----------------

  /// Reset the per-cell charge slots touched by the previous strike.
  void begin_strike(WorkerScratch& ws) const;

  /// Fold a transported track's fin deposits into the per-cell sensitive
  /// charges (paper steps 2-3), tracking touched cells.
  void add_deposits(const phys::TrackResult& track, WorkerScratch& ws) const;

  /// Steps 4-5: price the strike (or neutron history) whose deposits are in
  /// \p ws for every supply voltage and both PV modes, and add it to
  /// part.acc with likelihood-ratio \p weight (\p weighted: see
  /// PofAccumulator::add). A strike that touched no sensitive cell adds a
  /// zero POF before any table work. Otherwise each touched cell's POF
  /// comes from the LUTs, and independent cells combine by Eqs. 4-6. With
  /// a cluster surface the touched cells group by layout tile: a singleton
  /// tile keeps its LUT POF, each multi-cell tile contributes one joint
  /// flip-count distribution from the surface, convolved (saturating) into
  /// the multiplicity vector, and the POFs read off that vector
  /// (tot = 1 − P(0), seu = P(1)). Consumes no strike RNG, so chunk
  /// determinism is untouched.
  void score(WorkerScratch& ws, McPartial& part, double weight,
             bool weighted) const;

  /// Supply voltages of the model (cached at construction).
  const std::vector<double>& vdds() const { return vdds_; }

 private:
  const sram::ArrayLayout* layout_;
  const sram::CellSoftErrorModel* model_;
  Spec spec_;
  std::vector<double> vdds_;
  /// tables_[v] = &model.at_vdd(vdds_[v]), resolved once at construction.
  std::vector<const sram::PofTable*> tables_;
};

/// Hash an array layout's result-relevant identity (dimensions, footprint,
/// stored bit pattern) — the shared tail of every engine/sweep fingerprint.
void hash_layout(util::Fnv1a& h, const sram::ArrayLayout& layout);

}  // namespace finser::core
