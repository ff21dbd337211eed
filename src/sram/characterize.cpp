#include "finser/sram/characterize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {

namespace {

/// Bumped whenever the characterization algorithm's RNG-consumption scheme
/// changes (v2: counter-based per-stage / per-work-item streams); stale disk
/// caches from older schemes then fail fingerprint validation and rebuild.
constexpr std::uint64_t kSchemeVersion = 2;

/// Stream-family ids under one per-voltage seed (stats::Rng::derive_seed).
constexpr std::uint64_t kStreamSingleBase = 1;  // which = 0..2 -> 1..3.
constexpr std::uint64_t kStreamPairBase = 4;    // pair p = 0..2 -> 4..6.
constexpr std::uint64_t kStreamTriple = 7;

/// PV samples per current whose critical charge the plain search finds: the
/// prefix the bracket predictor is fitted on. A fixed prefix keeps the
/// predictor, and with it every transient count, independent of the thread
/// count.
constexpr std::size_t kPrefixSamples = 32;

/// Half-width of a predicted bracket, in residual standard deviations.
constexpr double kBracketSigmas = 4.0;

/// Monte Carlo samples per grid task: a near-boundary cell's sample ladder
/// runs as sub-chains this long, so the grid phase's tasks are short enough
/// to keep every lane busy until the list runs dry.
constexpr std::size_t kGridChain = 8;

/// A phase that stopped early (cancel token fired) holds partial results —
/// the only safe continuation is to abandon them. Finished voltages survive
/// as `pof_table` artifacts when the caller persists them
/// (core::load_or_characterize); this one restarts on resume.
void require_complete(bool completed) {
  if (!completed) {
    throw util::Cancelled(
        "characterization cancelled at a task boundary; the in-progress "
        "voltage is discarded");
  }
}

StrikeCharges scale_direction(const StrikeCharges& dir, double s) {
  return StrikeCharges{dir.i1_fc * s, dir.i2_fc * s, dir.i3_fc * s};
}

/// Charge of current \p which (0..2 for I1..I3).
double& charge_of(StrikeCharges& c, std::size_t which) {
  switch (which) {
    case 0: return c.i1_fc;
    case 1: return c.i2_fc;
    case 2: return c.i3_fc;
    default:
      throw util::InvalidArgument("charge_of: current index out of range");
  }
}

StrikeCharges unit_direction(std::size_t which) {
  StrikeCharges c;
  charge_of(c, which) = 1.0;
  return c;
}

/// Sentinel for a PV sample whose solve diverged: excluded from the CDF,
/// never guessed as flip or no-flip.
constexpr double kFailedSample = -1.0;

/// bisect_critical_scale()'s search, plain or from a predicted bracket (see
/// characterize.hpp for why both return the same bits), as a chain of
/// strike probes: probe() names the scale to simulate next and record()
/// takes its verdict. The scalar entry points and the characterizer's lane
/// tasks both drive it, so every critical charge comes from this one search.
class Bisection {
 public:
  Bisection() = default;  ///< A finished search.

  Bisection(double s_max, double tol)
      : s_max_(s_max), tol_(tol), hi_(s_max), step_(Step::kTop) {}

  Bisection(double s_max, double tol, const ScaleBracket& predicted)
      : Bisection(s_max, tol) {
    predicted_ = true;
    while (hi_ - lo_ > tol_) {
      const double mid = 0.5 * (lo_ + hi_);
      if (predicted.hi <= mid) {
        hi_ = mid;
      } else if (predicted.lo >= mid) {
        lo_ = mid;
      } else {
        break;
      }
    }
  }

  bool finished() const { return step_ == Step::kDone; }
  double result() const { return result_; }
  /// A predicted search whose node failed verification.
  bool missed() const { return missed_; }

  /// Scale of the next probe (only while !finished()).
  double probe() const {
    switch (step_) {
      case Step::kTop: return hi_;
      case Step::kFloor: return lo_;
      default: return 0.5 * (lo_ + hi_);
    }
  }

  void record(bool flipped) {
    switch (step_) {
      case Step::kTop:
        if (!flipped) {
          if (hi_ < s_max_) {
            restart_plain();
          } else {
            result_ = SingleCdf::kNeverFlips;
            step_ = Step::kDone;
          }
        } else if (predicted_ && lo_ > 0.0) {
          step_ = Step::kFloor;
        } else {
          halve_or_finish();
        }
        return;
      case Step::kFloor:
        if (flipped) {
          restart_plain();
        } else {
          halve_or_finish();
        }
        return;
      case Step::kHalve: {
        const double mid = 0.5 * (lo_ + hi_);
        if (flipped) {
          hi_ = mid;
        } else {
          lo_ = mid;
        }
        halve_or_finish();
        return;
      }
      case Step::kDone:
        return;
    }
  }

 private:
  enum class Step : std::uint8_t { kTop, kFloor, kHalve, kDone };

  void halve_or_finish() {
    if (hi_ - lo_ > tol_) {
      step_ = Step::kHalve;
    } else {
      result_ = hi_;
      step_ = Step::kDone;
    }
  }

  void restart_plain() {
    predicted_ = false;
    missed_ = true;
    lo_ = 0.0;
    hi_ = s_max_;
    step_ = Step::kTop;
  }

  double s_max_ = 0.0;
  double tol_ = 0.0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  double result_ = 0.0;
  Step step_ = Step::kDone;
  bool predicted_ = false;
  bool missed_ = false;
};

/// Drive \p search with scalar simulate() calls; counts them in
/// \p transients. A failed solve throws, as simulate() does.
double run_search(StrikeSimulator& sim, const StrikeCharges& direction,
                  const DeltaVt& delta_vt, spice::PulseShape::Kind kind,
                  Bisection& search, std::size_t& transients) {
  while (!search.finished()) {
    const bool flipped =
        sim.simulate(scale_direction(direction, search.probe()), delta_vt,
                     kind)
            .flipped;
    ++transients;
    search.record(flipped);
  }
  return search.result();
}

/// FNV-1a over raw double bytes.
void hash_doubles(std::uint64_t& h, const double* data, std::size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
}

void hash_value(std::uint64_t& h, double v) { hash_doubles(h, &v, 1); }

}  // namespace

std::uint64_t CharacterizerConfig::fingerprint(const CellDesign& design) const {
  std::uint64_t h = 14695981039346656037ull;
  hash_value(h, static_cast<double>(kSchemeVersion));
  for (double v : vdds) hash_value(h, v);
  hash_value(h, static_cast<double>(pv_samples_single));
  hash_value(h, static_cast<double>(pair_grid_points));
  hash_value(h, static_cast<double>(triple_grid_points));
  hash_value(h, static_cast<double>(pv_samples_grid));
  hash_value(h, q_max_fc);
  hash_value(h, bisect_tol_fc);
  hash_value(h, static_cast<double>(static_cast<int>(pulse_kind)));
  hash_value(h, static_cast<double>(seed));
  // `threads` is intentionally absent: it never changes the model.

  const spice::FinFetModel& n = design.nfet ? *design.nfet : spice::default_nfet();
  const spice::FinFetModel& p = design.pfet ? *design.pfet : spice::default_pfet();
  for (const spice::FinFetModel* m : {&n, &p}) {
    hash_value(h, m->vt0);
    hash_value(h, m->n);
    hash_value(h, m->kp);
    hash_value(h, m->dibl);
    hash_value(h, m->lambda);
  }
  hash_value(h, design.nfin_pd);
  hash_value(h, design.nfin_pg);
  hash_value(h, design.nfin_pu);
  hash_value(h, design.cnode_f);
  hash_value(h, design.sigma_vt);
  hash_value(h, design.temp_k);
  hash_value(h, static_cast<double>(static_cast<int>(design.topology)));
  hash_value(h, design.tech.w_fin_nm);
  hash_value(h, design.tech.l_fin_nm);
  hash_value(h, design.tech.h_fin_nm);
  hash_value(h, design.tech.electron_mobility_cm2_vs);
  return h;
}

double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind) {
  FINSER_REQUIRE(s_max > 0.0 && tol > 0.0,
                 "bisect_critical_scale: bad bracket parameters");
  Bisection search(s_max, tol);
  std::size_t transients = 0;
  return run_search(sim, direction, delta_vt, kind, search, transients);
}

double bisect_critical_scale(StrikeSimulator& sim, const StrikeCharges& direction,
                             const DeltaVt& delta_vt, double s_max, double tol,
                             spice::PulseShape::Kind kind,
                             const ScaleBracket& predicted, BisectCost* cost) {
  FINSER_REQUIRE(s_max > 0.0 && tol > 0.0,
                 "bisect_critical_scale: bad bracket parameters");
  Bisection search(s_max, tol, predicted);
  std::size_t transients = 0;
  const double s = run_search(sim, direction, delta_vt, kind, search, transients);
  if (cost != nullptr) {
    cost->transients = transients;
    cost->hit = !search.missed();
  }
  return s;
}

CellCharacterizer::CellCharacterizer(const CellDesign& design,
                                     const CharacterizerConfig& config)
    : design_(design), config_(config) {
  FINSER_REQUIRE(!config_.vdds.empty(), "CellCharacterizer: no supply voltages");
  // make_charge_axis() needs six points: fail here, not after the
  // single-current transients.
  FINSER_REQUIRE(config_.pair_grid_points >= 6 && config_.triple_grid_points >= 6,
                 "CellCharacterizer: grids need >= 6 points per axis");
  FINSER_REQUIRE(std::isfinite(config_.q_max_fc) && config_.q_max_fc > 0.0,
                 "CellCharacterizer: q_max must be finite and positive");
  FINSER_REQUIRE(std::isfinite(config_.bisect_tol_fc) && config_.bisect_tol_fc > 0.0,
                 "CellCharacterizer: bisect_tol must be finite and positive");
  // A NaN would disable the failure gate (frac > NaN is false).
  FINSER_REQUIRE(config_.max_failure_fraction >= 0.0 &&
                     config_.max_failure_fraction <= 1.0,
                 "CellCharacterizer: max_failure_fraction must be in [0, 1]");
}

DeltaVt CellCharacterizer::sample_delta_vt(stats::Rng& rng) const {
  DeltaVt dvt{};
  for (double& v : dvt) v = rng.normal(0.0, design_.sigma_vt);
  return dvt;
}

util::Axis make_charge_axis(double qc_lo_fc, double qc_hi_fc, std::size_t points,
                            double q_max_fc) {
  FINSER_REQUIRE(points >= 6, "make_charge_axis: need >= 6 points");
  FINSER_REQUIRE(q_max_fc > 0.0, "make_charge_axis: q_max must be positive");
  // Fall back to a mid-range dense band when the cell never flipped.
  if (!(qc_lo_fc > 0.0) || qc_lo_fc >= q_max_fc) {
    qc_lo_fc = 0.25 * q_max_fc;
    qc_hi_fc = 0.5 * q_max_fc;
  }
  qc_hi_fc = std::min(std::max(qc_hi_fc, qc_lo_fc), q_max_fc);

  double dense_lo = std::max(0.4 * qc_lo_fc, 1e-4 * q_max_fc);
  double dense_hi = std::min(1.7 * qc_hi_fc, 0.95 * q_max_fc);
  if (dense_hi <= dense_lo) dense_hi = std::min(2.0 * dense_lo, 0.95 * q_max_fc);

  const std::size_t n_dense = points - 2;  // All but {0} and {q_max}.
  std::vector<double> pts;
  pts.reserve(points);
  pts.push_back(0.0);
  for (std::size_t i = 0; i < n_dense; ++i) {
    pts.push_back(dense_lo + (dense_hi - dense_lo) * static_cast<double>(i) /
                                 static_cast<double>(n_dense - 1));
  }
  pts.push_back(q_max_fc);
  // Guard monotonicity against degenerate parameter combinations.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i] <= pts[i - 1]) pts[i] = pts[i - 1] + 1e-6 * q_max_fc;
  }
  return util::Axis(std::move(pts));
}

namespace {

// ---------------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------------

/// One POF grid — a current pair or the triple — across phases 1 and 2. Its
/// points are indexed row-major over `dims` axes; each boundary "line" fixes
/// every coordinate but the last and searches the last current.
struct GridRun {
  const util::Axis* axis = nullptr;
  std::size_t dims = 2;
  std::array<std::size_t, 3> currents{};  ///< Current of each dimension.
  std::uint64_t seed = 0;                 ///< Stream seed of its MC.
  std::size_t boundary_task = 0;  ///< Its first boundary search (phase 1).
  std::vector<double> nominal;    ///< Nominal flip map (0 or 1 per point).
  std::vector<std::size_t> cells;  ///< Near-boundary points.
  std::size_t grid_task = 0;      ///< Its first MC task (phase 2).

  std::size_t np() const { return axis->size(); }
  std::size_t lines() const { return nominal.size() / np(); }

  /// Charges at grid point \p point.
  StrikeCharges charges_at(std::size_t point) const {
    StrikeCharges c;
    for (std::size_t d = dims; d-- > 0; point /= np()) {
      charge_of(c, currents[d]) = (*axis)[point % np()];
    }
    return c;
  }
};

GridRun make_grid(const util::Axis& axis, std::size_t dims,
                  std::array<std::size_t, 3> currents, std::uint64_t seed) {
  GridRun g;
  g.axis = &axis;
  g.dims = dims;
  g.currents = currents;
  g.seed = seed;
  std::size_t points = 1;
  for (std::size_t d = 0; d < dims; ++d) points *= axis.size();
  g.nominal.assign(points, 0.0);
  return g;
}

/// Grid points within Chebyshev distance \p radius of a point with the other
/// nominal verdict: where the PV Monte Carlo runs (everything else is
/// deterministically 0 or 1).
std::vector<std::size_t> near_boundary_cells(const GridRun& g,
                                             std::ptrdiff_t radius) {
  const auto snp = static_cast<std::ptrdiff_t>(g.np());
  std::vector<std::size_t> cells;
  for (std::size_t p = 0; p < g.nominal.size(); ++p) {
    std::array<std::ptrdiff_t, 3> at{};
    for (std::size_t d = g.dims, rest = p; d-- > 0; rest /= g.np()) {
      at[d] = static_cast<std::ptrdiff_t>(rest % g.np());
    }
    // Walk the (2·radius + 1)^dims neighbourhood as an odometer.
    std::array<std::ptrdiff_t, 3> off{};
    off.fill(-radius);
    bool near = false;
    for (bool more = true; more && !near;) {
      std::size_t q = 0;
      bool inside = true;
      for (std::size_t d = 0; d < g.dims && inside; ++d) {
        const std::ptrdiff_t v = at[d] + off[d];
        inside = v >= 0 && v < snp;
        q = q * g.np() + static_cast<std::size_t>(v);
      }
      near = inside && g.nominal[q] != g.nominal[p];
      more = false;
      for (std::size_t d = g.dims; d-- > 0 && !more;) {
        more = ++off[d] <= radius;
        if (!more) off[d] = -radius;
      }
    }
    if (near) cells.push_back(p);
  }
  return cells;
}

/// Smallest spacing of an axis (controls the MC dilation radius).
double min_spacing(const util::Axis& axis) {
  double dq = axis.back() - axis.front();
  for (std::size_t i = 1; i < axis.size(); ++i) {
    dq = std::min(dq, axis[i] - axis[i - 1]);
  }
  return dq;
}

// ---------------------------------------------------------------------------
// Tasks: the units of work every lane of every worker drains
// ---------------------------------------------------------------------------

/// The work a task's strikes count toward (sram.characterize.transients.*).
enum class Stage : std::uint8_t { kNominal, kSingle, kBoundary, kGrid };
constexpr std::size_t kStageCount = 4;

/// One unit of characterization work: a chain of strikes that one lane runs
/// from start to finish, each chosen from the verdicts before it. The inputs
/// are set when a phase's list is built; the outputs are written only by the
/// lane that runs the task and read once the phase has drained, so no result
/// depends on which worker or lane ran it, or when.
struct Task {
  enum class Kind : std::uint8_t {
    kBisect,    ///< Critical scale of current `current` at `dvt`.
    kBoundary,  ///< First flipping point of `grid`'s line at `point`.
    kGrid,      ///< Samples [first, first + count) of `grid`'s cell `point`.
  };
  Kind kind = Kind::kBisect;
  Stage stage = Stage::kSingle;
  bool predicted = false;        ///< kBisect: start from `bracket`.
  std::uint8_t current = 0;      ///< kBisect: index of the current.
  std::uint32_t point = 0;       ///< kBoundary / kGrid: grid point.
  std::uint32_t first = 0;       ///< kGrid.
  std::uint32_t count = 0;       ///< kGrid.
  const GridRun* grid = nullptr;  ///< kBoundary / kGrid.
  const DeltaVt* dvt = nullptr;  ///< kBisect: the sample's shifts; null: nominal.
  ScaleBracket bracket;          ///< kBisect, when `predicted`.

  /// Every strike of the task runs at ΔVt = 0.
  bool nominal() const {
    return kind == Kind::kBoundary || (kind == Kind::kBisect && dvt == nullptr);
  }

  // --- Outputs -------------------------------------------------------------
  bool failed = false;           ///< kBisect / kBoundary: a strike failed…
  std::unique_ptr<std::string> error;  ///< …with this text.
  std::uint32_t first_flip = 0;  ///< kBoundary.
  std::uint32_t flips = 0;       ///< kGrid: flipping samples.
  std::uint32_t ok = 0;          ///< kGrid: samples whose solve succeeded.
  double qcrit = 0.0;  ///< kBisect: scale, kNeverFlips or kFailedSample.
};

Task bisect_task(Stage stage, std::size_t current, const DeltaVt* dvt) {
  Task t;
  t.stage = stage;
  t.current = static_cast<std::uint8_t>(current);
  t.dvt = dvt;
  return t;
}

Task grid_task(Task::Kind kind, const GridRun& grid, std::size_t point) {
  Task t;
  t.kind = kind;
  t.stage = kind == Task::Kind::kBoundary ? Stage::kBoundary : Stage::kGrid;
  t.grid = &grid;
  t.point = static_cast<std::uint32_t>(point);
  return t;
}

/// One worker's lanes draining a phase: the StrikeFeed \p sim runs. A lane
/// holds one task at a time; when the task needs no further strike the lane
/// claims the next one from the phase's shared cursor. A nominal task's
/// first strike takes the voltage's nominal hold state, \p nominal, which
/// is solved once before the phases and only read here.
class PhaseFeed final : public StrikeFeed {
 public:
  PhaseFeed(std::vector<Task>& tasks, exec::TaskCursor& cursor,
            const CellCharacterizer& ch, StrikeSimulator& sim,
            const StrikeSimulator::HoldState& nominal)
      : tasks_(tasks), cursor_(cursor), ch_(ch), sim_(sim), nominal_(nominal) {}

  /// Count the strikes this worker ran per stage, and its predicted
  /// bisections that verified their bracket or fell back to the plain one.
  ~PhaseFeed() {
    FINSER_OBS_COUNT("sram.characterize.transients.nominal", transients_[0]);
    FINSER_OBS_COUNT("sram.characterize.transients.single", transients_[1]);
    FINSER_OBS_COUNT("sram.characterize.transients.boundary", transients_[2]);
    FINSER_OBS_COUNT("sram.characterize.transients.grid", transients_[3]);
    FINSER_OBS_COUNT("sram.characterize.bracket_hits", hits_);
    FINSER_OBS_COUNT("sram.characterize.bracket_misses", misses_);
  }

  PhaseFeed(const PhaseFeed&) = delete;
  PhaseFeed& operator=(const PhaseFeed&) = delete;

  bool next(std::size_t lane, StrikeSimulator::Strike& strike) override {
    Lane& l = lanes_[lane];
    if (l.task != nullptr && advance(l, strike)) return true;
    std::size_t i = 0;
    while (cursor_.next(i)) {
      start(l, tasks_[i]);
      if (advance(l, strike)) {
        strike.new_task = true;
        if (tasks_[i].nominal()) strike.hold = &nominal_;
        return true;
      }
    }
    l.task = nullptr;
    return false;
  }

  void done(std::size_t lane,
            const StrikeSimulator::LaneOutcome& outcome) override {
    Lane& l = lanes_[lane];
    Task& t = *l.task;
    ++transients_[static_cast<std::size_t>(t.stage)];
    switch (t.kind) {
      case Task::Kind::kBisect:
      case Task::Kind::kBoundary:
        if (outcome.failed) {
          t.failed = true;
          t.error = std::make_unique<std::string>(outcome.error);
        } else if (t.kind == Task::Kind::kBisect) {
          l.search.record(outcome.outcome.flipped);
        } else if (outcome.outcome.flipped) {
          l.hi = l.mid;
        } else {
          l.lo = l.mid + 1;
        }
        return;
      case Task::Kind::kGrid:
        // A failed sample is just not tallied: its draws were consumed, so
        // the cell's later samples are unshifted.
        if (!outcome.failed) {
          ++t.ok;
          if (outcome.outcome.flipped) ++t.flips;
        }
        return;
    }
  }

 private:
  /// kGrid: no hold state solved ahead for the sample.
  static constexpr std::uint8_t kNoHold = 0xFF;

  /// A task in progress in one lane.
  struct Lane {
    Task* task = nullptr;
    Bisection search;              ///< kBisect.
    std::size_t lo = 0, hi = 0;    ///< kBoundary: open column range.
    std::size_t mid = 0;           ///< kBoundary: the column in flight.
    std::uint32_t left = 0;        ///< kGrid: samples still to run.
    std::array<DeltaVt, kGridChain> dvts;  ///< kGrid: the samples' shifts.
    /// kGrid: each sample's index into `holds`, or kNoHold.
    std::array<std::uint8_t, kGridChain> hold_of{};
    std::array<StrikeSimulator::HoldState, kGridChain> holds;  ///< kGrid.
  };

  void start(Lane& l, Task& t) {
    const CharacterizerConfig& cfg = ch_.config();
    l.task = &t;
    switch (t.kind) {
      case Task::Kind::kBisect:
        l.search = t.predicted
                       ? Bisection(cfg.q_max_fc, cfg.bisect_tol_fc, t.bracket)
                       : Bisection(cfg.q_max_fc, cfg.bisect_tol_fc);
        return;
      case Task::Kind::kBoundary:
        l.lo = 0;
        l.hi = t.grid->np();
        return;
      case Task::Kind::kGrid: {
        // Replay the cell's stream up to the task's first sample, so sample
        // s keeps the draws of a single pass over the whole ladder, then
        // draw the chain's samples.
        stats::Rng rng = stats::Rng::stream(t.grid->seed, t.point);
        for (std::uint32_t s = 0; s < t.first; ++s) ch_.sample_delta_vt(rng);
        // Solve their hold states in one lane-batched DC solve. A sample's
        // bind misses the lane's hold cache when it opens the task (a new
        // task drops the cache) or its shifts differ from the previous
        // sample's; only those are solved ahead, so every count stays the
        // one a strike-by-strike pass makes.
        std::array<DeltaVt, kGridChain> ahead;
        std::uint8_t m = 0;
        for (std::uint32_t s = 0; s < t.count; ++s) {
          l.dvts[s] = ch_.sample_delta_vt(rng);
          const bool repeat = s > 0 && l.dvts[s] == l.dvts[s - 1];
          l.hold_of[s] = repeat ? kNoHold : m;
          if (!repeat) ahead[m++] = l.dvts[s];
        }
        sim_.solve_holds(ahead.data(), m, l.holds.data());
        l.left = t.count;
        return;
      }
    }
  }

  /// Fill \p strike with the lane's next strike, or finish its task (writing
  /// the outputs still pending) and return false.
  bool advance(Lane& l, StrikeSimulator::Strike& strike) {
    Task& t = *l.task;
    switch (t.kind) {
      case Task::Kind::kBisect:
        if (t.failed) {
          t.qcrit = kFailedSample;
          return false;
        }
        if (l.search.finished()) {
          t.qcrit = l.search.result();
          if (t.predicted) ++(l.search.missed() ? misses_ : hits_);
          return false;
        }
        strike.charges =
            scale_direction(unit_direction(t.current), l.search.probe());
        strike.delta_vt = t.dvt != nullptr ? *t.dvt : DeltaVt{};
        return true;
      case Task::Kind::kBoundary: {
        if (t.failed) return false;
        if (l.lo >= l.hi) {
          t.first_flip = static_cast<std::uint32_t>(l.lo);
          return false;
        }
        const GridRun& g = *t.grid;
        l.mid = l.lo + (l.hi - l.lo) / 2;
        strike.charges = g.charges_at(t.point);
        charge_of(strike.charges, g.currents[g.dims - 1]) = (*g.axis)[l.mid];
        strike.delta_vt = DeltaVt{};
        return true;
      }
      case Task::Kind::kGrid: {
        if (l.left == 0) return false;
        const std::uint32_t s = t.count - l.left--;
        strike.charges = t.grid->charges_at(t.point);
        strike.delta_vt = l.dvts[s];
        if (l.hold_of[s] != kNoHold) strike.hold = &l.holds[l.hold_of[s]];
        return true;
      }
    }
    return false;
  }

  std::vector<Task>& tasks_;
  exec::TaskCursor& cursor_;
  const CellCharacterizer& ch_;
  StrikeSimulator& sim_;
  const StrikeSimulator::HoldState& nominal_;
  std::array<Lane, spice::kMaxLaneWidth> lanes_;
  std::array<std::size_t, kStageCount> transients_{};
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// One StrikeSimulator per pool worker slot, created lazily on the worker's
/// own thread (the simulator keeps transient-analysis scratch and is not
/// shareable across threads). Each slot lives for the whole per-voltage
/// characterization, so every worker compiles its cell circuit once and then
/// rebinds parameters per strike, in every phase (see spice/compiled.hpp).
struct SimSlots {
  const CellDesign* design;
  double vdd_v;
  std::vector<std::unique_ptr<StrikeSimulator>> sims;

  SimSlots(const CellDesign& d, double vdd, std::size_t slots)
      : design(&d), vdd_v(vdd), sims(slots) {}

  StrikeSimulator& at(std::size_t worker) {
    std::unique_ptr<StrikeSimulator>& s = sims[worker];
    if (!s) s = std::make_unique<StrikeSimulator>(*design, vdd_v);
    return *s;
  }
};

/// Drain one phase: every worker streams the list's tasks through its
/// simulator's lanes. Throws util::Cancelled if \p cancel fires.
void run_phase(exec::ThreadPool& pool, SimSlots& sims, std::vector<Task>& tasks,
               const CellCharacterizer& ch,
               const StrikeSimulator::HoldState& nominal,
               const exec::CancelToken* cancel) {
  require_complete(pool.parallel_drain(
      tasks.size(),
      [&](exec::TaskCursor& cursor) {
        StrikeSimulator& sim = sims.at(cursor.worker());
        PhaseFeed feed(tasks, cursor, ch, sim, nominal);
        sim.simulate_stream(feed, ch.config().pulse_kind);
      },
      cancel));
}

/// A failed nominal bisection or boundary search cannot be excluded like a
/// PV sample: it anchors the table (axis placement, the MC band). Rethrow
/// the first failure in task order, whichever worker ran it.
void require_no_failure(const std::vector<Task>& tasks, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (tasks[i].failed) throw util::NumericalError(*tasks[i].error);
  }
}

// ---------------------------------------------------------------------------
// The bracket predictor
// ---------------------------------------------------------------------------

/// Linear critical-charge model in the six threshold shifts, fitted by least
/// squares over a current's plain-searched prefix, with its residual
/// standard deviation. Deterministic in the prefix alone. It only picks
/// where a search starts: Bisection verifies every bracket it is given.
class QcritFit {
 public:
  static constexpr std::size_t kTerms = kRoleCount + 1;  // Intercept + ΔVt.

  /// Fit samples [0, n) of \p dvts / \p qcrit, skipping failed and
  /// never-flipping ones; usable() is false without enough of them or on a
  /// singular system (e.g. σVt = 0).
  QcritFit(const std::vector<DeltaVt>& dvts, const std::vector<double>& qcrit,
           std::size_t n) {
    std::array<std::array<double, kTerms + 1>, kTerms> m{};  // [A | b].
    std::size_t used = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!(qcrit[k] >= 0.0 && qcrit[k] < SingleCdf::kNeverFlips)) continue;
      const std::array<double, kTerms> x = terms(dvts[k]);
      for (std::size_t i = 0; i < kTerms; ++i) {
        for (std::size_t j = 0; j < kTerms; ++j) m[i][j] += x[i] * x[j];
        m[i][kTerms] += x[i] * qcrit[k];
      }
      ++used;
    }
    if (used <= kTerms) return;
    // Normal equations by Gaussian elimination with partial pivoting.
    for (std::size_t c = 0; c < kTerms; ++c) {
      std::size_t piv = c;
      for (std::size_t r = c + 1; r < kTerms; ++r) {
        if (std::abs(m[r][c]) > std::abs(m[piv][c])) piv = r;
      }
      if (!(std::abs(m[piv][c]) > 0.0)) return;
      std::swap(m[c], m[piv]);
      for (std::size_t r = c + 1; r < kTerms; ++r) {
        const double f = m[r][c] / m[c][c];
        for (std::size_t j = c; j <= kTerms; ++j) m[r][j] -= f * m[c][j];
      }
    }
    for (std::size_t c = kTerms; c-- > 0;) {
      double acc = m[c][kTerms];
      for (std::size_t j = c + 1; j < kTerms; ++j) acc -= m[c][j] * beta_[j];
      beta_[c] = acc / m[c][c];
    }
    double rss = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!(qcrit[k] >= 0.0 && qcrit[k] < SingleCdf::kNeverFlips)) continue;
      const double r = qcrit[k] - predict(dvts[k]);
      rss += r * r;
    }
    sigma_ = std::sqrt(rss / static_cast<double>(used - kTerms));
    usable_ = std::isfinite(sigma_) &&
              std::all_of(beta_.begin(), beta_.end(),
                          [](double b) { return std::isfinite(b); });
  }

  bool usable() const { return usable_; }

  /// The prediction for \p dvt, ±kBracketSigmas residual deviations.
  ScaleBracket bracket(const DeltaVt& dvt) const {
    const double q = predict(dvt);
    return ScaleBracket{q - kBracketSigmas * sigma_, q + kBracketSigmas * sigma_};
  }

 private:
  static std::array<double, kTerms> terms(const DeltaVt& dvt) {
    std::array<double, kTerms> x{};
    x[0] = 1.0;
    std::copy(dvt.begin(), dvt.end(), x.begin() + 1);
    return x;
  }

  double predict(const DeltaVt& dvt) const {
    const std::array<double, kTerms> x = terms(dvt);
    double q = 0.0;
    for (std::size_t i = 0; i < kTerms; ++i) q += beta_[i] * x[i];
    return q;
  }

  std::array<double, kTerms> beta_{};
  double sigma_ = 0.0;
  bool usable_ = false;
};

}  // namespace

PofTable CellCharacterizer::characterize_at(double vdd_v, std::uint64_t seed,
                                            const exec::ProgressSink& progress,
                                            const exec::CancelToken* cancel) const {
  require_complete(cancel == nullptr || !cancel->cancelled());
  obs::ScopedSpan span("sram.characterize_voltage",
                       "sram.characterize_voltage vdd=" +
                           std::to_string(vdd_v) + "V");
  exec::ThreadPool pool(config_.threads);
  SimSlots sims(design_, vdd_v, pool.thread_count());

  PofTable table;
  table.vdd_v = vdd_v;
  table.q_max_fc = config_.q_max_fc;

  // PV samples are independent: sample k of current `which` draws from
  // stream k of that current's seed, so its ΔVt — and its critical charge —
  // is the same for any thread count, lane width or task order.
  const std::size_t n_pv = config_.pv_samples_single;
  const std::size_t n_prefix = std::min(n_pv, kPrefixSamples);
  std::array<std::vector<DeltaVt>, 3> dvts;
  std::array<std::vector<double>, 3> qcrit;
  for (std::size_t which = 0; which < 3; ++which) {
    const std::uint64_t s = stats::Rng::derive_seed(seed, kStreamSingleBase + which);
    for (std::size_t k = 0; k < n_pv; ++k) {
      stats::Rng rng = stats::Rng::stream(s, k);
      dvts[which].push_back(sample_delta_vt(rng));
    }
    qcrit[which].resize(n_pv);
  }

  // The nominal (ΔVt = 0) hold state, solved once on this thread — pool
  // slot 0, whose simulator it uses — for every nominal bisection and
  // boundary search of the voltage, so no task re-solves it and the
  // spice.dc.* counts do not depend on the thread count.
  StrikeSimulator::HoldState nominal_hold;
  const DeltaVt nominal_dvt{};
  sims.at(0).solve_holds(&nominal_dvt, 1, &nominal_hold);

  // Phase 0: the nominal bisections, which place the grid axes, and each
  // current's plain-searched PV prefix, which the bracket predictor needs.
  std::vector<Task> tasks;
  tasks.reserve(3 * (1 + n_prefix));
  for (std::size_t which = 0; which < 3; ++which) {
    tasks.push_back(bisect_task(Stage::kNominal, which, nullptr));
  }
  for (std::size_t which = 0; which < 3; ++which) {
    for (std::size_t k = 0; k < n_prefix; ++k) {
      tasks.push_back(bisect_task(Stage::kSingle, which, &dvts[which][k]));
    }
  }
  run_phase(pool, sims, tasks, *this, nominal_hold, cancel);
  require_no_failure(tasks, 0, 3);
  for (std::size_t which = 0; which < 3; ++which) {
    table.singles[which].nominal_qcrit_fc = tasks[which].qcrit;
    for (std::size_t k = 0; k < n_prefix; ++k) {
      qcrit[which][k] = tasks[3 + which * n_prefix + k].qcrit;
    }
  }

  // Charge axes densified around the cell's critical-charge band.
  double qc_lo = SingleCdf::kNeverFlips;
  double qc_hi = 0.0;
  for (const auto& s : table.singles) {
    if (s.nominal_qcrit_fc < SingleCdf::kNeverFlips) {
      qc_lo = std::min(qc_lo, s.nominal_qcrit_fc);
      qc_hi = std::max(qc_hi, s.nominal_qcrit_fc);
    }
  }
  if (qc_hi == 0.0) qc_lo = 0.0;  // No flips observed: axis falls back.
  const util::Axis pair_axis = make_charge_axis(
      qc_lo, qc_hi, config_.pair_grid_points, config_.q_max_fc);
  const util::Axis triple_axis = make_charge_axis(
      qc_lo, qc_hi, config_.triple_grid_points, config_.q_max_fc);
  const std::size_t pair_ids[3][2] = {{0, 1}, {0, 2}, {1, 2}};
  std::array<GridRun, 4> grids;
  for (std::size_t p = 0; p < 3; ++p) {
    grids[p] = make_grid(pair_axis, 2, {pair_ids[p][0], pair_ids[p][1], 0},
                         stats::Rng::derive_seed(seed, kStreamPairBase + p));
  }
  grids[3] = make_grid(triple_axis, 3, {0, 1, 2},
                       stats::Rng::derive_seed(seed, kStreamTriple));

  // Phase 1: the rest of the PV samples, each searched from the bracket its
  // current's prefix fit predicts, and every grid's nominal boundary — a
  // binary search for the first flipping point along each line (the flip
  // region is monotone). Lines are ΔVt-free, so a task starts from the
  // nominal hold state and solves no DC.
  tasks.clear();
  std::size_t n_lines = 0;
  for (const GridRun& g : grids) n_lines += g.lines();
  tasks.reserve(3 * (n_pv - n_prefix) + n_lines);
  for (std::size_t which = 0; which < 3; ++which) {
    const QcritFit fit(dvts[which], qcrit[which], n_prefix);
    for (std::size_t k = n_prefix; k < n_pv; ++k) {
      Task t = bisect_task(Stage::kSingle, which, &dvts[which][k]);
      t.predicted = fit.usable();
      if (t.predicted) t.bracket = fit.bracket(dvts[which][k]);
      tasks.push_back(std::move(t));
    }
  }
  const std::size_t n_rest = tasks.size();
  for (GridRun& g : grids) {
    g.boundary_task = tasks.size();
    for (std::size_t line = 0; line < g.lines(); ++line) {
      tasks.push_back(grid_task(Task::Kind::kBoundary, g, line * g.np()));
    }
  }
  run_phase(pool, sims, tasks, *this, nominal_hold, cancel);
  require_no_failure(tasks, n_rest, tasks.size());

  for (std::size_t which = 0; which < 3; ++which) {
    const std::size_t n_later = n_pv - n_prefix;
    for (std::size_t k = n_prefix; k < n_pv; ++k) {
      qcrit[which][k] = tasks[which * n_later + (k - n_prefix)].qcrit;
    }
    // A sample whose solve diverged is excluded from the CDF, never guessed
    // as flip or no-flip.
    SingleCdf& cdf = table.singles[which];
    cdf.failed_samples = static_cast<std::size_t>(
        std::count(qcrit[which].begin(), qcrit[which].end(), kFailedSample));
    cdf.total_samples = n_pv - cdf.failed_samples;
    table.attempted_samples += n_pv;
    table.failed_samples += cdf.failed_samples;
    for (double q : qcrit[which]) {
      if (q >= 0.0 && q < SingleCdf::kNeverFlips) cdf.qcrit_samples_fc.push_back(q);
    }
    std::sort(cdf.qcrit_samples_fc.begin(), cdf.qcrit_samples_fc.end());
    if (progress) {
      std::ostringstream os;
      os << "vdd=" << vdd_v << " I" << which + 1
         << ": qcrit_nom=" << cdf.nominal_qcrit_fc
         << " fC, qcrit_mean=" << cdf.mean_qcrit_fc()
         << " fC, sigma=" << cdf.stddev_qcrit_fc() << " fC";
      progress.message(os.str());
    }
  }

  // Smearing radius estimate for the grid MC placement.
  double sigma_q = 0.0;
  for (const auto& s : table.singles) sigma_q = std::max(sigma_q, s.stddev_qcrit_fc());
  if (sigma_q <= 0.0) sigma_q = 0.02 * config_.q_max_fc;
  for (GridRun& g : grids) {
    for (std::size_t line = 0; line < g.lines(); ++line) {
      const std::size_t first_flip = tasks[g.boundary_task + line].first_flip;
      for (std::size_t k = first_flip; k < g.np(); ++k) {
        g.nominal[line * g.np() + k] = 1.0;
      }
    }
    const auto radius = static_cast<std::ptrdiff_t>(
                            std::ceil(4.0 * sigma_q / min_spacing(*g.axis))) +
                        1;
    g.cells = near_boundary_cells(g, radius);
  }

  // Phase 2: PV Monte Carlo only within that radius (Chebyshev) of each
  // nominal boundary, as sub-chains of each cell's sample ladder. A cell
  // draws from the stream keyed by its linear grid index, so the result
  // depends neither on how many cells made the list nor on how the ladder
  // is split into tasks.
  const std::size_t n_grid = config_.pv_samples_grid;
  tasks.clear();
  const std::size_t chains = (n_grid + kGridChain - 1) / kGridChain;
  std::size_t n_cells = 0;
  for (const GridRun& g : grids) n_cells += g.cells.size();
  tasks.reserve(n_cells * chains);
  for (GridRun& g : grids) {
    g.grid_task = tasks.size();
    for (const std::size_t cell : g.cells) {
      for (std::size_t first = 0; first < n_grid; first += kGridChain) {
        Task t = grid_task(Task::Kind::kGrid, g, cell);
        t.first = static_cast<std::uint32_t>(first);
        t.count = static_cast<std::uint32_t>(std::min(kGridChain, n_grid - first));
        tasks.push_back(std::move(t));
      }
    }
  }
  run_phase(pool, sims, tasks, *this, nominal_hold, cancel);

  std::array<std::vector<double>, 4> pv;
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    const GridRun& g = grids[gi];
    pv[gi] = g.nominal;
    const Task* t = tasks.data() + g.grid_task;
    for (const std::size_t cell : g.cells) {
      std::size_t flips = 0;
      std::size_t ok = 0;
      for (std::size_t first = 0; first < n_grid; first += kGridChain, ++t) {
        flips += t->flips;
        ok += t->ok;
      }
      // Failures shrink the denominator; if every sample failed, fall back
      // to the nominal value rather than invent a probability.
      pv[gi][cell] = ok > 0 ? static_cast<double>(flips) / static_cast<double>(ok)
                            : g.nominal[cell];
      table.attempted_samples += n_grid;
      table.failed_samples += n_grid - ok;
    }
  }
  for (std::size_t p = 0; p < 3; ++p) {
    table.pairs_nominal[p] = util::Grid2(pair_axis, pair_axis, grids[p].nominal);
    table.pairs_pv[p] = util::Grid2(pair_axis, pair_axis, std::move(pv[p]));
  }
  if (progress) progress.message("vdd=" + std::to_string(vdd_v) + ": pair grids done");
  table.triple_nominal =
      util::Grid3(triple_axis, triple_axis, triple_axis, grids[3].nominal);
  table.triple_pv =
      util::Grid3(triple_axis, triple_axis, triple_axis, std::move(pv[3]));
  if (progress) progress.message("vdd=" + std::to_string(vdd_v) + ": triple grid done");

  if (table.failed_samples > 0) {
    const double frac = static_cast<double>(table.failed_samples) /
                        static_cast<double>(table.attempted_samples);
    if (progress) {
      std::ostringstream os;
      os << "vdd=" << vdd_v << ": " << table.failed_samples << "/"
         << table.attempted_samples
         << " strike samples failed numerically (excluded from the LUTs)";
      progress.message(os.str());
    }
    if (frac > config_.max_failure_fraction) {
      std::ostringstream os;
      os << "characterize_at(vdd=" << vdd_v << "): failure fraction " << frac
         << " exceeds max_failure_fraction " << config_.max_failure_fraction
         << " (" << table.failed_samples << "/" << table.attempted_samples
         << " samples) — the solver is too sick for the model to be trusted";
      throw util::NumericalError(os.str());
    }
  }
  FINSER_OBS_COUNT("sram.strike_samples", table.attempted_samples);
  FINSER_OBS_COUNT("sram.strike_sample_failures", table.failed_samples);
  return table;
}

std::vector<double> CellCharacterizer::voltages() const {
  std::vector<double> vdds = config_.vdds;
  std::sort(vdds.begin(), vdds.end());
  return vdds;
}

PofTable CellCharacterizer::characterize_voltage(
    std::size_t index, const exec::ProgressSink& progress,
    const exec::CancelToken* cancel) const {
  const std::vector<double> vdds = voltages();
  FINSER_REQUIRE(index < vdds.size(),
                 "characterize_voltage: voltage index out of range");
  return characterize_at(vdds[index],
                         stats::Rng::derive_seed(config_.seed, index),
                         progress, cancel);
}

CellSoftErrorModel CellCharacterizer::characterize(
    const exec::ProgressSink& progress, const exec::CancelToken* cancel) const {
  CellSoftErrorModel model;
  model.config_fingerprint = config_.fingerprint(design_);
  for (std::size_t v = 0; v < config_.vdds.size(); ++v) {
    model.tables.push_back(characterize_voltage(v, progress, cancel));
  }
  return model;
}

}  // namespace finser::sram
