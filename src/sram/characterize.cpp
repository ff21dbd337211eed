#include "finser/sram/characterize.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/spice/batch.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {

namespace detail {

/// One StrikeSimulator per pool worker slot, created lazily on the worker's
/// own thread (the simulator keeps transient-analysis scratch and is not
/// shareable across threads). Each slot lives for the whole per-voltage
/// characterization, so every worker compiles its cell circuit exactly once
/// and then rebinds parameters per sample — across the Qcrit bisections, the
/// PV-sample loops and the grid stages alike (see spice/compiled.hpp).
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

}  // namespace detail

namespace {

/// Bumped whenever the characterization algorithm's RNG-consumption scheme
/// changes (v2: counter-based per-stage / per-work-item streams); stale disk
/// caches from older schemes then fail fingerprint validation and rebuild.
constexpr std::uint64_t kSchemeVersion = 2;

/// Stream-family ids under one per-voltage seed (stats::Rng::derive_seed).
constexpr std::uint64_t kStreamSingleBase = 1;  // which = 0..2 -> 1..3.
constexpr std::uint64_t kStreamPairBase = 4;    // pair p = 0..2 -> 4..6.
constexpr std::uint64_t kStreamTriple = 7;

/// A parallel stage that stopped early (cancel token fired) holds a
/// partially written table — the only safe continuation is to abandon it.
/// Finished voltages survive as `pof_table` artifacts when the caller
/// persists them (core::load_or_characterize); this one restarts on resume.
void require_complete(bool completed) {
  if (!completed) {
    throw util::Cancelled(
        "characterization cancelled at a chunk boundary; the in-progress "
        "voltage is discarded");
  }
}

StrikeCharges scale_direction(const StrikeCharges& dir, double s) {
  return StrikeCharges{dir.i1_fc * s, dir.i2_fc * s, dir.i3_fc * s};
}

/// Sentinel for a PV sample whose solve diverged: excluded from the CDF,
/// never guessed as flip or no-flip.
constexpr double kFailedSample = -1.0;

/// Lane-batched bisect_critical_scale for a group of PV samples sharing one
/// strike direction: every lane runs that bisection verbatim — same bracket
/// [0, s_max], same probe-then-halve sequence — so the group stays in
/// lockstep and each lane's result is byte-identical to a
/// bisect_critical_scale() call.
/// Lanes finish independently (never-flips at the s_max probe, a diverged
/// solve, or bracket below tol) and are masked off; their slot stays put so
/// the remaining lanes keep their per-slot DC hold caches. Writes qcrit to
/// out[0..dvts.size()), kFailedSample for diverged lanes.
void bisect_critical_scale_batch(StrikeSimulator& sim,
                                 const StrikeCharges& direction,
                                 const std::vector<DeltaVt>& dvts, double s_max,
                                 double tol, spice::PulseShape::Kind kind,
                                 double* out, std::size_t& n_failed) {
  FINSER_REQUIRE(s_max > 0.0 && tol > 0.0,
                 "bisect_critical_scale: bad bracket parameters");
  const std::size_t group = dvts.size();
  std::vector<StrikeCharges> charges(group, scale_direction(direction, s_max));
  std::vector<std::uint8_t> active(group, 1);
  std::vector<StrikeSimulator::LaneOutcome> res(group);
  std::vector<double> lo(group, 0.0);
  std::vector<double> hi(group, s_max);

  sim.simulate_batch(charges, dvts, kind, active, res);
  for (std::size_t g = 0; g < group; ++g) {
    if (res[g].failed) {
      out[g] = kFailedSample;
      ++n_failed;
      active[g] = 0;
    } else if (!res[g].outcome.flipped) {
      out[g] = SingleCdf::kNeverFlips;
      active[g] = 0;
    }
  }
  for (;;) {
    bool any = false;
    for (std::size_t g = 0; g < group; ++g) {
      if (!active[g]) continue;
      if (hi[g] - lo[g] > tol) {
        charges[g] = scale_direction(direction, 0.5 * (lo[g] + hi[g]));
        any = true;
      } else {
        out[g] = hi[g];
        active[g] = 0;
      }
    }
    if (!any) break;
    sim.simulate_batch(charges, dvts, kind, active, res);
    for (std::size_t g = 0; g < group; ++g) {
      if (!active[g]) continue;
      if (res[g].failed) {
        out[g] = kFailedSample;
        ++n_failed;
        active[g] = 0;
        continue;
      }
      const double mid = 0.5 * (lo[g] + hi[g]);
      if (res[g].outcome.flipped) {
        hi[g] = mid;
      } else {
        lo[g] = mid;
      }
    }
  }
}

/// Lockstep integer binary search of the first flipping grid column for a
/// lane group of nominal boundary rows. All lanes share the search range
/// [0, np); a lane whose bracket closes is masked off while the rest finish.
/// Nominal rows are ΔVt-free, so every lane's per-slot DC hold cache hits
/// after its first iteration. Failures propagate: a wrong boundary would
/// misplace the whole MC band.
template <typename MakeCharges>
std::vector<std::size_t> boundary_search_batch(StrikeSimulator& sim,
                                               std::size_t group, std::size_t np,
                                               spice::PulseShape::Kind kind,
                                               MakeCharges&& make_charges) {
  std::vector<std::size_t> lo(group, 0);
  std::vector<std::size_t> hi(group, np);
  std::vector<StrikeCharges> charges(group);
  const std::vector<DeltaVt> dvts(group);  // Nominal: all-zero ΔVt.
  std::vector<std::uint8_t> active(group, 0);
  std::vector<StrikeSimulator::LaneOutcome> res(group);
  for (;;) {
    bool any = false;
    for (std::size_t g = 0; g < group; ++g) {
      active[g] = lo[g] < hi[g] ? 1 : 0;
      if (!active[g]) continue;
      charges[g] = make_charges(g, lo[g] + (hi[g] - lo[g]) / 2);
      any = true;
    }
    if (!any) break;
    sim.simulate_batch(charges, dvts, kind, active, res);
    for (std::size_t g = 0; g < group; ++g) {
      if (!active[g]) continue;
      if (res[g].failed) throw util::NumericalError(res[g].error);
      const std::size_t mid = lo[g] + (hi[g] - lo[g]) / 2;
      if (res[g].outcome.flipped) {
        hi[g] = mid;
      } else {
        lo[g] = mid + 1;
      }
    }
  }
  return lo;
}

/// Advance a lane group of near-boundary MC grid cells through their sample
/// ladders in lockstep: every lane holds one cell at fixed charges and draws
/// its own ΔVt stream, so all lanes take the same number of rounds. A lane
/// whose solve diverges this round just skips the tally (the sample's RNG
/// draws were already consumed, so later samples are unshifted) — it stays
/// active for the next round.
template <typename SampleDvt>
void mc_group_batch(StrikeSimulator& sim,
                    const std::vector<StrikeCharges>& charges,
                    std::vector<stats::Rng>& rngs, std::size_t samples,
                    spice::PulseShape::Kind kind, SampleDvt&& sample_dvt,
                    std::vector<std::size_t>& flips, std::vector<std::size_t>& ok,
                    std::atomic<std::size_t>& n_failed) {
  const std::size_t group = charges.size();
  std::vector<DeltaVt> dvts(group);
  const std::vector<std::uint8_t> active(group, 1);
  std::vector<StrikeSimulator::LaneOutcome> res(group);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t g = 0; g < group; ++g) dvts[g] = sample_dvt(rngs[g]);
    sim.simulate_batch(charges, dvts, kind, active, res);
    for (std::size_t g = 0; g < group; ++g) {
      if (res[g].failed) {
        n_failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ++ok[g];
      if (res[g].outcome.flipped) ++flips[g];
    }
  }
}

StrikeCharges unit_direction(int which) {
  switch (which) {
    case 0: return StrikeCharges{1.0, 0.0, 0.0};
    case 1: return StrikeCharges{0.0, 1.0, 0.0};
    case 2: return StrikeCharges{0.0, 0.0, 1.0};
    default:
      throw util::InvalidArgument("unit_direction: index out of range");
  }
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
  if (!sim.simulate(scale_direction(direction, s_max), delta_vt, kind).flipped) {
    return SingleCdf::kNeverFlips;
  }
  double lo = 0.0;
  double hi = s_max;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (sim.simulate(scale_direction(direction, mid), delta_vt, kind).flipped) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

CellCharacterizer::CellCharacterizer(const CellDesign& design,
                                     const CharacterizerConfig& config)
    : design_(design), config_(config) {
  FINSER_REQUIRE(!config_.vdds.empty(), "CellCharacterizer: no supply voltages");
  FINSER_REQUIRE(config_.pair_grid_points >= 2 && config_.triple_grid_points >= 2,
                 "CellCharacterizer: grids need >= 2 points per axis");
  FINSER_REQUIRE(config_.q_max_fc > 0.0, "CellCharacterizer: q_max must be positive");
}

DeltaVt CellCharacterizer::sample_delta_vt(stats::Rng& rng) const {
  DeltaVt dvt{};
  for (double& v : dvt) v = rng.normal(0.0, design_.sigma_vt);
  return dvt;
}

SingleCdf CellCharacterizer::characterize_single(
    exec::ThreadPool& pool, detail::SimSlots& sims, int which,
    std::uint64_t seed, const exec::CancelToken* cancel,
    std::size_t& attempted, std::size_t& failed) const {
  const StrikeCharges dir = unit_direction(which);
  SingleCdf cdf;
  // The nominal bisection anchors the whole table (axis placement, binary
  // POF); if *it* cannot converge, the voltage is unrecoverable — propagate.
  cdf.nominal_qcrit_fc = bisect_critical_scale(
      sims.at(0), dir, DeltaVt{}, config_.q_max_fc, config_.bisect_tol_fc,
      config_.pulse_kind);

  // PV samples are independent: sample k always draws from stream k of this
  // stage's seed, so the result is the same for any thread count, lane width
  // or batch boundary. A sample whose solve diverges is marked with a
  // negative sentinel and excluded from the CDF — never guessed as flip or
  // no-flip. The samples advance in SIMD lockstep lane groups (chunk = lane
  // width, a few dozen SPICE transients per chunk).
  const std::size_t lanes = spice::lane_width();
  std::vector<double> qcrit(config_.pv_samples_single);
  std::atomic<std::size_t> n_failed{0};
  require_complete(pool.parallel_for_chunks(
      config_.pv_samples_single, lanes,
      [&](const exec::ChunkRange& r) {
        StrikeSimulator& sim = sims.at(r.worker);
        const std::size_t group = r.end - r.begin;
        std::vector<DeltaVt> dvts(group);
        for (std::size_t g = 0; g < group; ++g) {
          stats::Rng rng = stats::Rng::stream(seed, r.begin + g);
          dvts[g] = sample_delta_vt(rng);
        }
        std::size_t nf = 0;
        bisect_critical_scale_batch(sim, dir, dvts, config_.q_max_fc,
                                    config_.bisect_tol_fc, config_.pulse_kind,
                                    qcrit.data() + r.begin, nf);
        if (nf > 0) n_failed.fetch_add(nf, std::memory_order_relaxed);
      },
      cancel));
  cdf.failed_samples = n_failed.load();
  cdf.total_samples = config_.pv_samples_single - cdf.failed_samples;
  attempted += config_.pv_samples_single;
  failed += cdf.failed_samples;
  cdf.qcrit_samples_fc.reserve(cdf.total_samples);
  for (double q : qcrit) {
    if (q >= 0.0 && q < SingleCdf::kNeverFlips) cdf.qcrit_samples_fc.push_back(q);
  }
  std::sort(cdf.qcrit_samples_fc.begin(), cdf.qcrit_samples_fc.end());
  return cdf;
}

namespace {

/// Charges for a pair combo (a, b) at grid charges (qa, qb).
StrikeCharges pair_charges(int a, int b, double qa, double qb) {
  StrikeCharges c;
  double* slots[3] = {&c.i1_fc, &c.i2_fc, &c.i3_fc};
  *slots[a] = qa;
  *slots[b] = qb;
  return c;
}

/// Smallest spacing of an axis (controls the MC dilation radius).
double min_spacing(const util::Axis& axis) {
  double dq = axis.back() - axis.front();
  for (std::size_t i = 1; i < axis.size(); ++i) {
    dq = std::min(dq, axis[i] - axis[i - 1]);
  }
  return dq;
}

}  // namespace

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

void CellCharacterizer::characterize_pair(
    exec::ThreadPool& pool, detail::SimSlots& sims, int a, int b,
    const util::Axis& axis, double sigma_q_fc, std::uint64_t seed,
    util::Grid2& pv, util::Grid2& nominal, const exec::CancelToken* cancel,
    std::size_t& attempted, std::size_t& failed) const {
  const std::size_t np = axis.size();
  const double dq = min_spacing(axis);
  const auto radius =
      static_cast<std::ptrdiff_t>(std::ceil(4.0 * sigma_q_fc / dq)) + 1;

  // Nominal boundary per row by binary search (flip region is monotone).
  // Rows are independent and RNG-free — parallel rows in lane groups.
  // Failures propagate: a wrong boundary would misplace the whole MC band.
  const std::size_t lanes = spice::lane_width();
  std::vector<std::size_t> boundary(np, np);  // First flipping column, np = none.
  require_complete(pool.parallel_for_chunks(
      np, lanes,
      [&](const exec::ChunkRange& r) {
        StrikeSimulator& sim = sims.at(r.worker);
        const std::vector<std::size_t> first_flip = boundary_search_batch(
            sim, r.end - r.begin, np, config_.pulse_kind,
            [&](std::size_t g, std::size_t mid) {
              return pair_charges(a, b, axis[r.begin + g], axis[mid]);
            });
        std::copy(first_flip.begin(), first_flip.end(),
                  boundary.begin() + static_cast<std::ptrdiff_t>(r.begin));
      },
      cancel));

  std::vector<double> nom_values(np * np);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      nom_values[i * np + j] = j >= boundary[i] ? 1.0 : 0.0;
    }
  }

  // PV values: Monte Carlo only within `radius` (Chebyshev) of the boundary.
  // Collect the near-boundary cells first, then run them in parallel; each
  // cell draws from the stream keyed by its linear grid index, so the result
  // does not depend on how many cells made the list.
  std::vector<double> pv_values = nom_values;
  std::vector<std::size_t> mc_cells;
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      bool near_boundary = false;
      const auto si = static_cast<std::ptrdiff_t>(i);
      const auto sj = static_cast<std::ptrdiff_t>(j);
      for (std::ptrdiff_t di = -radius; di <= radius && !near_boundary; ++di) {
        for (std::ptrdiff_t dj = -radius; dj <= radius && !near_boundary; ++dj) {
          const std::ptrdiff_t ni = si + di;
          const std::ptrdiff_t nj = sj + dj;
          if (ni < 0 || nj < 0 || ni >= static_cast<std::ptrdiff_t>(np) ||
              nj >= static_cast<std::ptrdiff_t>(np)) {
            continue;
          }
          if (nom_values[static_cast<std::size_t>(ni) * np +
                         static_cast<std::size_t>(nj)] != nom_values[i * np + j]) {
            near_boundary = true;
          }
        }
      }
      if (near_boundary) mc_cells.push_back(i * np + j);
    }
  }
  std::atomic<std::size_t> n_failed{0};
  require_complete(pool.parallel_for_chunks(
      mc_cells.size(), lanes,
      [&](const exec::ChunkRange& r) {
        StrikeSimulator& sim = sims.at(r.worker);
        const std::size_t group = r.end - r.begin;
        std::vector<StrikeCharges> charges(group);
        std::vector<stats::Rng> rngs;
        rngs.reserve(group);
        for (std::size_t g = 0; g < group; ++g) {
          const std::size_t cell = mc_cells[r.begin + g];
          charges[g] = pair_charges(a, b, axis[cell / np], axis[cell % np]);
          rngs.push_back(stats::Rng::stream(seed, cell));
        }
        std::vector<std::size_t> flips(group, 0);
        std::vector<std::size_t> ok(group, 0);
        mc_group_batch(
            sim, charges, rngs, config_.pv_samples_grid, config_.pulse_kind,
            [this](stats::Rng& rng) { return sample_delta_vt(rng); }, flips,
            ok, n_failed);
        for (std::size_t g = 0; g < group; ++g) {
          const std::size_t cell = mc_cells[r.begin + g];
          // Failures shrink the denominator; if every sample failed, fall
          // back to the nominal value rather than invent a probability.
          pv_values[cell] = ok[g] > 0 ? static_cast<double>(flips[g]) /
                                            static_cast<double>(ok[g])
                                      : nom_values[cell];
        }
      },
      cancel));
  attempted += mc_cells.size() * config_.pv_samples_grid;
  failed += n_failed.load();

  nominal = util::Grid2(axis, axis, std::move(nom_values));
  pv = util::Grid2(axis, axis, std::move(pv_values));
}

void CellCharacterizer::characterize_triple(
    exec::ThreadPool& pool, detail::SimSlots& sims, const util::Axis& axis,
    double sigma_q_fc, std::uint64_t seed, util::Grid3& pv,
    util::Grid3& nominal, const exec::CancelToken* cancel,
    std::size_t& attempted, std::size_t& failed) const {
  const std::size_t np = axis.size();
  const double dq = min_spacing(axis);
  const auto radius =
      static_cast<std::ptrdiff_t>(std::ceil(4.0 * sigma_q_fc / dq)) + 1;

  const auto idx = [np](std::size_t i, std::size_t j, std::size_t k) {
    return (i * np + j) * np + k;
  };

  // Nominal: binary search the first flipping k for each (i, j) — RNG-free,
  // one parallel item per (i, j) column, in lane groups.
  const std::size_t lanes = spice::lane_width();
  std::vector<double> nom_values(np * np * np);
  require_complete(pool.parallel_for_chunks(
      np * np, lanes,
      [&](const exec::ChunkRange& r) {
        StrikeSimulator& sim = sims.at(r.worker);
        const std::vector<std::size_t> first_flip = boundary_search_batch(
            sim, r.end - r.begin, np, config_.pulse_kind,
            [&](std::size_t g, std::size_t mid) {
              const std::size_t ij = r.begin + g;
              return StrikeCharges{axis[ij / np], axis[ij % np], axis[mid]};
            });
        for (std::size_t g = 0; g < r.end - r.begin; ++g) {
          const std::size_t ij = r.begin + g;
          for (std::size_t k = 0; k < np; ++k) {
            nom_values[idx(ij / np, ij % np, k)] =
                k >= first_flip[g] ? 1.0 : 0.0;
          }
        }
      },
      cancel));

  std::vector<double> pv_values = nom_values;
  std::vector<std::size_t> mc_cells;
  const auto snp = static_cast<std::ptrdiff_t>(np);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < np; ++j) {
      for (std::size_t k = 0; k < np; ++k) {
        bool near_boundary = false;
        for (std::ptrdiff_t di = -radius; di <= radius && !near_boundary; ++di) {
          for (std::ptrdiff_t dj = -radius; dj <= radius && !near_boundary; ++dj) {
            for (std::ptrdiff_t dk = -radius; dk <= radius && !near_boundary;
                 ++dk) {
              const std::ptrdiff_t ni = static_cast<std::ptrdiff_t>(i) + di;
              const std::ptrdiff_t nj = static_cast<std::ptrdiff_t>(j) + dj;
              const std::ptrdiff_t nk = static_cast<std::ptrdiff_t>(k) + dk;
              if (ni < 0 || nj < 0 || nk < 0 || ni >= snp || nj >= snp ||
                  nk >= snp) {
                continue;
              }
              if (nom_values[idx(static_cast<std::size_t>(ni),
                                 static_cast<std::size_t>(nj),
                                 static_cast<std::size_t>(nk))] !=
                  nom_values[idx(i, j, k)]) {
                near_boundary = true;
              }
            }
          }
        }
        if (near_boundary) mc_cells.push_back(idx(i, j, k));
      }
    }
  }
  std::atomic<std::size_t> n_failed{0};
  require_complete(pool.parallel_for_chunks(
      mc_cells.size(), lanes,
      [&](const exec::ChunkRange& r) {
        StrikeSimulator& sim = sims.at(r.worker);
        const std::size_t group = r.end - r.begin;
        std::vector<StrikeCharges> charges(group);
        std::vector<stats::Rng> rngs;
        rngs.reserve(group);
        for (std::size_t g = 0; g < group; ++g) {
          const std::size_t cell = mc_cells[r.begin + g];
          charges[g] = StrikeCharges{axis[cell / (np * np)],
                                     axis[(cell / np) % np], axis[cell % np]};
          rngs.push_back(stats::Rng::stream(seed, cell));
        }
        std::vector<std::size_t> flips(group, 0);
        std::vector<std::size_t> ok(group, 0);
        mc_group_batch(
            sim, charges, rngs, config_.pv_samples_grid, config_.pulse_kind,
            [this](stats::Rng& rng) { return sample_delta_vt(rng); }, flips,
            ok, n_failed);
        for (std::size_t g = 0; g < group; ++g) {
          const std::size_t cell = mc_cells[r.begin + g];
          pv_values[cell] = ok[g] > 0 ? static_cast<double>(flips[g]) /
                                            static_cast<double>(ok[g])
                                      : nom_values[cell];
        }
      },
      cancel));
  attempted += mc_cells.size() * config_.pv_samples_grid;
  failed += n_failed.load();

  nominal = util::Grid3(axis, axis, axis, std::move(nom_values));
  pv = util::Grid3(axis, axis, axis, std::move(pv_values));
}

PofTable CellCharacterizer::characterize_at(double vdd_v, std::uint64_t seed,
                                            const exec::ProgressSink& progress,
                                            const exec::CancelToken* cancel) const {
  require_complete(cancel == nullptr || !cancel->cancelled());
  obs::ScopedSpan span("sram.characterize_voltage",
                       "sram.characterize_voltage vdd=" +
                           std::to_string(vdd_v) + "V");
  exec::ThreadPool pool(config_.threads);
  detail::SimSlots sims(design_, vdd_v, pool.thread_count());

  PofTable table;
  table.vdd_v = vdd_v;
  table.q_max_fc = config_.q_max_fc;

  for (int which = 0; which < 3; ++which) {
    table.singles[static_cast<std::size_t>(which)] = characterize_single(
        pool, sims, which,
        stats::Rng::derive_seed(seed,
                                kStreamSingleBase + static_cast<std::uint64_t>(which)),
        cancel, table.attempted_samples, table.failed_samples);
    if (progress) {
      std::ostringstream os;
      const auto& s = table.singles[static_cast<std::size_t>(which)];
      os << "vdd=" << vdd_v << " I" << which + 1
         << ": qcrit_nom=" << s.nominal_qcrit_fc
         << " fC, qcrit_mean=" << s.mean_qcrit_fc()
         << " fC, sigma=" << s.stddev_qcrit_fc() << " fC";
      progress.message(os.str());
    }
  }

  // Smearing radius estimate for the grid MC placement.
  double sigma_q = 0.0;
  for (const auto& s : table.singles) sigma_q = std::max(sigma_q, s.stddev_qcrit_fc());
  if (sigma_q <= 0.0) sigma_q = 0.02 * config_.q_max_fc;

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

  const int pair_ids[3][2] = {{0, 1}, {0, 2}, {1, 2}};
  for (int p = 0; p < 3; ++p) {
    characterize_pair(
        pool, sims, pair_ids[p][0], pair_ids[p][1], pair_axis, sigma_q,
        stats::Rng::derive_seed(seed,
                                kStreamPairBase + static_cast<std::uint64_t>(p)),
        table.pairs_pv[static_cast<std::size_t>(p)],
        table.pairs_nominal[static_cast<std::size_t>(p)], cancel,
        table.attempted_samples, table.failed_samples);
  }
  if (progress) progress.message("vdd=" + std::to_string(vdd_v) + ": pair grids done");

  characterize_triple(pool, sims, triple_axis, sigma_q,
                      stats::Rng::derive_seed(seed, kStreamTriple),
                      table.triple_pv, table.triple_nominal, cancel,
                      table.attempted_samples, table.failed_samples);
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
