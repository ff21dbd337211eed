#include "finser/core/array_engine.hpp"

#include <algorithm>
#include <cmath>

#include "finser/ckpt/scheduler.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/phys/collection.hpp"
#include "finser/util/error.hpp"

namespace finser::core {

// --- PofAccumulator ---------------------------------------------------------

namespace {

void require_weight(double weight) {
  FINSER_REQUIRE(weight >= 0.0 && std::isfinite(weight),
                 "PofAccumulator: weight must be finite and >= 0");
}

}  // namespace

void PofAccumulator::add(const CombinedPof& pof, const Multiplicity& dist,
                         double weight, bool weighted) {
  require_weight(weight);
  tot_.add(weight * pof.tot);
  seu_.add(weight * pof.seu);
  mbu_.add(weight * pof.mbu);
  sum_w_ += weight;
  sum_w2_ += weight * weight;
  double flipped = 0.0;
  for (std::size_t n = 1; n < kMaxMultiplicity; ++n) {
    const double mass = weight * dist[n];
    mult_[n] += mass;
    flipped += mass;
  }
  mult_[0] += weighted ? 1.0 - flipped : dist[0];
}

void PofAccumulator::add_miss(double weight) {
  require_weight(weight);
  tot_.add(0.0);
  seu_.add(0.0);
  mbu_.add(0.0);
  sum_w_ += weight;
  sum_w2_ += weight * weight;
  mult_[0] += 1.0;
}

void PofAccumulator::merge(const PofAccumulator& other) {
  tot_.merge(other.tot_);
  seu_.merge(other.seu_);
  mbu_.merge(other.mbu_);
  sum_w_ += other.sum_w_;
  sum_w2_ += other.sum_w2_;
  for (std::size_t n = 0; n < kMaxMultiplicity; ++n) mult_[n] += other.mult_[n];
}

PofEstimate PofAccumulator::finalize(std::size_t strikes,
                                     double hit_fraction) const {
  PofEstimate e;
  e.tot = tot_.mean();
  e.seu = seu_.mean();
  e.mbu = mbu_.mean();
  e.tot_se = tot_.stderr_of_mean();
  e.seu_se = seu_.stderr_of_mean();
  e.mbu_se = mbu_.stderr_of_mean();
  e.hit_fraction = hit_fraction;
  e.strikes = strikes;
  e.ess = ess();
  if (strikes > 0) {
    for (std::size_t n = 0; n < kMaxMultiplicity; ++n) {
      e.multiplicity[n] = mult_[n] / static_cast<double>(strikes);
    }
  }
  return e;
}

// --- ArrayMcResult codec ----------------------------------------------------

std::vector<std::uint8_t> encode_result(const ArrayMcResult& result) {
  util::ByteWriter w;
  w.f64_vec(result.vdds);
  w.u64(result.est.size());
  for (const auto& modes : result.est) {
    for (const PofEstimate& e : modes) {
      w.f64(e.tot);
      w.f64(e.seu);
      w.f64(e.mbu);
      w.f64(e.tot_se);
      w.f64(e.seu_se);
      w.f64(e.mbu_se);
      w.f64(e.hit_fraction);
      w.u64(e.strikes);
      w.f64(e.ess);
      for (const double m : e.multiplicity) w.f64(m);
    }
  }
  w.u64(result.units_total);
  w.u64(result.units_used);
  w.u64(result.stopped_early ? 1 : 0);
  return w.take();
}

ArrayMcResult decode_result(util::ByteReader& r) {
  ArrayMcResult result;
  result.vdds = r.f64_vec();
  const std::uint64_t nv = r.u64();
  FINSER_REQUIRE(nv == result.vdds.size(),
                 "decode_result: estimate/vdd count mismatch");
  result.est.resize(nv);
  for (auto& modes : result.est) {
    for (PofEstimate& e : modes) {
      e.tot = r.f64();
      e.seu = r.f64();
      e.mbu = r.f64();
      e.tot_se = r.f64();
      e.seu_se = r.f64();
      e.mbu_se = r.f64();
      e.hit_fraction = r.f64();
      e.strikes = static_cast<std::size_t>(r.u64());
      e.ess = r.f64();
      for (double& m : e.multiplicity) m = r.f64();
    }
  }
  result.units_total = static_cast<std::size_t>(r.u64());
  result.units_used = static_cast<std::size_t>(r.u64());
  result.stopped_early = r.u64() != 0;
  return result;
}

// --- McPartial --------------------------------------------------------------

McPartial McPartial::merge(McPartial a, McPartial b) {
  if (a.acc.empty()) return b;
  for (std::size_t v = 0; v < a.acc.size(); ++v) {
    for (std::size_t m = 0; m < 2; ++m) a.acc[v][m].merge(b.acc[v][m]);
  }
  a.weighted_hits += b.weighted_hits;
  return a;
}

// --- ArrayEngine ------------------------------------------------------------

ArrayEngine::WorkerScratch::WorkerScratch(const sram::ArrayLayout& layout,
                                          const phys::Transporter::Config& tc)
    : transporter(layout.fin_index(), tc),
      cell_charges(layout.cell_count(), sram::StrikeCharges{}) {}

ArrayEngine::ArrayEngine(const sram::ArrayLayout& layout,
                         const sram::CellSoftErrorModel& model,
                         const Spec& spec)
    : layout_(&layout), model_(&model), spec_(spec), vdds_(model.vdds()) {
  tables_.reserve(vdds_.size());
  for (const double vdd : vdds_) tables_.push_back(&model.at_vdd(vdd));
}

ArrayEngine::~ArrayEngine() = default;

double ArrayEngine::sampled_area_nm2() const {
  return (layout_->width_nm() + 2.0 * spec_.source_margin_nm) *
         (layout_->height_nm() + 2.0 * spec_.source_margin_nm);
}

void ArrayEngine::begin_strike(WorkerScratch& ws) const {
  for (const std::uint32_t c : ws.touched_cells) {
    ws.cell_charges[c] = sram::StrikeCharges{};
  }
  ws.touched_cells.clear();
}

void ArrayEngine::add_deposits(const phys::TrackResult& track,
                               WorkerScratch& ws) const {
  for (const phys::FinDeposit& dep : track.deposits) {
    const sram::FinSite& site = layout_->site(dep.fin_id);
    const bool bit = layout_->bit(site.cell_row, site.cell_col);
    const auto idx = sram::ArrayLayout::strike_index(site.role, bit);
    if (!idx) continue;  // Transistor not sensitive in this data state.
    const std::uint32_t cell =
        site.cell_row * static_cast<std::uint32_t>(layout_->cols()) +
        site.cell_col;
    sram::StrikeCharges& ch = ws.cell_charges[cell];
    if (!ch.any()) ws.touched_cells.push_back(cell);
    const double q_fc = phys::charge_fc_from_pairs(dep.eh_pairs) *
                        layout_->collection_efficiency(dep.fin_id);
    switch (*idx) {
      case 0: ch.i1_fc += q_fc; break;
      case 1: ch.i2_fc += q_fc; break;
      case 2: ch.i3_fc += q_fc; break;
      default: break;
    }
  }
}

void ArrayEngine::score(WorkerScratch& ws, McPartial& part, double weight,
                        bool weighted) const {
  if (ws.touched_cells.empty()) {
    for (auto& modes : part.acc) {
      for (PofAccumulator& a : modes) a.add_miss(weight);
    }
    return;
  }

  // Group the touched cells. With a cluster surface the group is the layout
  // tile, cells ascending within a tile — the canonical order the surface
  // keys expect (cell-id order within a tile is local-index order); one sort
  // over (tile, cell) pairs does both, and strikes touch a handful of cells.
  // Without one every cell is its own group, in deposit order.
  sram::ClusterPofSurface* const surface = spec_.cluster_surface;
  const std::size_t tr = surface != nullptr ? surface->tile_rows() : 1;
  const std::size_t tc = surface != nullptr ? surface->tile_cols() : 1;
  const auto cols = static_cast<std::uint32_t>(layout_->cols());
  ws.tile_order.clear();
  for (const std::uint32_t c : ws.touched_cells) {
    const auto group =
        surface != nullptr
            ? sram::cluster_tile_id(c / cols, c % cols, layout_->cols(), tr, tc)
            : static_cast<std::uint32_t>(ws.tile_order.size());
    ws.tile_order.emplace_back(group, c);
  }
  if (surface != nullptr) std::sort(ws.tile_order.begin(), ws.tile_order.end());

  for (std::size_t v = 0; v < vdds_.size(); ++v) {
    const sram::PofTable& table = *tables_[v];
    for (std::size_t mode = 0; mode < 2; ++mode) {
      const bool with_pv = (mode == kModeWithPv);
      // A singleton group adds its cell's LUT POF to the independent set;
      // a multi-cell tile contributes one joint flip-count distribution.
      ws.pofs.clear();
      PofAccumulator::Multiplicity dist{};
      dist[0] = 1.0;
      for (std::size_t i = 0; i < ws.tile_order.size();) {
        std::size_t j = i + 1;
        while (j < ws.tile_order.size() &&
               ws.tile_order[j].first == ws.tile_order[i].first) {
          ++j;
        }
        if (j - i == 1) {
          const double p =
              table.pof(ws.cell_charges[ws.tile_order[i].second], with_pv);
          if (p > 0.0) ws.pofs.push_back(p);
        } else {
          ws.cluster_query.clear();
          for (std::size_t k = i; k < j; ++k) {
            const std::uint32_t c = ws.tile_order[k].second;
            ws.cluster_query.push_back(sram::ClusterPofSurface::CellCharge{
                sram::cluster_local_index(c / cols, c % cols, tr, tc),
                ws.cell_charges[c]});
          }
          surface->flip_count_distribution(vdds_[v], with_pv, ws.cluster_query,
                                           ws.cluster_dist);
          dist = convolve_multiplicity(dist, ws.cluster_dist);
        }
        i = j;
      }
      // Independent cells combine by Eqs. 4-6 and the Poisson-binomial DP;
      // with a surface the POFs read off the convolved vector instead. The
      // two round differently, so each path keeps its own.
      CombinedPof combined;
      if (surface == nullptr) {
        if (!ws.pofs.empty()) {
          combined = combine_eqs_4_to_6(ws.pofs);
          dist = multiplicity_distribution(ws.pofs);
        }
      } else {
        if (!ws.pofs.empty()) {
          const auto singles = multiplicity_distribution(ws.pofs);
          ws.cluster_dist.assign(singles.begin(), singles.end());
          dist = convolve_multiplicity(dist, ws.cluster_dist);
        }
        const double tot = 1.0 - dist[0];
        combined = {tot, dist[1], std::max(tot - dist[1], 0.0)};
      }
      part.acc[v][mode].add(combined, dist, weight, weighted);
    }
  }
}

ArrayMcResult ArrayEngine::run_point(const EnergyPoint& point,
                                     std::uint64_t seed,
                                     const exec::ProgressSink& progress,
                                     const exec::CancelToken* cancel) const {
  FINSER_REQUIRE(point.e_mev > 0.0,
                 std::string(spec_.kind) + "::run: non-positive energy");
  obs::ScopedSpan run_span(spec_.span_name);
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter(spec_.runs_counter).add(1);
    reg.counter(spec_.units_counter).add(spec_.units);
  }

  const std::size_t nv = vdds_.size();
  const std::size_t units = spec_.units;
  const std::size_t chunk = spec_.chunk_size;
  phys::Transporter::Config tc;
  tc.straggling = spec_.straggling;

  exec::ThreadPool pool(spec_.threads);
  std::vector<std::unique_ptr<WorkerScratch>> workers(pool.thread_count());
  progress.start_phase(spec_.unit_label, units);

  // Chunk i (the last one may be ragged) consumes stats::Rng::stream(seed, i)
  // and nothing else, and the partials merge in chunk-index order — so the
  // result is bit-identical for any thread count.
  const auto process_chunk = [&](const exec::ChunkRange& r) -> McPartial {
    std::unique_ptr<WorkerScratch>& slot = workers[r.worker];
    if (!slot) slot = std::make_unique<WorkerScratch>(*layout_, tc);
    WorkerScratch& ws = *slot;
    stats::Rng rng = stats::Rng::stream(seed, r.index);
    McPartial part(nv);
    simulate_chunk(r, point, seed, rng, ws, part);
    progress.tick(r.end - r.begin);
    return part;
  };

  // A fixed budget is one round over every chunk. With CI stopping enabled
  // the chunks run in deterministic geometric rounds, and after each
  // boundary the merged prefix decides whether the remaining budget can be
  // skipped. The decision depends only on the chunk partials (merged
  // pairwise in index order), so it is identical at any thread count and
  // any worker count — the same invariance class as the estimates.
  const stats::CiStopConfig& ci = spec_.ci;
  const std::size_t n_chunks = (units + chunk - 1) / chunk;
  const std::vector<std::size_t> bounds =
      ci.enabled() ? ckpt::round_boundaries(
                         n_chunks, ckpt::AdaptiveSchedule{ci.min_chunks,
                                                          ci.growth})
                   : std::vector<std::size_t>{n_chunks};
  const auto converged = [&](std::size_t done,
                             const std::vector<McPartial>& parts) {
    const McPartial prefix = exec::reduce_pairwise(
        std::vector<McPartial>(
            parts.begin(), parts.begin() + static_cast<std::ptrdiff_t>(done)),
        McPartial::merge);
    double worst = 0.0;
    for (const auto& modes : prefix.acc) {
      for (const PofAccumulator& a : modes) {
        worst = std::max(worst, a.rel_halfwidth());
      }
    }
    return worst <= ci.target;
  };
  std::vector<McPartial> parts = ckpt::run_rounds<McPartial>(
      pool, units, chunk, bounds, cancel, process_chunk, converged);
  const bool stopped_early = parts.size() < n_chunks;
  const std::size_t used_units = std::min(units, parts.size() * chunk);
  const McPartial total =
      exec::reduce_pairwise(std::move(parts), McPartial::merge);
  if (ci.enabled()) {
    if (stopped_early) FINSER_OBS_COUNT("core.mc.vr.stopped_early", 1);
    FINSER_OBS_COUNT("core.mc.vr.units_saved", units - used_units);
  }
  ArrayMcResult result;
  result.vdds = vdds_;
  result.est.resize(nv);
  result.units_total = units;
  result.units_used = used_units;
  result.stopped_early = stopped_early;
  // The weighted hit mass is the unbiased numerator under importance
  // sampling; for unit weights it is a sum of ones, the exact count of
  // hitting strikes.
  const double hit_fraction =
      total.weighted_hits / static_cast<double>(used_units);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      result.est[v][mode] =
          total.acc[v][mode].finalize(used_units, hit_fraction);
      FINSER_OBS_RECORD("core.mc.vr.ess",
                        static_cast<std::uint64_t>(result.est[v][mode].ess));
    }
  }
  return result;
}

void hash_layout(util::Fnv1a& h, const sram::ArrayLayout& layout) {
  h.u64(layout.rows());
  h.u64(layout.cols());
  h.f64(layout.width_nm()).f64(layout.height_nm());
  for (std::size_t row = 0; row < layout.rows(); ++row) {
    for (std::size_t col = 0; col < layout.cols(); ++col) {
      h.u64(layout.bit(row, col) ? 1 : 0);
    }
  }
  return;
}

}  // namespace finser::core
