#include "finser/core/array_mc.hpp"

#include <cmath>
#include <numbers>

#include "finser/obs/obs.hpp"
#include "finser/stats/direction.hpp"
#include "finser/util/error.hpp"

namespace finser::core {

namespace {

/// |z| bands of the track-aware importance proposal, geometric between
/// kFocusZMin and 1 so grazing bands (whose lateral sweep varies fastest)
/// get the same relative sweep resolution as steep ones. Tracks below
/// kFocusZMin fall back to plain uniform origins.
constexpr std::size_t kFocusBands = 24;
constexpr double kFocusZMin = 0.004;

/// Azimuth sectors (modulo pi — the origin strip of a track is symmetric
/// about its fin-layer crossing point, so opposite azimuths share a cover).
/// Each sector's boxes are dilated along the sector's central azimuth only;
/// without this the long grazing strips would be covered by quadratically
/// wasteful isotropic dilations. The strip cross width carries a
/// sweep * sin(pi / (2 * kFocusSectors)) azimuth-slack term, so more
/// sectors means proportionally tighter (smaller-area, higher-gain) covers.
constexpr std::size_t kFocusSectors = 32;

/// Uniform-floor mass of the origin proposal: with probability kFocusFloor
/// the origin is drawn uniformly over the source plane regardless of the
/// focus boxes, so q >= kFocusFloor / plane_area everywhere the uniform
/// density is positive and every likelihood-ratio weight is bounded by
/// 1 / kFocusFloor. This is what keeps the back-projected proposal exact:
/// crossing points whose back-projection leaves the source plane simply get
/// weight 0 (they are outside the target density's support).
constexpr double kFocusFloor = 0.1;

/// Mass of each focus plane's box component (FocusPlane alpha): the rest of
/// the plane's draws land uniformly on its expanded rectangle.
constexpr double kFocusFraction = 0.9;

/// Base lateral dilation of each sensitive-fin footprint box [nm]. Each
/// |z| band adds its lateral sweep (and the within-sector azimuth slack) on
/// top, and energy deposition happens strictly on the straight track, so
/// the base margin is pure safety slack and stays small.
constexpr double kFocusMarginNm = 5.0;

/// Half of the lateral distance a track with vertical component |z| sweeps
/// while descending through a fin layer of height \p layer_nm.
double half_sweep_nm(double abs_z, double layer_nm) {
  return 0.5 * layer_nm * std::sqrt(std::max(0.0, 1.0 - abs_z * abs_z)) /
         abs_z;
}

/// Monte-Carlo estimate of the *union* area of a plane's focus boxes.
/// focus_area() counts overlap with multiplicity, so under area-weighted
/// box sampling union = focus_area * E[1 / cover]. A fixed literal seed
/// keeps construction deterministic; 256 samples put the estimate within a
/// few percent, far finer than the saturation threshold it feeds.
double estimate_union_area(const stats::FocusPlane& plane) {
  if (plane.box_count() == 0 || plane.alpha() <= 0.0) return 0.0;
  stats::Rng rng(0x756e696f6eull);  // "union"
  constexpr int kSamples = 256;
  double inv_cover = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const stats::FocusPlane::Sample s =
        plane.sample(rng.uniform() * plane.alpha(), rng.uniform(),
                     rng.uniform());
    // Invert the mixture density for the cover count at the sample.
    const double cover =
        (plane.pdf(s.x, s.y) - (1.0 - plane.alpha()) / plane.plane_area()) *
        plane.focus_area() / plane.alpha();
    inv_cover += 1.0 / std::max(1.0, cover);
  }
  return plane.focus_area() * inv_cover / static_cast<double>(kSamples);
}

}  // namespace

ArrayMc::ArrayMc(const sram::ArrayLayout& layout,
                 const sram::CellSoftErrorModel& model, const ArrayMcConfig& config)
    : ArrayEngine(layout, model,
                  {.kind = "ArrayMc",
                   .unit_label = "strikes",
                   .span_name = "core.array_mc.run",
                   .runs_counter = "core.array_mc.runs",
                   .units_counter = "core.array_mc.strikes",
                   .units = config.strikes,
                   .chunk_size = config.chunk,
                   .threads = config.threads,
                   .straggling = config.straggling,
                   .source_margin_nm = config.source_margin_nm,
                   .ci = config.ci,
                   .cluster_surface = config.cluster.enabled()
                                          ? config.cluster_surface
                                          : nullptr}),
      config_(config) {
  FINSER_REQUIRE(config_.strikes > 0, "ArrayMc: need at least one strike");
  FINSER_REQUIRE(config_.chunk > 0, "ArrayMc: chunk must be positive");
  FINSER_REQUIRE(!model.tables.empty(), "ArrayMc: empty cell model");
  if (config_.cluster.enabled()) {
    FINSER_REQUIRE(config_.cluster_surface != nullptr,
                   "ArrayMc: cluster mode needs a cluster surface "
                   "(ArrayMcConfig::cluster_surface)");
    // point_fingerprint hashes the config's cluster knobs, so a surface
    // built with other ones would store results under a wrong identity.
    FINSER_REQUIRE(config_.cluster_surface->config() == config_.cluster,
                   "ArrayMc: cluster surface was built for a different "
                   "cluster config");
  }
  const geom::Aabb& fin_bounds = layout.bounds();
  plane_.x_lo = -config_.source_margin_nm;
  plane_.x_hi = layout.width_nm() + config_.source_margin_nm;
  plane_.y_lo = -config_.source_margin_nm;
  plane_.y_hi = layout.height_nm() + config_.source_margin_nm;
  plane_.z = fin_bounds.hi.z + config_.source_height_nm;
  reach_depth_nm_ = plane_.z - fin_bounds.lo.z;
  if (config_.angular == SourceAngularLaw::kBeam) {
    FINSER_REQUIRE(config_.beam_direction.z < 0.0,
                   "ArrayMc: beam direction must point downward");
    beam_dir_ = config_.beam_direction.normalized();
    beam_run_ = {beam_dir_.x / -beam_dir_.z, beam_dir_.y / -beam_dir_.z};
  }
  if (config_.position == SourcePositionSampling::kImportance) {
    // Focus boxes: lateral footprints of the fins that are sensitive in the
    // stored data state. The proposal targets the track's *crossing point*
    // of the fin layer (mid-depth), so each |z| band dilates the footprints
    // by the base margin plus half the band's worst-case lateral sweep —
    // grazing tracks cross fins far from where they pierce the layer, and
    // the wider boxes keep that mass inside the focus component.
    std::vector<stats::FocusBox> base;
    const geom::BoxSet& fins = layout.fins();
    for (std::uint32_t id = 0; id < fins.size(); ++id) {
      const sram::FinSite& site = layout.site(id);
      const bool bit = layout.bit(site.cell_row, site.cell_col);
      if (!sram::ArrayLayout::strike_index(site.role, bit)) continue;
      const geom::Aabb& b = fins.box(id);
      base.push_back({b.lo.x, b.hi.x, b.lo.y, b.hi.y});
    }
    const double layer_nm = fin_bounds.hi.z - fin_bounds.lo.z;
    focus_mid_depth_nm_ = config_.source_height_nm + 0.5 * layer_nm;
    const double x_lo = plane_.x_lo;
    const double x_hi = plane_.x_hi;
    const double y_lo = plane_.y_lo;
    const double y_hi = plane_.y_hi;
    // Sweeps are capped at the plane half-diagonal: a longer strip leaves
    // the plane anyway, and the band degrades gracefully toward uniform
    // sampling (weights near 1).
    const double sweep_cap =
        0.5 * std::hypot(x_hi - x_lo, y_hi - y_lo);
    const double m0 = kFocusMarginNm;
    const double band_ratio =
        std::pow(1.0 / kFocusZMin, 1.0 / static_cast<double>(kFocusBands));
    // Worst within-sector azimuth deviation from the sector center.
    const double sector_sin =
        std::sin(std::numbers::pi / (2.0 * static_cast<double>(kFocusSectors)));
    focus_bands_.reserve(kFocusBands * kFocusSectors);
    const double plane_area = (x_hi - x_lo) * (y_hi - y_lo);
    for (std::size_t k = 0; k < kFocusBands; ++k) {
      const double z_lo = kFocusZMin * std::pow(band_ratio,
                                                static_cast<double>(k));
      const double sweep = std::min(half_sweep_nm(z_lo, layer_nm), sweep_cap);
      // Crossing points of on-plane origins reach up to the back-projection
      // offset beyond the source rectangle, so the proposal lives on an
      // expanded rectangle — otherwise edge hits would be reachable only
      // through the uniform floor, at the worst-case weight.
      const double expand =
          std::min(focus_mid_depth_nm_ *
                       std::sqrt(std::max(0.0, 1.0 - z_lo * z_lo)) / z_lo,
                   2.0 * sweep_cap);
      const double ex_lo = x_lo - expand;
      const double ex_hi = x_hi + expand;
      const double ey_lo = y_lo - expand;
      const double ey_hi = y_hi + expand;
      for (std::size_t j = 0; j < kFocusSectors; ++j) {
        std::vector<stats::FocusBox> boxes;
        if (sweep <= m0) {
          // Near-vertical band: the sweep is smaller than the base margin,
          // so the azimuth decomposition buys nothing — an isotropic
          // dilation by (margin + sweep) is the tighter cover and every
          // sector shares it.
          const double d = m0 + sweep;
          boxes.reserve(base.size());
          for (const stats::FocusBox& b : base) {
            boxes.push_back({b.x_lo - d, b.x_hi + d, b.y_lo - d, b.y_hi + d});
          }
        } else {
          const double phi = (static_cast<double>(j) + 0.5) *
                             std::numbers::pi /
                             static_cast<double>(kFocusSectors);
          const double cx = std::abs(std::cos(phi));
          const double cy = std::abs(std::sin(phi));
          // Cover the +-(sweep + margin) strip along the sector azimuth with
          // axis-aligned segment boxes: one long box would bound a diagonal
          // strip by a near-square, wasting area quadratically. The segments
          // tile the needed half-length *exactly* (no overshoot — inflated
          // focus area is inflated weight everywhere), with segment length
          // tracking the strip's cross width so the stair-step slop stays a
          // small constant factor.
          const double cross = m0 + sweep * sector_sin;
          const double half_len = sweep + m0;
          const auto n_seg = std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     std::ceil(half_len / std::max(2.0 * cross, 30.0))));
          const double seg_half = half_len / static_cast<double>(n_seg);
          boxes.reserve(base.size() * n_seg);
          for (const stats::FocusBox& b : base) {
            for (std::size_t i = 0; i < n_seg; ++i) {
              // Segment centers tile [-half_len, +half_len] with spacing
              // 2*seg_half; half-extent seg_half along the azimuth, `cross`
              // across (in the rotated frame), re-boxed axis-aligned.
              const double t = -half_len +
                               (2.0 * static_cast<double>(i) + 1.0) * seg_half;
              const double hx = seg_half * cx + cross * cy;
              const double hy = seg_half * cy + cross * cx;
              boxes.push_back({b.x_lo + t * std::cos(phi) - hx,
                               b.x_hi + t * std::cos(phi) + hx,
                               b.y_lo + t * std::sin(phi) - hy,
                               b.y_hi + t * std::sin(phi) + hy});
            }
          }
        }
        stats::FocusPlane plane(ex_lo, ex_hi, ey_lo, ey_hi, std::move(boxes),
                                kFocusFraction);
        if (estimate_union_area(plane) >= 0.8 * plane_area) {
          // Saturated cover (deep-grazing bands): the strips blanket most
          // of the source plane, so focusing cannot beat uniform and the
          // cover-count fluctuations only add weight noise. Degrade this
          // band/sector to the exact uniform origin proposal (alpha 0 —
          // simulate_chunk samples the origin directly, weight 1). The
          // criterion is the box *union* vs the source-plane area: grazing
          // strips overlap heavily, and cover-proportional sampling of the
          // overlap is exactly how the proposal tracks the track-count
          // density, so multiplicity-counted area must not trip the guard.
          focus_bands_.emplace_back(x_lo, x_hi, y_lo, y_hi,
                                    std::vector<stats::FocusBox>{}, 0.0);
        } else {
          focus_bands_.push_back(std::move(plane));
        }
      }
    }
  }
}

/// Fingerprint of everything an ArrayMc result depends on (the `array_bin`
/// artifact key). Thread count and chunk *schedule* are excluded by
/// construction; the chunk *size* is included because it defines the unit
/// decomposition. The domain string keeps its historical "ckpt" spelling:
/// changing it would orphan every stored bin.
std::uint64_t ArrayMc::point_fingerprint(const EnergyPoint& point,
                                         std::uint64_t seed) const {
  util::Fnv1a h;
  h.str("finser.array_mc.ckpt.v3");
  h.u64(model().config_fingerprint);
  h.u64(static_cast<std::uint64_t>(point.species));
  h.f64(point.e_mev);
  h.u64(seed);
  h.u64(config_.strikes);
  h.u64(config_.chunk);
  h.u64(static_cast<std::uint64_t>(config_.angular));
  h.u64(static_cast<std::uint64_t>(config_.position));
  h.f64(config_.beam_direction.x)
      .f64(config_.beam_direction.y)
      .f64(config_.beam_direction.z);
  h.u64(static_cast<std::uint64_t>(config_.straggling));
  h.f64(config_.source_margin_nm);
  h.f64(config_.source_height_nm);
  h.u64(static_cast<std::uint64_t>(config_.sampling.qmc));
  h.f64(config_.ci.target);
  h.u64(config_.ci.min_chunks);
  h.f64(config_.ci.growth);
  h.u64(static_cast<std::uint64_t>(config_.cluster.mode));
  h.f64(config_.cluster.share_fraction);
  h.u64(config_.cluster.pv_samples);
  h.f64(config_.cluster.quantum_fc);
  hash_layout(h, layout());
  return h.hash();
}

void ArrayMc::simulate_chunk(const exec::ChunkRange& r,
                             const EnergyPoint& point, std::uint64_t seed,
                             stats::Rng& rng, WorkerScratch& ws,
                             McPartial& part) const {
  const double z_source = plane_.z;
  const double x_lo = plane_.x_lo;
  const double x_hi = plane_.x_hi;
  const double y_lo = plane_.y_lo;
  const double y_hi = plane_.y_hi;
  const geom::UniformGrid& fin_index = *layout().fin_index();

  // Scrambled Sobol point set, keyed by the run seed only: point s is the
  // same value in every chunk, so QMC positions inherit the chunking
  // independence of the RNG streams.
  const bool use_sobol = config_.sampling.qmc == stats::QmcMode::kSobol;
  std::optional<stats::SobolSequence> sobol;
  if (use_sobol) {
    sobol.emplace(stats::Rng::derive_seed(seed, 0x536f626f6cull));  // "Sobol"
  }
  std::size_t culled = 0;

  for (std::size_t s = r.begin; s < r.end; ++s) {
    double w = 1.0;  // Likelihood-ratio weight of this strike.

    // Step 1 (paper Sec. 5.1): random particle position and direction.
    // The track-aware importance proposal needs the direction before the
    // origin; uniform sampling draws position first (the legacy stream
    // order).
    geom::Ray ray;
    if (config_.position == SourcePositionSampling::kImportance) {
      switch (config_.angular) {
        case SourceAngularLaw::kIsotropic: {
          // Track-aware importance oversamples the grazing tail: those
          // tracks sweep across many cells and dominate the POF variance.
          const stats::DirectionSample ds =
              stats::grazing_hemisphere_down(rng, stats::kGrazingBias);
          ray.dir = ds.dir;
          w *= ds.weight;
          break;
        }
        case SourceAngularLaw::kCosine:
          ray.dir = stats::cosine_hemisphere_down(rng);
          break;
        case SourceAngularLaw::kBeam:
          ray.dir = beam_dir_;
          break;
      }
      if (ray.dir.z == 0.0) ray.dir.z = -1e-12;  // Guard true horizontals.
      const double u_sel = use_sobol ? sobol->point(s, 0) : rng.uniform();
      const double u_x = use_sobol ? sobol->point(s, 1) : rng.uniform();
      const double u_y = use_sobol ? sobol->point(s, 2) : rng.uniform();
      const double abs_z = -ray.dir.z;
      if (abs_z < kFocusZMin) {
        // Near-horizontal tracks sweep laterally without bound; their
        // contributing origins are spread over the whole plane, so the
        // proposal degrades to the exact uniform law (weight 1).
        ray.origin = {x_lo + (x_hi - x_lo) * u_x, y_lo + (y_hi - y_lo) * u_y,
                      z_source};
      } else {
        const double band_log_ratio =
            std::log(1.0 / kFocusZMin) / static_cast<double>(kFocusBands);
        const std::size_t band = std::min<std::size_t>(
            kFocusBands - 1,
            static_cast<std::size_t>(std::log(abs_z / kFocusZMin) /
                                     band_log_ratio));
        double phi = std::atan2(ray.dir.y, ray.dir.x);
        if (phi < 0.0) phi += std::numbers::pi;
        const std::size_t sector = std::min<std::size_t>(
            kFocusSectors - 1,
            static_cast<std::size_t>(phi / std::numbers::pi *
                                     static_cast<double>(kFocusSectors)));
        const stats::FocusPlane& plane =
            focus_bands_[band * kFocusSectors + sector];
        if (plane.alpha() == 0.0) {
          // Saturated band/sector (see the constructor): the exact uniform
          // origin law, sampled directly — no back-projection, weight 1.
          ray.origin = {x_lo + (x_hi - x_lo) * u_x,
                        y_lo + (y_hi - y_lo) * u_y, z_source};
        } else {
          // Lateral displacement from the origin to the track's fin-layer
          // mid-depth crossing: the proposal samples the crossing point T
          // and back-projects, origin = T - off. For a fixed direction that
          // is a translation, so q_origin(x | dir) = q_T(x + off) exactly.
          const double off_x = focus_mid_depth_nm_ * ray.dir.x / abs_z;
          const double off_y = focus_mid_depth_nm_ * ray.dir.y / abs_z;
          double ox, oy;
          if (u_sel < kFocusFloor) {
            ox = x_lo + (x_hi - x_lo) * u_x;
            oy = y_lo + (y_hi - y_lo) * u_y;
          } else {
            const double u = (u_sel - kFocusFloor) / (1.0 - kFocusFloor);
            const stats::FocusPlane::Sample ps = plane.sample(u, u_x, u_y);
            ox = ps.x - off_x;
            oy = ps.y - off_y;
            if (ps.focused) {
              FINSER_OBS_COUNT("core.array_mc.vr.focus_draws", 1);
            }
          }
          if (ox < x_lo || ox > x_hi || oy < y_lo || oy > y_hi) {
            // Back-projected origin left the source plane: the sample sits
            // outside the target density's support, so its likelihood-ratio
            // weight is 0. Record the strike (it is part of the sample
            // count) and skip the physics.
            begin_strike(ws);
            score(ws, part, 0.0, /*weighted=*/true);
            continue;
          }
          const double plane_area = (x_hi - x_lo) * (y_hi - y_lo);
          const double q =
              kFocusFloor / plane_area +
              (1.0 - kFocusFloor) * plane.pdf(ox + off_x, oy + off_y);
          w *= (1.0 / plane_area) / q;
          ray.origin = {ox, oy, z_source};
        }
      }
    } else {
      const double ox = use_sobol ? x_lo + (x_hi - x_lo) * sobol->point(s, 1)
                                  : rng.uniform(x_lo, x_hi);
      const double oy = use_sobol ? y_lo + (y_hi - y_lo) * sobol->point(s, 2)
                                  : rng.uniform(y_lo, y_hi);
      stats::PolarDirection polar;
      stats::LateralRun run = beam_run_;
      if (config_.angular != SourceAngularLaw::kBeam) {
        polar = config_.angular == SourceAngularLaw::kIsotropic
                    ? stats::draw_isotropic_hemisphere_down(rng)
                    : stats::draw_cosine_hemisphere_down(rng);
        run = stats::lateral_run(polar);
      }
      if (fin_index.reach_empty(ox, oy, reach_depth_nm_ * run.x,
                                reach_depth_nm_ * run.y)) {
        // No fin footprint within the track's reach: a provable miss. A
        // transported miss draws nothing more and scores exactly this.
        ++culled;
        begin_strike(ws);
        score(ws, part, 1.0, /*weighted=*/false);
        continue;
      }
      ray.origin = {ox, oy, z_source};
      ray.dir = config_.angular == SourceAngularLaw::kBeam
                    ? beam_dir_
                    : stats::direction(polar);
      if (ray.dir.z == 0.0) ray.dir.z = -1e-12;  // Guard true horizontals.
    }

    // Step 2-3: transport, accumulate sensitive-transistor charges per cell.
    ws.transporter.transport(ray, point.species, point.e_mev, rng, ws.track);

    begin_strike(ws);
    add_deposits(ws.track, ws);
    if (!ws.touched_cells.empty()) {
      part.weighted_hits += w;
      FINSER_OBS_COUNT("core.array_mc.strike_hits", 1);
    }

    // Steps 4-5: cell POFs from the LUTs, combined via Eqs. 4-6, for every
    // supply voltage and both process-variation modes. Only strikes whose
    // weight is not exactly 1 take the weighted form of multiplicity bin 0
    // (PofAccumulator::add); that choice fixes result bits.
    score(ws, part, w, /*weighted=*/w != 1.0);
  }
  FINSER_OBS_COUNT("core.array_mc.strikes_culled", culled);
}

}  // namespace finser::core
