#include "finser/core/neutron_mc.hpp"

#include "finser/stats/direction.hpp"
#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::core {

NeutronArrayMc::NeutronArrayMc(const sram::ArrayLayout& layout,
                               const sram::CellSoftErrorModel& model,
                               const NeutronMcConfig& config)
    : ArrayEngine(layout, model,
                  {.kind = "NeutronArrayMc",
                   .unit_label = "histories",
                   .span_name = "core.neutron_mc.run",
                   .runs_counter = "core.neutron_mc.runs",
                   .units_counter = "core.neutron_mc.histories",
                   .units = config.histories,
                   .chunk_size = config.chunk,
                   .threads = config.threads,
                   .straggling = config.straggling,
                   .source_margin_nm = config.source_margin_nm,
                   .ci = config.ci,
                   .cluster_surface = nullptr}),
      config_(config) {
  FINSER_REQUIRE(config_.histories > 0, "NeutronArrayMc: need >= 1 history");
  FINSER_REQUIRE(config_.chunk > 0, "NeutronArrayMc: chunk must be positive");
  FINSER_REQUIRE(config_.interaction_depth_um > 0.0,
                 "NeutronArrayMc: interaction depth must be positive");
  FINSER_REQUIRE(!model.tables.empty(), "NeutronArrayMc: empty cell model");
}

/// Result fingerprint — see ArrayMc::point_fingerprint for the inclusion
/// policy. The point's species is not hashed: every history is a neutron.
std::uint64_t NeutronArrayMc::point_fingerprint(const EnergyPoint& point,
                                                std::uint64_t seed) const {
  util::Fnv1a h;
  h.str("finser.neutron_mc.ckpt.v2");
  h.u64(model().config_fingerprint);
  h.f64(point.e_mev);
  h.u64(seed);
  h.u64(config_.histories);
  h.u64(config_.chunk);
  h.u64(static_cast<std::uint64_t>(config_.angular));
  h.u64(static_cast<std::uint64_t>(config_.straggling));
  h.f64(config_.interaction_depth_um);
  h.f64(config_.source_margin_nm);
  h.f64(config_.ci.target);
  h.u64(config_.ci.min_chunks);
  h.f64(config_.ci.growth);
  hash_layout(h, layout());
  return h.hash();
}

void NeutronArrayMc::simulate_chunk(const exec::ChunkRange& r,
                                    const EnergyPoint& point,
                                    std::uint64_t /*seed*/, stats::Rng& rng,
                                    WorkerScratch& ws, McPartial& part) const {
  const double e_n_mev = point.e_mev;

  // Pure functions of (config, layout, energy) — recomputing them per chunk
  // instead of per run is bit-exact and keeps the chunk self-contained.
  const geom::Aabb fin_bounds = layout().bounds();
  const double z_top = fin_bounds.hi.z;
  const double z_bottom = z_top - util::um_to_nm(config_.interaction_depth_um);
  const double x_lo = -config_.source_margin_nm;
  const double x_hi = layout().width_nm() + config_.source_margin_nm;
  const double y_lo = -config_.source_margin_nm;
  const double y_hi = layout().height_nm() + config_.source_margin_nm;

  const double sigma_per_cm = interactions_.macroscopic_per_cm(e_n_mev);

  for (std::size_t h = r.begin; h < r.end; ++h) {
    // Incident neutron on the source plane just above the fins.
    geom::Vec3 dir = config_.angular == SourceAngularLaw::kIsotropic
                         ? stats::isotropic_hemisphere_down(rng)
                         : stats::cosine_hemisphere_down(rng);
    if (dir.z >= -1e-6) dir.z = -1e-6;
    dir = dir.normalized();
    const geom::Vec3 entry{rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi),
                           z_top};

    // Forced interaction along the chord through the slab.
    const double chord_nm = (z_top - z_bottom) / (-dir.z);
    const double weight = sigma_per_cm * util::nm_to_cm(chord_nm);
    const geom::Vec3 interaction_point = entry + dir * (rng.uniform() * chord_nm);

    const phys::NeutronInteraction interaction =
        interactions_.sample(e_n_mev, dir, rng);

    // Transport every charged secondary, accumulating per-cell charges.
    begin_strike(ws);
    for (const phys::NeutronSecondary& sec : interaction.secondaries) {
      if (sec.energy_mev <= 1e-5) continue;
      const geom::Ray ray{interaction_point, sec.direction};
      ws.transporter.transport(ray, sec.species, sec.energy_mev, rng,
                               ws.track);
      add_deposits(ws.track, ws);
    }
    if (!ws.touched_cells.empty()) {
      // Per-history hit mass for the diagnostic hit fraction: the history
      // itself is analog (only the interaction is forced), so unit mass.
      part.weighted_hits += 1.0;
    }

    // Every history is weighted, even one whose interaction weight is 1.
    score(ws, part, weight, /*weighted=*/true);
  }
}

}  // namespace finser::core
