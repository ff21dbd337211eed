#include "finser/phys/track.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "finser/phys/collection.hpp"
#include "finser/util/error.hpp"

namespace finser::phys {

namespace {

Transporter::Config with_default_materials(Transporter::Config c) {
  if (c.fin_material == nullptr) c.fin_material = &silicon();
  if (c.background_material == nullptr) c.background_material = &silicon_dioxide();
  return c;
}

}  // namespace

Transporter::PerSpecies Transporter::evaluators(const Material& m) {
  return {EnergyLoss(Species::kProton, m), EnergyLoss(Species::kAlpha, m),
          EnergyLoss(Species::kSiRecoil, m), EnergyLoss(Species::kMgRecoil, m),
          EnergyLoss(Species::kNeutron, m)};
}

Transporter::Transporter(const geom::BoxSet& fins)
    : Transporter(fins, Config{}) {}

Transporter::Transporter(const geom::BoxSet& fins, const Config& config)
    : Transporter(fins.empty() ? nullptr
                               : std::make_shared<const geom::UniformGrid>(fins),
                  config) {}

Transporter::Transporter(std::shared_ptr<const geom::UniformGrid> index,
                         const Config& config)
    : config_(with_default_materials(config)),
      grid_(std::move(index)),
      fin_loss_(evaluators(*config_.fin_material)),
      background_loss_(evaluators(*config_.background_material)) {
  FINSER_REQUIRE(grid_ != nullptr, "Transporter: empty fin set");
  FINSER_REQUIRE(config_.cutoff_mev > 0.0, "Transporter: cutoff must be positive");
}

void Transporter::transport(const geom::Ray& ray, Species s, double e_mev,
                            stats::Rng& rng, TrackResult& result) {
  FINSER_REQUIRE(e_mev > 0.0, "transport: non-positive kinetic energy");
  const double dir_norm = ray.dir.norm();
  FINSER_REQUIRE(std::abs(dir_norm - 1.0) < 1e-9,
                 "transport: ray direction must be unit length");
  const auto species = static_cast<std::size_t>(s);
  FINSER_REQUIRE(species < fin_loss_.size(), "transport: unknown species");

  result.deposits.clear();
  result.exit_energy_mev = 0.0;
  result.stopped_inside = false;
  grid_->query(ray, scratch_hits_);

  const EnergyLoss& fin_loss = fin_loss_[species];
  const EnergyLoss& bg_loss = background_loss_[species];
  const Material& fin_mat = *config_.fin_material;
  // Terms of a segment entered at energy e; those at the track's entry
  // energy come from (and refresh) the per-species memo.
  const auto terms_at = [e_mev](const EnergyLoss& loss,
                                EnergyLoss::Terms& memo, double e) {
    if (e != e_mev) return loss.at(e);
    if (memo.e_mev != e) memo = loss.at(e);
    return memo;
  };

  double e = e_mev;
  double t_cursor = 0.0;  // Track parameter [nm] processed so far.

  for (const geom::BoxHit& hit : scratch_hits_) {
    if (e <= config_.cutoff_mev) break;
    // Fins are disjoint; clip defensively in case of touching boxes.
    const double t_in = std::max(hit.interval.t_in, t_cursor);
    const double t_out = std::max(hit.interval.t_out, t_in);
    if (t_in < 0.0) continue;

    // 1) Background segment up to the fin entry: degrades energy only.
    const double bg_len = t_in - t_cursor;
    if (bg_len > 0.0) {
      const EnergyLoss::Terms entry =
          terms_at(bg_loss, background_entry_[species], e);
      const double mean_bg = bg_loss.csda_loss(entry, bg_len);
      e -= bg_loss.sample_loss(config_.straggling, rng, entry, mean_bg, bg_len);
      if (e <= config_.cutoff_mev) {
        result.stopped_inside = true;
        return;
      }
    }

    // 2) Fin segment: deposit collectable ionizing energy.
    const double fin_len = t_out - t_in;
    if (fin_len > 0.0) {
      const EnergyLoss::Terms entry = terms_at(fin_loss, fin_entry_[species], e);
      const double mean_fin = fin_loss.csda_loss(entry, fin_len);
      const double loss_fin = fin_loss.sample_loss(config_.straggling, rng,
                                                   entry, mean_fin, fin_len);
      if (loss_fin > 0.0) {
        // Ionizing fraction: electronic loss plus the Lindhard share of the
        // nuclear (recoil-cascade) loss.
        const double ionizing_mev = loss_fin * fin_loss.ionizing_fraction(entry);
        result.deposits.push_back(FinDeposit{
            hit.id, fin_len, ionizing_mev,
            eh_pairs_from_energy(ionizing_mev, fin_mat)});
      }
      e -= loss_fin;
      if (e <= config_.cutoff_mev) {
        result.stopped_inside = true;
        return;
      }
    }
    t_cursor = t_out;
  }

  result.exit_energy_mev = std::max(e, 0.0);
}

}  // namespace finser::phys
