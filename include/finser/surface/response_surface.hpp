#pragma once
/// \file response_surface.hpp
/// \brief Unified cached-response surface over (Vdd, temperature, cell
/// variant, energy bin).
///
/// Before this layer existed the repo had three independent cached-response
/// paths: `sram::PofTable` (per-cell POF LUT), `sram::ClusterPofSurface`
/// (joint tile surfaces) and `SerFlow`'s per-config FIT assembly. A
/// ResponseSurface sits on top of all three: it is the *output-side* grid a
/// query consumer sees — deterministic POF and FIT channels tabulated over
/// the scenario's (Vdd × energy-bin) grid, one surface per (scenario,
/// species, temperature) with the cell variant and spectrum folded into its
/// content-address fingerprint. Batch campaigns build surfaces with
/// `from_sweep` and emit their CSV rows from the surface; `finser_cli serve`
/// answers queries from the very same object (loaded back from the
/// `response_surface` artifact kind), so grid-point answers are byte-
/// identical between the two by construction.
///
/// Interpolation is byte-stable: queries go through `util::Axis::locate`
/// and a lerp that short-circuits exact nodes (frac == 0 returns the node
/// value itself, frac == 1 likewise), because IEEE-754 `v0 + 1.0*(v1-v0)`
/// is not guaranteed to reproduce `v1` bit-for-bit. The energy axis
/// interpolates in log space (the bins are geometric), the Vdd axis in
/// linear space; out-of-range queries clamp to the edge, matching the LUT
/// conventions elsewhere in the codebase.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "finser/core/ser_flow.hpp"
#include "finser/env/spectrum.hpp"
#include "finser/sram/pof_table.hpp"
#include "finser/util/interp.hpp"

namespace finser::surface {

/// ArtifactStore kind slug for serialized surfaces.
inline constexpr const char* kResponseSurfaceKind = "response_surface";

/// Interpolated POF answer at one (Vdd, energy) point.
struct PofSample {
  double tot = 0.0;
  double seu = 0.0;
  double mbu = 0.0;
  double tot_se = 0.0;
};

/// FIT answer at one Vdd point (already integrated over the spectrum).
struct FitSample {
  double tot = 0.0;
  double seu = 0.0;
  double mbu = 0.0;
};

class ResponseSurface {
 public:
  // --- identity -----------------------------------------------------------
  std::string scenario;   ///< Campaign scenario name ("" for ad-hoc flows).
  std::string species;    ///< phys::species_name of the spectrum.
  double temp_k = 0.0;    ///< Cell temperature the surface was built at [K].
  /// Content-address: FNV-1a over the fully resolved single-scenario
  /// campaign JSON plus this species' position in the scenario's species
  /// list (pipeline::response_surface_fingerprint). The species *position*
  /// matters because SerFlow draws Monte-Carlo seeds from one serial cursor
  /// across consecutive sweeps, so a species' numbers depend on what swept
  /// before it.
  std::uint64_t fingerprint = 0;

  // --- axes ---------------------------------------------------------------
  std::vector<double> vdds;          ///< Ascending supply sweep [V].
  std::vector<env::EnergyBin> bins;  ///< Ascending representative energies.

  // --- channels, indexed [mode] with mode ∈ {core::kModeWithPv,
  // --- core::kModeNominal}; POF vectors are bin-outer (b * n_vdd + v),
  // --- FIT vectors are per-Vdd.
  std::array<std::vector<double>, 2> pof_tot, pof_seu, pof_mbu, pof_tot_se;
  std::array<std::vector<double>, 2> fit_tot, fit_seu, fit_mbu;

  /// The single build path: copy the grid channels out of a finished energy
  /// sweep. Both the batch pipeline and the serve refinement path go
  /// through here, which is what makes their answers identical.
  static ResponseSurface from_sweep(std::string scenario_name, double temp_k,
                                    std::uint64_t fingerprint,
                                    const core::EnergySweepResult& sweep);

  std::size_t n_vdd() const { return vdds.size(); }
  std::size_t n_bins() const { return bins.size(); }

  /// Node accessors (no interpolation).
  double pof_at(const std::array<std::vector<double>, 2>& chan, int mode,
                std::size_t bin, std::size_t vdd) const {
    return chan[static_cast<std::size_t>(mode)][bin * n_vdd() + vdd];
  }

  /// Interpolated POF at (vdd_v, energy_mev); clamps outside the grid.
  PofSample pof(double vdd_v, double energy_mev, bool with_pv) const;

  /// Interpolated FIT at vdd_v; clamps outside the sweep range.
  FitSample fit(double vdd_v, bool with_pv) const;

  /// True iff the query coordinate coincides bitwise with a grid node (the
  /// byte-identity guarantee applies exactly to such points).
  bool is_grid_vdd(double vdd_v) const;
  bool is_grid_energy(double energy_mev) const;

  /// Structural invariants (axis sizes vs channel sizes). Throws
  /// util::Error when violated; called by decode().
  void validate() const;

  /// Versioned payload codec for the `response_surface` artifact kind (the
  /// ArtifactStore envelope supplies magic, key echo and CRC).
  std::vector<std::uint8_t> encode() const;
  static ResponseSurface decode(const std::vector<std::uint8_t>& blob);

 private:
  /// Axes are derived state rebuilt after from_sweep/decode; left empty for
  /// degenerate (single-point) dimensions, where queries collapse to the
  /// lone node.
  util::Axis vdd_axis_;
  util::Axis energy_axis_;
  void rebuild_axes();
};

/// The cell-model artifact codec lives next to PofTable's in sram; these
/// names keep it reachable from the query layer.
using sram::decode_cell_model;
using sram::encode_cell_model;

}  // namespace finser::surface
