#pragma once
/// \file surface_provider.hpp
/// \brief Response-surface identity and the serve-mode refinement backend.
///
/// The provider is the bridge between `finser::surface` (grids, codec,
/// serve loop) and the campaign runner: it owns the three-level cache
/// hierarchy for a campaign's surfaces —
///
///   memory map  →  `response_surface` artifacts  →  CampaignRunner build
///
/// — and exposes exactly the two callbacks ServeSession wants. The build
/// path never refines one species in isolation: SerFlow draws its
/// Monte-Carlo seeds from one serial cursor across the species sweeps of a
/// scenario, so a species' numbers depend on what swept before it. A miss
/// therefore schedules the *whole scenario* (its full species list, in
/// order) through a single-scenario CampaignRunner on the exec thread
/// budget — which also means one refinement answers every queued request
/// touching that scenario, and the numbers match the batch pipeline
/// byte-for-byte because they come from the identical code path.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/progress.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/surface/serve.hpp"

namespace finser::pipeline {

/// Content-address of the ResponseSurface for species index \p species_index
/// of \p scenario (whose flow must already carry the MC scale, as
/// resolve_flow_for_execution applies it). Hashes the fully resolved single-scenario
/// campaign JSON — threads zeroed, dirs cleared, full species list
/// included — plus the species position. Everything that can change a
/// number is in the hash; everything that cannot (thread budget, output
/// paths) is not.
std::uint64_t response_surface_fingerprint(const ScenarioSpec& scenario,
                                           std::size_t species_index);

/// Serve-mode surface cache + refinement backend (see file comment).
class SurfaceProvider {
 public:
  /// \param spec     the campaign whose scenarios are servable, as parsed.
  ///                 Kept *unscaled*: CampaignRunner applies
  ///                 FINSER_MC_SCALE itself. The constructor resolves each
  ///                 scenario once, only to compute the surface
  ///                 fingerprints.
  /// \param threads  exec thread budget for refinement builds (0 = auto).
  /// \param cancel   interrupts a refinement build (util::Cancelled); must
  ///                 outlive the provider.
  SurfaceProvider(CampaignSpec spec, std::size_t threads,
                  exec::ProgressSink progress = {},
                  const exec::CancelToken* cancel = nullptr);

  /// Scenario catalog in ServeSession's shape (names, species order,
  /// temperature).
  std::vector<surface::ServeScenario> catalog() const;

  /// Cache-only lookup: memory, then the `response_surface` artifact kind.
  /// Never simulates. Returns nullptr on a miss; pointers stay valid for
  /// the provider's lifetime. Counts "surface.memory_hits" /
  /// "surface.artifact_hits".
  const surface::ResponseSurface* lookup(const std::string& scenario,
                                         const std::string& species);

  /// Refinement: run the scenario's full species list through a
  /// single-scenario CampaignRunner (counts "surface.builds"), cache every
  /// resulting surface, and return the requested one. Throws
  /// util::Cancelled on cooperative cancellation, util::InvalidArgument for
  /// unknown names.
  const surface::ResponseSurface* refine(const std::string& scenario,
                                         const std::string& species);

 private:
  /// (scenario, species) indices of a request; throws util::InvalidArgument
  /// for an unknown name.
  std::pair<std::size_t, std::size_t> locate(const std::string& scenario,
                                             const std::string& species) const;
  const surface::ResponseSurface* cache_put(surface::ResponseSurface surf,
                                            const std::string& scenario,
                                            const std::string& species);

  CampaignSpec spec_;  ///< Unscaled (see ctor doc).
  /// response_surface_fingerprint per scenario and species index, aligned
  /// with spec_.scenarios.
  std::vector<std::vector<std::uint64_t>> surface_fps_;
  std::size_t threads_ = 0;
  exec::ProgressSink progress_;
  const exec::CancelToken* cancel_ = nullptr;
  std::optional<ArtifactStore> store_;
  /// (scenario, species) → surface; node-stable so lookup() pointers
  /// survive later insertions.
  std::map<std::pair<std::string, std::string>, surface::ResponseSurface>
      cache_;
};

}  // namespace finser::pipeline
