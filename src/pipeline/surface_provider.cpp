/// \file surface_provider.cpp
/// \brief Surface identity + the memory→artifact→build cache hierarchy.

#include "finser/pipeline/surface_provider.hpp"

#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"

namespace finser::pipeline {

std::uint64_t response_surface_fingerprint(const ScenarioSpec& scenario,
                                           std::size_t species_index) {
  FINSER_REQUIRE(species_index < scenario.species.size(),
                 "response_surface_fingerprint: species index out of range");
  // A normalized single-scenario campaign is the identity document: the
  // dirs and campaign name are presentation, threads is zeroed by
  // campaign_fingerprint, and the full species list stays in (the seed
  // cursor makes earlier species part of a later species' identity).
  CampaignSpec one;
  one.name = "response_surface";
  one.artifact_dir.clear();
  one.output_dir.clear();
  one.scenarios.push_back(scenario);
  util::Fnv1a h;
  h.str("finser.surface.response_surface.v1");
  h.u64(campaign_fingerprint(one));
  h.u64(species_index);
  return h.hash();
}

SurfaceProvider::SurfaceProvider(CampaignSpec spec, std::size_t threads,
                                 exec::ProgressSink progress,
                                 const exec::CancelToken* cancel)
    : spec_(std::move(spec)),
      threads_(threads),
      progress_(std::move(progress)),
      cancel_(cancel) {
  FINSER_REQUIRE(!spec_.scenarios.empty(),
                 "SurfaceProvider: campaign has no scenarios");
  if (!spec_.artifact_dir.empty()) store_.emplace(spec_.artifact_dir);
  // The identities the runner's sweep stages persist surfaces under: each
  // scenario resolved once, with the MC scale the runner applies.
  for (const ScenarioSpec& s : spec_.scenarios) {
    ScenarioSpec resolved = s;
    resolve_flow_for_execution(resolved.flow);
    std::vector<std::uint64_t>& fps = surface_fps_.emplace_back();
    for (std::size_t i = 0; i < s.species.size(); ++i) {
      fps.push_back(response_surface_fingerprint(resolved, i));
    }
  }
}

std::vector<surface::ServeScenario> SurfaceProvider::catalog() const {
  std::vector<surface::ServeScenario> out;
  out.reserve(spec_.scenarios.size());
  for (const ScenarioSpec& s : spec_.scenarios) {
    surface::ServeScenario entry;
    entry.name = s.name;
    entry.species = s.species;
    entry.temp_k = s.flow.cell_design.temp_k;
    out.push_back(std::move(entry));
  }
  return out;
}

std::pair<std::size_t, std::size_t> SurfaceProvider::locate(
    const std::string& scenario, const std::string& species) const {
  for (std::size_t s = 0; s < spec_.scenarios.size(); ++s) {
    if (spec_.scenarios[s].name != scenario) continue;
    // The last match: refine() caches a repeated species' last sweep.
    const std::vector<std::string>& names = spec_.scenarios[s].species;
    for (std::size_t i = names.size(); i-- > 0;) {
      if (names[i] == species) return {s, i};
    }
    throw util::InvalidArgument("surface provider: scenario `" + scenario +
                                "` has no species `" + species + "`");
  }
  throw util::InvalidArgument("surface provider: unknown scenario `" +
                              scenario + "`");
}

const surface::ResponseSurface* SurfaceProvider::cache_put(
    surface::ResponseSurface surf, const std::string& scenario,
    const std::string& species) {
  auto& slot = cache_[std::make_pair(scenario, species)];
  slot = std::move(surf);
  return &slot;
}

const surface::ResponseSurface* SurfaceProvider::lookup(
    const std::string& scenario, const std::string& species) {
  const auto it = cache_.find(std::make_pair(scenario, species));
  if (it != cache_.end()) {
    FINSER_OBS_COUNT("surface.memory_hits", 1);
    return &it->second;
  }
  if (!store_.has_value()) return nullptr;

  const auto [s, index] = locate(scenario, species);
  const std::uint64_t fp = surface_fps_[s][index];
  std::vector<std::uint8_t> blob;
  if (!store_->try_get(ArtifactKey{surface::kResponseSurfaceKind, fp},
                       blob)) {
    return nullptr;
  }
  try {
    surface::ResponseSurface surf = surface::ResponseSurface::decode(blob);
    FINSER_REQUIRE(surf.fingerprint == fp,
                   "response surface artifact: fingerprint echo mismatch");
    FINSER_OBS_COUNT("surface.artifact_hits", 1);
    return cache_put(std::move(surf), scenario, species);
  } catch (const std::exception&) {
    // Malformed payload past the store's CRC: treat as a miss and rebuild.
    return nullptr;
  }
}

const surface::ResponseSurface* SurfaceProvider::refine(
    const std::string& scenario, const std::string& species) {
  const std::size_t s = locate(scenario, species).first;
  const ScenarioSpec& scen = spec_.scenarios[s];

  // Build the whole scenario — full species list, in order — through the
  // identical code path batch campaigns use. The runner applies the MC
  // scale itself, shares the artifact store, and persists the resulting
  // `response_surface` artifacts from its sweep stage; the surfaces it
  // returns are the ones it stored.
  CampaignSpec sub;
  sub.name = spec_.name;
  sub.artifact_dir = spec_.artifact_dir;
  sub.output_dir.clear();  // serve emits answers, not CSV files
  sub.threads = threads_;
  sub.scenarios.push_back(scen);
  FINSER_OBS_COUNT("surface.builds", 1);
  CampaignRunner runner(std::move(sub));
  std::vector<ScenarioResult> results = runner.run(progress_, cancel_);
  FINSER_REQUIRE(results.size() == 1 &&
                     results[0].surfaces.size() == scen.species.size(),
                 "surface provider: refinement produced unexpected results");

  const surface::ResponseSurface* wanted = nullptr;
  for (std::size_t i = 0; i < scen.species.size(); ++i) {
    const surface::ResponseSurface* cached = cache_put(
        std::move(results[0].surfaces[i]), scenario, scen.species[i]);
    if (scen.species[i] == species) wanted = cached;
  }
  return wanted;
}

}  // namespace finser::pipeline
