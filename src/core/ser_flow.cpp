#include "finser/core/ser_flow.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "finser/exec/exec.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"

namespace finser::core {

SerFlow::SerFlow(const SerFlowConfig& config)
    : config_(config),
      layout_(config.array_rows, config.array_cols, config.cell_geometry,
              config.pattern, config.pattern_seed),
      mc_seed_cursor_(config.seed) {}

sram::CellSoftErrorModel load_or_characterize(
    const sram::CellDesign& design, const sram::CharacterizerConfig& config,
    BinCache* cache, const exec::ProgressSink& progress,
    const ckpt::RunOptions& run, bool* characterized) {
  const std::uint64_t fp = config.fingerprint(design);
  if (characterized != nullptr) *characterized = false;
  std::vector<std::uint8_t> blob;
  if (cache != nullptr && cache->load(fp, blob)) {
    try {
      sram::CellSoftErrorModel model = sram::decode_cell_model(blob, fp);
      progress.message("cell model loaded from cache");
      return model;
    } catch (const std::exception&) {
      // A malformed blob degrades to characterize, never a failed run.
    }
  }
  progress.message("characterizing SRAM cell (POF LUTs)...");
  sram::CellSoftErrorModel model =
      sram::CellCharacterizer(design, config).characterize(progress, run);
  if (characterized != nullptr) *characterized = true;
  if (cache != nullptr) cache->store(fp, sram::encode_cell_model(model));
  return model;
}

const sram::CellSoftErrorModel& SerFlow::cell_model(
    const exec::ProgressSink& progress) {
  if (!model_.has_value()) {
    sram::CharacterizerConfig ccfg = config_.characterization;
    if (ccfg.threads == 0) ccfg.threads = config_.threads;
    model_ = load_or_characterize(config_.cell_design, ccfg,
                                  config_.model_cache, progress);
  }
  return *model_;
}

void SerFlow::set_cell_model(sram::CellSoftErrorModel model) {
  FINSER_REQUIRE(model.config_fingerprint == model_fingerprint(),
                 "SerFlow::set_cell_model: model fingerprint does not match "
                 "this flow's characterization config");
  model_ = std::move(model);
}

sram::ClusterPofSurface* SerFlow::ensure_cluster_surface() {
  if (!config_.array_mc.cluster.enabled()) return nullptr;
  if (!cluster_surface_) {
    cluster_surface_ = std::make_unique<sram::ClusterPofSurface>(
        config_.cell_design, config_.array_mc.cluster);
  }
  return cluster_surface_.get();
}

ArrayMcResult SerFlow::run_at_energy(phys::Species species, double e_mev,
                                     const exec::ProgressSink& progress) {
  const sram::CellSoftErrorModel& model = cell_model(progress);
  ArrayMcConfig cfg = config_.array_mc;
  if (cfg.threads == 0) cfg.threads = config_.threads;
  cfg.cluster_design = &config_.cell_design;
  cfg.cluster_surface = ensure_cluster_surface();
  ArrayMc mc(layout_, model, cfg);
  return mc.run(species, e_mev, mc_seed_cursor_++, progress);
}

EnergySweepResult SerFlow::sweep(const env::Spectrum& spectrum,
                                 const exec::ProgressSink& progress,
                                 const exec::CancelToken* cancel) {
  const sram::CellSoftErrorModel& model = cell_model(progress);

  std::size_t bins = config_.alpha_bins;
  double e_lo = config_.alpha_e_lo_mev;
  double e_hi = config_.alpha_e_hi_mev;
  double margin = config_.array_mc.source_margin_nm;
  switch (spectrum.species()) {
    case phys::Species::kProton:
      bins = config_.proton_bins;
      e_lo = config_.proton_e_lo_mev;
      e_hi = config_.proton_e_hi_mev;
      break;
    case phys::Species::kNeutron:
      bins = config_.neutron_bins;
      e_lo = config_.neutron_e_lo_mev;
      e_hi = config_.neutron_e_hi_mev;
      margin = config_.neutron_mc.source_margin_nm;
      break;
    default:
      break;
  }

  EnergySweepResult result;
  result.species = spectrum.species();
  result.vdds = model.vdds();
  result.bins = spectrum.discretize(e_lo, e_hi, bins);

  const bool neutron = spectrum.species() == phys::Species::kNeutron;
  const std::size_t n_bins = result.bins.size();

  // Per-bin seeds are drawn serially in bin order, exactly one cursor
  // increment per bin — the sweep consumes the same cursor range no matter
  // how the bins are scheduled.
  std::vector<std::uint64_t> bin_seeds(n_bins);
  for (std::uint64_t& s : bin_seeds) s = mc_seed_cursor_++;

  // Two-level split of the thread budget: energy bins as the outer task
  // level, the strike loop inside each bin on the remainder. Each bin gets
  // its own engine instance (engines are cheap; the heavy state lives in
  // the per-worker transporters inside run()).
  const std::size_t budget = exec::resolve_threads(config_.threads);
  const std::size_t outer = std::max<std::size_t>(1, std::min(n_bins, budget));
  const std::size_t inner = std::max<std::size_t>(1, budget / outer);

  ArrayMcConfig charged_cfg = config_.array_mc;
  if (charged_cfg.threads == 0) charged_cfg.threads = inner;
  NeutronMcConfig neutron_cfg = config_.neutron_mc;
  if (neutron_cfg.threads == 0) neutron_cfg.threads = inner;

  // Correlated charge-collection mode (charged species only): every bin's
  // engine shares the flow's cluster surface, so memoized joint simulations
  // amortize across bins — and, through the optional cluster cache, across
  // runs and workers. Preloading entries only skips simulations (values are
  // pure functions of keys); it can never change a result.
  sram::ClusterPofSurface* cluster_surface = nullptr;
  std::uint64_t cluster_fp = 0;
  if (!neutron) {
    charged_cfg.cluster_design = &config_.cell_design;
    cluster_surface = ensure_cluster_surface();
    charged_cfg.cluster_surface = cluster_surface;
    if (cluster_surface != nullptr && config_.cluster_cache != nullptr) {
      cluster_fp = cluster_surface->fingerprint(model.config_fingerprint);
      std::vector<std::uint8_t> blob;
      if (config_.cluster_cache->load(cluster_fp, blob)) {
        try {
          const std::size_t n = cluster_surface->decode_merge(blob);
          if (n > 0) {
            progress.message("cluster surface: " + std::to_string(n) +
                             " cached entr" + (n == 1 ? "y" : "ies") +
                             " loaded");
          }
        } catch (const std::exception&) {
          // A malformed blob degrades to recompute, never a failed sweep.
        }
      }
    }
  }

  result.per_bin.resize(n_bins);
  exec::ThreadPool outer_pool(outer);
  const auto run_bin = [&](std::size_t i) {
    const env::EnergyBin& bin = result.bins[i];
    std::ostringstream label;
    label << "core.energy_bin " << spectrum.name() << " E=" << bin.e_rep_mev
          << "MeV";
    obs::ScopedSpan bin_span("core.energy_bin", label.str());
    FINSER_OBS_COUNT("core.energy_bins", 1);
    // Engines see the cancel token only; resume is per bin, through
    // bin_cache.
    ckpt::RunOptions inner_run;
    inner_run.cancel = cancel;
    std::unique_ptr<ArrayEngine> engine;
    if (neutron) {
      engine = std::make_unique<NeutronArrayMc>(layout_, model, neutron_cfg);
    } else {
      engine = std::make_unique<ArrayMc>(layout_, model, charged_cfg);
    }
    const EnergyPoint point{spectrum.species(), bin.e_rep_mev, bin.e_lo_mev,
                            bin.e_hi_mev};

    // Bin-level artifact cache (campaigns): a cached blob decodes to the
    // exact result a fresh run would produce (bit-exact codec), so a hit
    // skips the Monte Carlo entirely and is bit-identical to running it.
    ArrayMcResult r;
    bool have_result = false;
    const std::uint64_t bin_fp =
        config_.bin_cache != nullptr
            ? engine->point_fingerprint(point, bin_seeds[i])
            : 0;
    if (config_.bin_cache != nullptr) {
      std::vector<std::uint8_t> blob;
      if (config_.bin_cache->load(bin_fp, blob)) {
        try {
          util::ByteReader reader(blob);
          r = decode_result(reader);
          FINSER_REQUIRE(reader.exhausted(),
                         "bin cache: trailing bytes in cached result");
          FINSER_OBS_COUNT("core.bin_cache_hits", 1);
          have_result = true;
        } catch (const std::exception&) {
          // A malformed blob degrades to recompute, never a failed sweep.
        }
      }
      if (!have_result) FINSER_OBS_COUNT("core.bin_cache_misses", 1);
    }
    if (!have_result) {
      r = engine->run_point(point, bin_seeds[i], {}, inner_run);
      if (config_.bin_cache != nullptr) {
        config_.bin_cache->store(bin_fp, encode_result(r));
      }
    }
    if (progress) {
      std::ostringstream os;
      os << spectrum.name() << ": E=" << bin.e_rep_mev << " MeV done";
      progress.message(os.str());
    }
    return r;
  };

  const bool completed = outer_pool.parallel_for_chunks(
      n_bins, 1,
      [&](const exec::ChunkRange& r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          result.per_bin[i] = run_bin(i);
        }
      },
      cancel);
  if (!completed) throw util::Cancelled("sweep: cancelled between energy bins");

  // Persist the (possibly grown) cluster surface for the next run/worker.
  // Same never-throw contract as bin_cache stores.
  if (cluster_surface != nullptr && config_.cluster_cache != nullptr &&
      cluster_surface->size() > 0) {
    config_.cluster_cache->store(cluster_fp, cluster_surface->encode());
  }

  // Eq. 8 per (vdd, mode). The normalization area is the source-sampling
  // plane (equals the array footprint when the margin is zero).
  const double lx = layout_.width_nm() + 2.0 * margin;
  const double ly = layout_.height_nm() + 2.0 * margin;
  result.fit.resize(result.vdds.size());
  for (std::size_t v = 0; v < result.vdds.size(); ++v) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      std::vector<PofEstimate> pofs;
      pofs.reserve(result.bins.size());
      for (const ArrayMcResult& r : result.per_bin) pofs.push_back(r.est[v][mode]);
      result.fit[v][mode] = integrate_fit(result.bins, pofs, lx, ly);
    }
  }
  return result;
}

namespace {

/// Parse a finite double from \p name, with \p invalid_msg-driven fallback.
/// Returns \p fallback when unset or malformed.
double env_double(const char* name, double fallback, bool allow_zero) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  // Tolerate trailing whitespace, but nothing else.
  while (end != nullptr && *end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  const bool parsed = end != nullptr && end != raw && *end == '\0';
  const bool in_range = std::isfinite(v) && (allow_zero ? v >= 0.0 : v > 0.0);
  if (!parsed || !in_range) {
    std::fprintf(stderr,
                 "finser: ignoring invalid %s=\"%s\" (expected a finite value "
                 "%s 0); using %g\n",
                 name, raw, allow_zero ? ">=" : ">", fallback);
    return fallback;
  }
  return v;
}

}  // namespace

double mc_scale_from_env() { return env_double("FINSER_MC_SCALE", 1.0, false); }

void apply_mc_scale(SerFlowConfig& config, double scale) {
  FINSER_REQUIRE(scale > 0.0, "apply_mc_scale: scale must be positive");
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
  };
  config.array_mc.strikes = scaled(config.array_mc.strikes);
  config.neutron_mc.histories = scaled(config.neutron_mc.histories);
  config.characterization.pv_samples_single =
      scaled(config.characterization.pv_samples_single);
  config.characterization.pv_samples_grid =
      scaled(config.characterization.pv_samples_grid);
}

double ci_target_from_env() { return env_double("FINSER_CI_TARGET", -1.0, true); }

void apply_ci_target(SerFlowConfig& config, double target) {
  if (target < 0.0) return;  // Unset: keep the configured values.
  config.array_mc.ci.target = target;
  config.neutron_mc.ci.target = target;
}

std::optional<sram::ClusterMode> cluster_mode_from_env() {
  const char* raw = std::getenv("FINSER_CLUSTER");
  if (raw == nullptr) return std::nullopt;
  const auto mode = sram::cluster_mode_from(raw);
  if (!mode) {
    std::fprintf(stderr,
                 "finser: ignoring invalid FINSER_CLUSTER=\"%s\" (expected "
                 "1x1, 2x2 or 1x4)\n",
                 raw);
  }
  return mode;
}

void apply_cluster(SerFlowConfig& config,
                   std::optional<sram::ClusterMode> mode) {
  if (!mode) return;  // Unset: keep the configured value.
  config.array_mc.cluster.mode = *mode;
}

}  // namespace finser::core
