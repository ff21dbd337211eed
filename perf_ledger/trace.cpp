/// \file trace.cpp
/// \brief Traced run: the workload's work replayed in-process, one span
/// around every call into a layer, plus fixed per-layer kernels.
///
/// The replay calls the layers' public functions in campaign stage order —
/// characterize, device LUTs, then the sweep stage (SerFlow::sweep, surface
/// build, artifact writes, CSV emission) — each stage at the full thread
/// budget: first the set-up campaign, then one operation of the workload.
/// Its CSV outputs must be byte-identical to those of an untraced CLI run
/// of the same operation, and the difference of the two times is what the
/// campaign scheduler adds (pipeline.schedule_gap_s). obs counters are read
/// only between calls.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <sstream>

#include <sys/resource.h>

#include "client.hpp"
#include "finser/core/array_mc.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/geom/vec3.hpp"
#include "finser/obs/obs.hpp"
#include "finser/phys/track.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/spice/batch.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/sram/cluster.hpp"
#include "finser/stats/direction.hpp"
#include "finser/surface/serve.hpp"
#include "ledger.hpp"
#include "proc.hpp"
#include "queries.hpp"
#include "scenarios.hpp"
#include "tracer.hpp"

namespace perf_ledger {

namespace fs = std::filesystem;

namespace {

// The campaign runner's device-LUT stage parameters (pipeline/campaign.cpp).
// Were they to drift, the untraced CLI run would rebuild the LUTs the
// replay stored, which its store check reports.
constexpr std::uint64_t kDeviceLutSeed = 0xF16D4EULL;
constexpr std::size_t kDeviceLutPoints = 25;

using Counters = std::map<std::string, std::uint64_t>;

Counters read_counters() {
  Counters c;
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    c[row.name] = row.total;
  }
  return c;
}

std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

void accumulate(Counters& sum, const Counters& before, const Counters& after) {
  for (const auto& row : after) sum[row.first] += delta(before, after, row.first);
}

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double count_ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// core::BinCache adapter that records every artifact access as a span
/// under the sweep that made it (sweeps call it from pool threads).
class TimedBinCache final : public core::BinCache {
 public:
  TimedBinCache(Tracer& tracer, core::BinCache& inner)
      : tracer_(tracer), inner_(inner) {}

  bool load(std::uint64_t fingerprint, std::vector<std::uint8_t>& out) override {
    const Tracer::Scope s(tracer_, "pipeline.artifact_get", parent.load());
    return inner_.load(fingerprint, out);
  }
  void store(std::uint64_t fingerprint,
             const std::vector<std::uint8_t>& blob) override {
    const Tracer::Scope s(tracer_, "pipeline.artifact_put", parent.load());
    bytes_put += blob.size();
    inner_.store(fingerprint, blob);
  }

  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> bytes_put{0};

 private:
  Tracer& tracer_;
  core::BinCache& inner_;
};

/// Stage-by-stage campaign replay with per-layer accounting.
class Replay {
 public:
  Replay(Tracer& tracer, const Context& ctx) : tr_(tracer), ctx_(ctx) {}

  /// Replay the single-scenario campaign of \p def on \p store_dir, CSVs to
  /// \p out_dir exactly where the CLI writes them. Returns the time spent
  /// in the stages.
  double campaign(const ScenarioDef& def, const std::string& store_dir,
                  const std::string& out_dir) {
    const pipeline::CampaignSpec spec = pipeline::parse_campaign_text(
        campaign_json("replay", store_dir, out_dir, {def}));
    pipeline::ScenarioSpec resolved = spec.scenarios.front();
    pipeline::resolve_flow_for_execution(resolved.flow);
    const core::SerFlowConfig& flow = resolved.flow;
    const pipeline::ArtifactStore store(store_dir);

    const double start = now_s();
    {
      const Tracer::Scope stage(tr_, "stage.characterize");
      model_ = characterize_or_load(store, flow);
    }
    for (const std::string& name : resolved.species) {
      const Tracer::Scope stage(tr_, "stage.device_lut");
      const sram::CellGeometry& g = flow.cell_geometry;
      const geom::Aabb fin_box{{0.0, 0.0, 0.0},
                               {g.fin_w_nm, g.gate_len_nm, g.fin_h_nm}};
      const bool alpha = name == "alpha";
      const Tracer::Scope s(tr_, "phys.device_lut");
      pipeline::cached_device_lut(
          &store, fin_box, phys::FinStrikeMc::Config{},
          alpha ? phys::Species::kAlpha : phys::Species::kProton,
          alpha ? flow.alpha_e_lo_mev : flow.proton_e_lo_mev,
          alpha ? flow.alpha_e_hi_mev : flow.proton_e_hi_mev, kDeviceLutPoints,
          kDeviceLutSeed);
    }
    {
      const Tracer::Scope stage(tr_, "stage.sweep");
      sweep_stage(store, resolved, out_dir);
    }
    return now_s() - start;
  }

  const sram::CellSoftErrorModel& model() const { return model_; }
  const std::vector<std::uint64_t>& surface_fps() const { return surface_fps_; }
  std::uint64_t bytes_put() const { return bytes_put_; }
  const Counters& characterize_counters() const { return char_counters_; }
  double characterize_cpu_s() const { return char_cpu_s_; }
  double sweep_cpu_s() const { return sweep_cpu_s_; }

 private:
  sram::CellSoftErrorModel characterize_or_load(
      const pipeline::ArtifactStore& store, const core::SerFlowConfig& flow) {
    const std::uint64_t fp =
        flow.characterization.fingerprint(flow.cell_design);
    const pipeline::ArtifactKey key{"cell_model", fp};
    std::vector<std::uint8_t> blob;
    bool hit = false;
    {
      const Tracer::Scope s(tr_, "pipeline.artifact_get");
      hit = store.try_get(key, blob);
    }
    if (hit) {
      const Tracer::Scope s(tr_, "surface.decode");
      return surface::decode_cell_model(blob, fp);
    }
    sram::CharacterizerConfig cfg = flow.characterization;
    cfg.threads = ctx_.threads;
    const Counters before = read_counters();
    const double cpu0 = process_cpu_s();
    sram::CellSoftErrorModel model;
    {
      const Tracer::Scope s(tr_, "sram.characterize");
      model = sram::CellCharacterizer(flow.cell_design, cfg).characterize();
    }
    char_cpu_s_ += process_cpu_s() - cpu0;
    accumulate(char_counters_, before, read_counters());
    put(store, key, surface::encode_cell_model(model));
    return model;
  }

  void sweep_stage(const pipeline::ArtifactStore& store,
                   const pipeline::ScenarioSpec& resolved,
                   const std::string& out_dir) {
    pipeline::ArtifactBinCache bins(store);
    pipeline::ArtifactBinCache clusters(store, "cluster_surface");
    TimedBinCache timed_bins(tr_, bins);
    TimedBinCache timed_clusters(tr_, clusters);
    core::SerFlowConfig cfg = resolved.flow;
    cfg.threads = ctx_.threads;
    cfg.bin_cache = &timed_bins;
    cfg.cluster_cache = &timed_clusters;
    core::SerFlow flow(cfg);
    flow.set_cell_model(model_);

    const std::string dir = out_dir + "/" + resolved.name;
    util::CsvTable fit_table = pipeline::make_fit_table();
    surface_fps_.clear();
    for (std::size_t si = 0; si < resolved.species.size(); ++si) {
      const std::string& name = resolved.species[si];
      core::EnergySweepResult sweep;
      const double cpu0 = process_cpu_s();
      {
        const Tracer::Scope s(tr_, "core.sweep");
        timed_bins.parent = s.id();
        timed_clusters.parent = s.id();
        sweep = flow.sweep(pipeline::spectrum_for_species(name));
      }
      sweep_cpu_s_ += process_cpu_s() - cpu0;
      surface::ResponseSurface surf;
      std::vector<std::uint8_t> blob;
      {
        const Tracer::Scope s(tr_, "surface.build");
        surf = surface::ResponseSurface::from_sweep(
            resolved.name, resolved.flow.cell_design.temp_k,
            pipeline::response_surface_fingerprint(resolved, si), sweep);
        blob = surf.encode();
      }
      put(store, {surface::kResponseSurfaceKind, surf.fingerprint}, blob);
      surface_fps_.push_back(surf.fingerprint);
      const Tracer::Scope s(tr_, "pipeline.emit");
      pipeline::pof_csv(surf).write_csv_file(dir + "/pof_" + name + ".csv");
      pipeline::append_fit_rows(fit_table, name, surf);
    }
    {
      const Tracer::Scope s(tr_, "pipeline.emit");
      fit_table.write_csv_file(dir + "/fit_summary.csv");
    }
    bytes_put_ += timed_bins.bytes_put + timed_clusters.bytes_put;
  }

  void put(const pipeline::ArtifactStore& store, const pipeline::ArtifactKey& key,
           const std::vector<std::uint8_t>& blob) {
    const Tracer::Scope s(tr_, "pipeline.artifact_put");
    store.put(key, blob);
    bytes_put_ += blob.size();
  }

  Tracer& tr_;
  const Context& ctx_;
  sram::CellSoftErrorModel model_;
  std::vector<std::uint64_t> surface_fps_;
  std::uint64_t bytes_put_ = 0;
  Counters char_counters_;
  double char_cpu_s_ = 0.0;
  double sweep_cpu_s_ = 0.0;
};

// --- per-layer kernels ---------------------------------------------------------

/// 960 strike transients (120 PV samples × 8 charges) through
/// StrikeSimulator::simulate_batch on one thread, lane groups as the
/// characterizer drives them. Returns transients per second.
double kernel_spice(const Context& ctx, Tracer& tr, Outcome& out) {
  const sram::CellDesign design;
  constexpr std::size_t kSamples = 120;
  constexpr std::size_t kCharges = 8;
  stats::Rng rng(stats::Rng::derive_seed(ctx.seed, 1));
  std::vector<sram::DeltaVt> dvts(kSamples);
  for (auto& d : dvts) {
    for (double& v : d) v = rng.normal(0.0, design.sigma_vt);
  }
  std::vector<double> charges(kSamples * kCharges);
  for (double& q : charges) q = rng.uniform(0.02, 0.3);

  sram::StrikeSimulator sim(design, 0.8);
  const std::size_t lanes = spice::lane_width();
  std::vector<sram::StrikeCharges> qs;
  std::vector<sram::DeltaVt> ds;
  std::vector<std::uint8_t> active;
  std::vector<sram::StrikeSimulator::LaneOutcome> res;
  std::size_t failures = 0;
  const Tracer::Scope s(tr, "kernel.spice_transients");
  const double t0 = now_s();
  for (std::size_t i = 0; i < kSamples; i += lanes) {
    const std::size_t group = std::min(lanes, kSamples - i);
    ds.assign(dvts.begin() + static_cast<std::ptrdiff_t>(i),
              dvts.begin() + static_cast<std::ptrdiff_t>(i + group));
    active.assign(group, 1);
    for (std::size_t c = 0; c < kCharges; ++c) {
      qs.clear();
      for (std::size_t g = 0; g < group; ++g) {
        qs.push_back(sram::StrikeCharges{charges[(i + g) * kCharges + c], 0.0,
                                         0.0});
      }
      sim.simulate_batch(qs, ds, spice::PulseShape::Kind::kRectangular, active,
                         res);
      for (std::size_t g = 0; g < group; ++g) failures += res[g].failed ? 1 : 0;
    }
  }
  const double elapsed = now_s() - t0;
  out.count(out.check(failures == 0, "spice kernel: " +
                                         std::to_string(failures) +
                                         " transients failed"));
  return static_cast<double>(kSamples * kCharges) / elapsed;
}

/// Rays through phys::Transporter over a 9×9 array (alpha, 2 MeV, one
/// thread). Returns rays per second.
double kernel_transport(const Context& ctx, Tracer& tr) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  phys::Transporter transporter(layout.fins());
  stats::Rng rng(stats::Rng::derive_seed(ctx.seed, 2));
  constexpr std::size_t n = 200000;
  const Tracer::Scope s(tr, "kernel.transport");
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    geom::Ray ray;
    ray.origin = {rng.uniform(0.0, layout.width_nm()),
                  rng.uniform(0.0, layout.height_nm()),
                  layout.geometry().fin_h_nm + 1.0};
    ray.dir = stats::isotropic_hemisphere_down(rng);
    if (ray.dir.z == 0.0) ray.dir.z = -1e-12;
    transporter.transport(ray, phys::Species::kAlpha, 2.0, rng);
  }
  return static_cast<double>(n) / (now_s() - t0);
}

/// Strikes per second of core::ArrayMc at one energy (alpha, 2 MeV) on
/// the seed model, at \p threads.
double kernel_strikes(const Context& ctx, Tracer& tr,
                      const sram::CellSoftErrorModel& model, std::size_t threads,
                      std::size_t strikes) {
  const sram::ArrayLayout layout(9, 9, sram::CellGeometry{});
  core::ArrayMcConfig cfg;
  cfg.strikes = strikes;
  cfg.threads = threads;
  const core::ArrayMc mc(layout, model, cfg);
  const Tracer::Scope s(tr, threads == 1 ? "kernel.strikes_1t" : "kernel.strikes");
  const double t0 = now_s();
  mc.run(phys::Species::kAlpha, 2.0, stats::Rng::derive_seed(ctx.seed, 3));
  return static_cast<double>(strikes) / (now_s() - t0);
}

/// Mean microseconds of one joint 2×2 ClusterSimulator::simulate (one
/// thread) over strikes into one or two cells of the tile.
double kernel_cluster(const Context& ctx, Tracer& tr, Outcome& out) {
  const sram::CellDesign design;
  sram::ClusterSimulator sim(design, 0.8, 2, 2);
  stats::Rng rng(stats::Rng::derive_seed(ctx.seed, 4));
  constexpr std::size_t n = 100;
  std::vector<std::vector<sram::ClusterSimulator::CellStrike>> strikes(n);
  for (auto& tile : strikes) {
    const std::size_t cells = 1 + rng.uniform_index(2);
    for (std::size_t c = 0; c < cells; ++c) {
      sram::ClusterSimulator::CellStrike cs;
      cs.local = static_cast<std::uint8_t>(c == 0 ? 0 : 1 + rng.uniform_index(3));
      cs.charges.i1_fc = rng.uniform(0.05, 0.3);
      tile.push_back(cs);
    }
  }
  const std::vector<sram::DeltaVt> dvts(4);
  std::size_t failures = 0;
  const Tracer::Scope s(tr, "kernel.cluster_sim");
  const double t0 = now_s();
  for (const auto& tile : strikes) {
    failures += sim.simulate(tile, dvts, spice::PulseShape::Kind::kRectangular)
                        .failed
                    ? 1
                    : 0;
  }
  const double elapsed = now_s() - t0;
  out.count(out.check(failures == 0, "cluster kernel: " +
                                         std::to_string(failures) +
                                         " joint simulations failed"));
  return 1e6 * elapsed / static_cast<double>(n);
}

/// Serve kernels on the seed surfaces: raw ResponseSurface queries, a
/// ServeSession over an in-memory request stream, and the same client the
/// end-to-end run uses against /bin/cat (the pipe + client floor).
struct ServeKernels {
  double pof_query_ns = 0.0;
  double fit_query_ns = 0.0;
  double session_us_per_req = 0.0;
  double pipe_floor_us = 0.0;
};

ServeKernels kernel_serve(const Context& ctx, Tracer& tr,
                          const std::vector<const surface::ResponseSurface*>& surfs,
                          const std::string& log_path, Outcome& out) {
  ServeKernels k;
  stats::Rng rng(stats::Rng::derive_seed(ctx.seed, 5));
  constexpr std::size_t n = 50000;
  std::vector<Query> qs;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    qs.push_back(draw_query(rng, surfs));
    lines.push_back(format_query(i, "ref", qs.back()));
  }

  double sink = 0.0;
  {
    const Tracer::Scope s(tr, "kernel.surface_query");
    const std::size_t reps = 4;
    const double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const Query& q : qs) sink += q.surf->pof(q.vdd, q.energy_mev, q.with_pv).tot;
    }
    const double t1 = now_s();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const Query& q : qs) sink += q.surf->fit(q.vdd, q.with_pv).tot;
    }
    const double t2 = now_s();
    const auto total = static_cast<double>(reps * n);
    k.pof_query_ns = 1e9 * (t1 - t0) / total;
    k.fit_query_ns = 1e9 * (t2 - t1) / total;
  }
  out.info["surface_query_checksum"] = sink;

  {
    std::vector<surface::ServeScenario> catalog(1);
    catalog[0].name = "ref";
    catalog[0].species = {surfs[0]->species, surfs[1]->species};
    catalog[0].temp_k = surfs[0]->temp_k;
    const auto lookup = [&](const std::string&, const std::string& species) {
      return species == surfs[0]->species ? surfs[0] : surfs[1];
    };
    // Every request is buffered up front, so the bound must admit them all.
    surface::ServeConfig cfg;
    cfg.max_pending = n + 1;
    surface::ServeSession session(catalog, cfg, lookup, lookup, nullptr);
    std::string text;
    for (const std::string& l : lines) text += l + "\n";
    std::istringstream in(text);
    std::ostringstream replies;
    int rc = 0;
    {
      const Tracer::Scope s(tr, "kernel.serve_session");
      const double t0 = now_s();
      rc = session.run(in, replies);
      k.session_us_per_req = 1e6 * (now_s() - t0) / static_cast<double>(n);
    }
    std::istringstream got(replies.str());
    std::string reply;
    std::size_t i = 0, bad = 0;
    while (std::getline(got, reply)) {
      const bool good = i % 101 == 0 ? i < n && reply_matches(reply, qs[i])
                                     : reply_ok(reply);
      if (!good) ++bad;
      ++i;
    }
    out.count(out.check(rc == 0 && i == n && bad == 0,
                        "serve session kernel: " + std::to_string(bad) +
                            " bad replies of " + std::to_string(i)));
  }

  {
    Child cat({"/bin/cat"}, /*pipe_stdio=*/true, log_path);
    NdjsonClient client(cat);
    std::vector<double> lat;
    bool ok = false;
    {
      const Tracer::Scope s(tr, "kernel.pipe_floor");
      ok = client.run(lines, kServeWindow, lat, nullptr);
    }
    cat.close_stdin();
    const ChildResult r = cat.wait(30.0);
    out.count(out.check(ok && r.exit_code == 0, "pipe floor: /bin/cat failed"));
    k.pipe_floor_us = lat.empty() ? 0.0 : 1e6 * median(lat);
  }
  return k;
}

}  // namespace

void run_traced(const Context& ctx, Workload w, const std::string& trace_path,
                Outcome& out) {
  obs::set_enabled(true);
  Tracer tr;
  Replay replay(tr, ctx);
  const std::string seed_dir = ctx.work_dir + "/trace_seed";
  fs::remove_all(seed_dir);

  // 1. The set-up campaign, in-process.
  {
    const Tracer::Scope s(tr, "setup");
    replay.campaign(seed_scenario(ctx), seed_dir + "/store", seed_dir + "/out");
  }
  const sram::CellSoftErrorModel seed_model = replay.model();
  const std::vector<std::uint64_t> seed_surfaces = replay.surface_fps();

  // 2. One operation of the workload (for serve_mixed: one refine unit).
  const ScenarioDef op = op_scenario(ctx, w);
  const bool warm = w != Workload::kColdCampaign;
  const std::string op_dir = ctx.work_dir + "/trace_op";
  fs::remove_all(op_dir);
  if (warm) copy_model_slice(seed_dir + "/store", op_dir + "/store");
  const Counters before_op = read_counters();
  double op_stages_s = 0.0;
  {
    const Tracer::Scope s(tr, "op");
    op_stages_s = replay.campaign(op, op_dir + "/store", op_dir + "/out");
  }
  const Counters op_counters = [&] {
    Counters c;
    accumulate(c, before_op, read_counters());
    return c;
  }();
  const std::uint64_t replay_digest = digest_dir(op_dir + "/out/" + op.name);

  // 3. The same operation through the CLI, untraced, on a slice of the
  //    replayed seed store: outputs must match and the replay's artifacts
  //    must be the ones the CLI looks for.
  const std::string cli_dir = ctx.work_dir + "/trace_cli";
  fs::remove_all(cli_dir);
  if (warm) copy_model_slice(seed_dir + "/store", cli_dir + "/store");
  const std::string file = cli_dir + "/campaign.json";
  write_text(file, campaign_json(workload_name(w), cli_dir + "/store",
                                 cli_dir + "/out", {op}));
  ChildResult cli;
  {
    const Tracer::Scope s(tr, "cli.op");
    cli = run_child({ctx.cli, "campaign", file, "--threads",
                     std::to_string(ctx.threads)},
                    cli_dir + "/cli.log", 120.0);
  }
  out.count(out.check(cli.exit_code == 0, "traced CLI run failed"));
  out.count(out.check(digest_dir(cli_dir + "/out/" + op.name) == replay_digest,
                      "in-process replay and CLI outputs differ"));
  out.count(out.check(store_entries(cli_dir + "/store", "device_lut") ==
                          store_entries(op_dir + "/store", "device_lut") &&
                      store_entries(cli_dir + "/store", "cell_model") ==
                          store_entries(op_dir + "/store", "cell_model"),
                      "CLI and replay disagree on model/LUT artifacts"));
  if (w == Workload::kCluster2x2) {
    out.count(out.check(delta({}, op_counters, "sram.cluster.sims") > 0,
                        "cluster mode did not engage (sram.cluster.sims = 0)"));
  }

  // 4. Per-layer kernels.
  const double spice_rate = kernel_spice(ctx, tr, out);
  const double rays_rate = kernel_transport(ctx, tr);
  constexpr std::size_t strikes = 1000000;
  const Counters before_strikes = read_counters();
  const double strikes_rate =
      kernel_strikes(ctx, tr, seed_model, ctx.threads, strikes);
  const Counters after_strikes = read_counters();
  const double strikes_rate_1t = kernel_strikes(ctx, tr, seed_model, 1, strikes);
  const double cluster_us = kernel_cluster(ctx, tr, out);

  const pipeline::ArtifactStore seed_store(seed_dir + "/store");
  std::vector<surface::ResponseSurface> surfaces;
  for (std::uint64_t fp : seed_surfaces) {
    std::vector<std::uint8_t> blob;
    {
      const Tracer::Scope s(tr, "pipeline.artifact_get");
      seed_store.try_get({surface::kResponseSurfaceKind, fp}, blob);
    }
    const Tracer::Scope s(tr, "surface.decode");
    surfaces.push_back(surface::ResponseSurface::decode(blob));
  }
  const ServeKernels serve = kernel_serve(ctx, tr, {&surfaces[0], &surfaces[1]},
                                          cli_dir + "/cat.log", out);

  double refine_s = 0.0;
  {
    // One serve miss through the public refinement entry point.
    const std::string dir = ctx.work_dir + "/trace_refine";
    fs::remove_all(dir);
    copy_model_slice(seed_dir + "/store", dir + "/store");
    pipeline::SurfaceProvider provider(
        pipeline::parse_campaign_text(campaign_json(
            "serve", dir + "/store", "", {serve_sibling(ctx, 1)})),
        ctx.threads);
    const Tracer::Scope s(tr, "pipeline.refine");
    const double t0 = now_s();
    const bool ok = provider.refine(serve_sibling(ctx, 1).name, "alpha") != nullptr;
    refine_s = now_s() - t0;
    out.count(out.check(ok, "refine returned no surface"));
  }
  obs::set_enabled(false);

  const Counters& spice = replay.characterize_counters();
  const auto c = [&](const Counters& m, const char* name) {
    return delta({}, m, name);
  };
  const double characterize_s = tr.total_s("sram.characterize");
  const double sweep_s = tr.total_s("core.sweep");
  const auto threads = static_cast<double>(ctx.threads);

  out.add("sram.characterize_s", characterize_s, "s");
  out.add("sram.characterize_cpu_util",
          ratio(replay.characterize_cpu_s(), characterize_s * threads), "ratio");
  out.add("spice.transients", static_cast<double>(c(spice, "spice.tran.runs")),
          "count");
  out.add("spice.newton_iters_per_transient",
          count_ratio(c(spice, "spice.tran.newton_iters"),
                      c(spice, "spice.tran.runs")),
          "ratio");
  out.add("spice.batch.active_lane_fraction",
          count_ratio(c(spice, "spice.batch.lane_iters_active"),
                      c(spice, "spice.batch.lane_iters_active") +
                          c(spice, "spice.batch.lane_iters_masked")),
          "ratio");
  out.add("spice.transients_per_s", spice_rate, "1/s");
  out.add("sram.strike_sample_failures",
          static_cast<double>(c(spice, "sram.strike_sample_failures")), "count");
  out.add("pipeline.schedule_gap_s", cli.wall_s - op_stages_s, "s");
  out.add("pipeline.artifact_get_s", tr.total_s("pipeline.artifact_get"), "s");
  out.add("pipeline.artifact_put_s", tr.total_s("pipeline.artifact_put"), "s");
  out.add("pipeline.artifact_bytes", static_cast<double>(replay.bytes_put()),
          "bytes");
  out.add("pipeline.refine_s", refine_s, "s");
  out.add("phys.device_lut_s", tr.total_s("phys.device_lut"), "s");
  out.add("phys.transport_rays_per_s", rays_rate, "1/s");
  out.add("core.sweep_s", tr.self_s("core.sweep"), "s");
  out.add("core.sweep_cpu_util", ratio(replay.sweep_cpu_s(), sweep_s * threads),
          "ratio");
  out.add("core.strikes_per_s", strikes_rate, "1/s");
  out.add("core.strikes_per_s_1t", strikes_rate_1t, "1/s");
  // With one usable CPU this reads ~1 by construction; the ledger marks it
  // unmeasured (README.md).
  out.add("exec.parallel_efficiency", strikes_rate / (threads * strikes_rate_1t),
          "ratio");
  out.add("core.strike_hit_fraction",
          count_ratio(delta(before_strikes, after_strikes,
                            "core.array_mc.strike_hits"),
                      strikes),
          "ratio");
  out.add("geom.grid_queries_per_strike",
          count_ratio(delta(before_strikes, after_strikes, "geom.grid_queries"),
                      strikes),
          "ratio");
  out.add("sram.cluster.sims", static_cast<double>(c(op_counters, "sram.cluster.sims")),
          "count");
  out.add("sram.cluster.sim_fail",
          static_cast<double>(c(op_counters, "sram.cluster.sim_fail")), "count");
  out.add("sram.cluster.surface_hit_ratio",
          count_ratio(c(op_counters, "sram.cluster.surface_hit"),
                      c(op_counters, "sram.cluster.surface_hit") +
                          c(op_counters, "sram.cluster.surface_miss")),
          "ratio");
  out.add("sram.cluster.sim_us", cluster_us, "us");
  out.add("surface.decode_s", tr.total_s("surface.decode"), "s");
  out.add("surface.pof_query_ns", serve.pof_query_ns, "ns");
  out.add("surface.fit_query_ns", serve.fit_query_ns, "ns");
  out.add("serve.session_us_per_req", serve.session_us_per_req, "us");
  out.add("serve.pipe_floor_us", serve.pipe_floor_us, "us");

  out.info["op_stages_s"] = op_stages_s;
  out.info["cli_op_wall_s"] = cli.wall_s;
  out.info["digest." + std::string(workload_name(w))] = hex64(replay_digest);
  out.count(out.check(tr.write_chrome_trace(trace_path),
                      "cannot write " + trace_path));
  out.info["trace_file"] = fs::path(trace_path).filename().string();
  for (const char* d : {"/trace_seed", "/trace_op", "/trace_cli", "/trace_refine"}) {
    fs::remove_all(ctx.work_dir + d);
  }
}

}  // namespace perf_ledger
