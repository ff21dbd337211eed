/// \file e2e.cpp
/// \brief End-to-end measurement through the real finser_cli.
///
/// Every operation is a subprocess of the CLI under test with obs and
/// tracing off: `campaign` runs for the three batch workloads, one
/// long-lived `serve` for serve_mixed. Preparing inputs (copying the seed
/// store slice, writing the campaign file) and checking outputs happen
/// outside the timed region.

#include <algorithm>
#include <filesystem>

#include "client.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/fingerprint.hpp"
#include "ledger.hpp"
#include "proc.hpp"
#include "queries.hpp"
#include "scenarios.hpp"

namespace perf_ledger {

namespace fs = std::filesystem;

namespace {

constexpr double kChildTimeoutS = 120.0;
constexpr int kSetupRepeats = 3;

std::vector<std::string> cli_args(const Context& ctx, const char* command,
                                  const std::string& file) {
  return {ctx.cli, command, file, "--threads", std::to_string(ctx.threads)};
}

util::JsonValue json_array(const std::vector<double>& v) {
  util::JsonValue a = util::JsonValue::array();
  for (double x : v) a.push_back(x);
  return a;
}

std::string describe(const ChildResult& r) {
  return r.timed_out ? std::string("timed out")
                     : "exit code " + std::to_string(r.exit_code);
}

/// Digest consistency across the operations of a run, and equality with
/// the committed reference at the reference seed.
void check_digests(const Context& ctx, const std::string& key,
                   const std::vector<std::uint64_t>& digests, Outcome& out) {
  bool same = !digests.empty();
  for (std::uint64_t d : digests) same = same && d == digests.front();
  out.count(out.check(same, key + ": outputs differ between identical runs"));
  if (digests.empty()) return;
  out.info["digest." + key] = hex64(digests.front());
  if (!ctx.reference_seed()) return;
  const std::string ref = reference_digest(key);
  out.count(out.check(ref == hex64(digests.front()),
                      key + ": output digest " + hex64(digests.front()) +
                          " != reference " + (ref.empty() ? "(none)" : ref)));
}

}  // namespace

double run_setup(const Context& ctx, const std::string& seed_dir,
                 Outcome& out) {
  const ScenarioDef scenario = seed_scenario(ctx);
  std::vector<double> walls;
  std::vector<std::uint64_t> digests;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string dir =
        rep == 0 ? seed_dir : ctx.work_dir + "/setup" + std::to_string(rep);
    fs::remove_all(dir);
    const std::string file = dir + "/campaign.json";
    write_text(file, campaign_json("seed", dir + "/store", dir + "/out",
                                   {scenario}));
    const ChildResult r =
        run_child(cli_args(ctx, "campaign", file), dir + "/cli.log",
                  kChildTimeoutS);
    const bool ran = out.check(r.exit_code == 0,
                               "setup campaign: " + describe(r));
    const bool stocked = out.check(
        store_entries(dir + "/store", "cell_model").size() == 1 &&
            store_entries(dir + "/store", "device_lut").size() == 2 &&
            store_entries(dir + "/store", "response_surface").size() == 2,
        "setup store lacks its cell_model/device_lut/response_surface "
        "entries");
    out.count(ran && stocked);
    walls.push_back(r.net_wall_s());
    digests.push_back(digest_dir(dir + "/out/" + scenario.name));
    if (rep != 0) fs::remove_all(dir);
  }
  check_digests(ctx, "setup", digests, out);
  return median(walls);
}

namespace {

void run_campaign_ops(const Context& ctx, Workload w,
                      const std::string& seed_dir, Outcome& out) {
  const ScenarioDef scenario = op_scenario(ctx, w);
  const bool warm = w != Workload::kColdCampaign;
  const std::string seed_store = seed_dir + "/store";
  const std::vector<std::string> seed_models =
      store_entries(seed_store, "cell_model");

  std::vector<double> wall, net_wall, steal, cpu, rss;
  std::vector<std::uint64_t> digests;
  const double start = now_s();
  while (wall.size() < 3 || now_s() - start < ctx.seconds) {
    const std::string dir = ctx.work_dir + "/op";
    fs::remove_all(dir);
    if (warm) copy_model_slice(seed_store, dir + "/store");
    const std::string file = dir + "/campaign.json";
    write_text(file, campaign_json(workload_name(w), dir + "/store",
                                   dir + "/out", {scenario}));

    const ChildResult r = run_child(cli_args(ctx, "campaign", file),
                                    dir + "/cli.log", kChildTimeoutS);

    bool ok = out.check(r.exit_code == 0, "campaign: " + describe(r));
    const std::vector<std::string> models =
        store_entries(dir + "/store", "cell_model");
    if (warm) {
      ok = out.check(models == seed_models,
                     "warm run changed the store's cell_model entries") && ok;
    } else {
      ok = out.check(models.size() == 1,
                     "cold run did not store exactly one cell model") && ok;
    }
    if (w == Workload::kCluster2x2) {
      ok = out.check(store_entries(dir + "/store", "cluster_surface").size() == 1,
                     "cluster mode did not engage (no cluster_surface)") && ok;
    }
    out.count(ok);
    wall.push_back(r.wall_s);
    net_wall.push_back(r.net_wall_s());
    steal.push_back(r.steal_share);
    cpu.push_back(r.cpu_s);
    rss.push_back(r.maxrss_mb);
    digests.push_back(digest_dir(dir + "/out/" + scenario.name));
  }
  fs::remove_all(ctx.work_dir + "/op");
  check_digests(ctx, workload_name(w), digests, out);

  double wall_sum = 0.0, cpu_sum = 0.0, rss_max = 0.0;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    wall_sum += wall[i];
    cpu_sum += cpu[i];
    rss_max = std::max(rss_max, rss[i]);
  }
  const auto n = static_cast<double>(wall.size());
  out.add("latency_ms", 1e3 * median(net_wall), "ms");
  out.add("peak_rss_mb", rss_max, "MB");
  out.info["cpu_ms_per_op"] = 1e3 * cpu_sum / n;
  out.info["op_wall_s"] = json_array(wall);
  out.info["op_steal_share"] = json_array(steal);
  out.info["ops_per_s"] = n / wall_sum;
  out.info["cpu_util"] = cpu_sum / (wall_sum * static_cast<double>(ctx.threads));
}

// --- serve_mixed -------------------------------------------------------------

void run_serve(const Context& ctx, const std::string& seed_dir, Outcome& out) {
  // The server works on a copy of the whole seed store: the reference
  // surfaces answer the hits, and each miss refines one sibling scenario
  // (sweep + surface build + artifact write) on the shared seed model.
  const std::string dir = ctx.work_dir + "/serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(seed_dir + "/store", dir + "/store", fs::copy_options::recursive);
  std::vector<ScenarioDef> catalog = {seed_scenario(ctx)};
  for (std::size_t k = 0; k < kServeSiblings; ++k) {
    catalog.push_back(serve_sibling(ctx, k));
  }
  const std::string file = dir + "/serve.json";
  const std::string doc = campaign_json("serve", dir + "/store", "", catalog);
  write_text(file, doc);
  const std::vector<std::string> seed_models =
      store_entries(dir + "/store", "cell_model");

  // In-process answers from the same store, for the reply checks.
  pipeline::SurfaceProvider provider(pipeline::parse_campaign_text(doc),
                                     ctx.threads);
  const std::vector<const surface::ResponseSurface*> surfs = {
      provider.lookup("ref", "alpha"), provider.lookup("ref", "proton")};
  if (!out.check(surfs[0] != nullptr && surfs[1] != nullptr,
                 "seed store has no reference surfaces")) {
    out.count(false);
    return;
  }

  std::vector<std::string> args = cli_args(ctx, "serve", file);
  args.push_back("--max-pending");
  args.push_back("64");
  Child server(args, /*pipe_stdio=*/true, dir + "/serve.log");
  NdjsonClient client(server);
  stats::Rng rng(stats::Rng::derive_seed(ctx.seed, 0x5E7E));
  std::uint64_t next_id = 0;
  const auto make_hits = [&](std::size_t n, std::vector<Query>& qs,
                             std::vector<std::string>& lines) {
    qs.clear();
    lines.clear();
    for (std::size_t i = 0; i < n; ++i) {
      qs.push_back(draw_query(rng, surfs));
      lines.push_back(format_query(next_id++, "ref", qs.back()));
    }
  };

  std::vector<Query> qs;
  std::vector<std::string> lines;
  std::vector<double> warmup_lat, hit_lat, miss_lat, round_ms_per_req;
  std::size_t bad_replies = 0, checked = 0, mismatched = 0;
  bool io_ok = true;
  // Warm-up: the first queries load the surfaces from the store.
  make_hits(1000, qs, lines);
  io_ok = client.run(lines, kServeWindow, warmup_lat, nullptr);

  const double miss_vdd = seed_scenario(ctx).vdds.front();
  std::vector<std::string> miss_replies;
  util::Fnv1a first_round;
  first_round.str("perf_ledger.serve.v1");
  double measured_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> hit_steal, miss_steal;
  const double start = now_s();
  while (io_ok && rounds < kServeSiblings &&
         (rounds < 2 || now_s() - start < ctx.seconds)) {
    make_hits(kServeHitsPerRound, qs, lines);  // outside the timed region
    const std::string miss =
        "{\"id\":" + std::to_string(next_id++) +
        ",\"op\":\"pof\",\"scenario\":\"" + catalog[1 + rounds].name +
        "\",\"species\":\"alpha\",\"vdd\":" + util::JsonValue(miss_vdd).dump() +
        ",\"energy_mev\":2}";
    std::vector<double> round_hits, round_miss;
    const CpuTicks ticks0 = CpuTicks::now();
    const double t0 = now_s();
    io_ok = client.run(lines, kServeWindow, round_hits,
                       [&](std::size_t i, const std::string& reply) {
                         if (!reply_ok(reply)) ++bad_replies;
                         if (rounds == 0) first_round.str(reply);
                         if (i % 101 == 0) {
                           ++checked;
                           if (!reply_matches(reply, qs[i])) ++mismatched;
                         }
                       });
    const double t1 = now_s();
    const CpuTicks ticks1 = CpuTicks::now();
    hit_steal.push_back(steal_share(ticks0, ticks1));
    io_ok = io_ok && client.run({miss}, 1, round_miss,
                                [&](std::size_t, const std::string& reply) {
                                  if (!reply_ok(reply)) ++bad_replies;
                                  if (rounds == 0) first_round.str(reply);
                                  miss_replies.push_back(reply);
                                });
    const double t2 = now_s();
    measured_s += t2 - t0;
    miss_steal.push_back(steal_share(ticks1, CpuTicks::now()));
    // Each phase net of the steal share measured over it, like a campaign
    // operation: the hits busy two threads, the miss every thread.
    round_ms_per_req.push_back(1e3 *
                               ((t1 - t0) * (1.0 - hit_steal.back()) +
                                (t2 - t1) * (1.0 - miss_steal.back())) /
                               static_cast<double>(kServeHitsPerRound + 1));
    hit_lat.insert(hit_lat.end(), round_hits.begin(), round_hits.end());
    miss_lat.insert(miss_lat.end(), round_miss.begin(), round_miss.end());
    ++rounds;
  }
  std::vector<double> shutdown_lat;
  io_ok = io_ok && client.run({"{\"id\":" + std::to_string(next_id++) +
                               ",\"op\":\"shutdown\"}"},
                              1, shutdown_lat, nullptr);
  server.close_stdin();
  const ChildResult r = server.wait(kChildTimeoutS);

  out.count(out.check(io_ok, "serve: lost the reply stream"));
  out.count(out.check(r.exit_code == 0,
                      "serve: " + describe(r) + " (6 = degraded)"));
  out.count(out.check(store_entries(dir + "/store", "cell_model") == seed_models,
                      "serve changed the store's cell_model entries"));
  // The misses persisted their surfaces; the replies must match them.
  pipeline::SurfaceProvider after(pipeline::parse_campaign_text(doc),
                                  ctx.threads);
  std::size_t miss_bad = 0;
  for (std::size_t k = 0; k < miss_replies.size(); ++k) {
    Query q;
    q.surf = after.lookup(catalog[1 + k].name, "alpha");
    q.vdd = miss_vdd;
    q.energy_mev = 2.0;
    if (q.surf == nullptr || !reply_matches(miss_replies[k], q)) ++miss_bad;
  }
  out.check(bad_replies == 0,
            "serve: " + std::to_string(bad_replies) + " replies not ok");
  out.check(mismatched == 0, "serve: " + std::to_string(mismatched) + "/" +
                                 std::to_string(checked) +
                                 " checked replies differ from in-process");
  out.check(miss_bad == 0, "serve: " + std::to_string(miss_bad) +
                               " refined answers differ from their artifacts");
  out.attempted += hit_lat.size() + miss_lat.size();
  out.failed += bad_replies + mismatched + miss_bad;
  fs::remove_all(dir);

  if (round_ms_per_req.empty() || hit_lat.empty() || miss_lat.empty()) return;
  const auto n = static_cast<double>(hit_lat.size() + miss_lat.size());
  // A round's time per request: its hits and its miss each take about half
  // of it, so a regression on either path moves the gated number.
  out.add("latency_ms", median(round_ms_per_req), "ms");
  out.add("peak_rss_mb", r.maxrss_mb, "MB");
  out.info["cpu_ms_per_req"] = 1e3 * r.cpu_s / n;
  out.info["requests_per_s"] = n / measured_s;
  out.info["rounds"] = static_cast<std::uint64_t>(rounds);
  out.info["hits"] = static_cast<std::uint64_t>(hit_lat.size());
  out.info["hit_p50_us"] = 1e6 * median(hit_lat);
  out.info["hit_p99_us"] = 1e6 * percentile(hit_lat, 0.99);
  out.info["refine_ms"] = 1e3 * median(miss_lat);
  out.info["hit_steal_share"] = median(hit_steal);
  out.info["miss_steal_share"] = median(miss_steal);
  // One round's replies are a pure function of the seed.
  const std::vector<std::uint64_t> digest = {first_round.hash()};
  check_digests(ctx, "serve_mixed", digest, out);
}

}  // namespace

void run_end_to_end(const Context& ctx, Workload w, const std::string& seed_dir,
                    Outcome& out) {
  if (w == Workload::kServeMixed) {
    run_serve(ctx, seed_dir, out);
  } else {
    run_campaign_ops(ctx, w, seed_dir, out);
  }
}

}  // namespace perf_ledger
