/// \file scenarios.cpp
/// \brief Scenario sizes, campaign documents and store/digest helpers.

#include "scenarios.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "finser/pipeline/artifact_store.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/fingerprint.hpp"
#include "finser/util/io.hpp"

namespace perf_ledger {

namespace fs = std::filesystem;

namespace {

// Sizes are chosen so that one operation takes about 1-3 s on a 4-core
// machine of 2026: several operations fit in one measured run, so the
// reported medians are steady.

// The seed model: one supply voltage. The set-up builds it three times per
// run, so every extra voltage would add several seconds to each of the
// benchmark's runs.
const std::vector<double> kSeedVdds = {0.8};
// The characterizer hands out PV samples in chunks of the lane width (8 on
// AVX2 machines). 32 samples make 4 chunks, one per thread at T = 4, so a
// characterization given every thread can keep them all busy; with fewer,
// a scheduler that gave it more threads could not show the gain.
constexpr std::size_t kSeedPv = 32;
// The cold model's PV budget, the paper-sized campaign's.
constexpr std::size_t kColdPv = 200;

std::uint64_t pattern_seed_for(const Context& ctx, std::uint64_t stream) {
  return 1 + stats::Rng::derive_seed(ctx.seed, stream) % 1000003;
}

ScenarioDef seed_model_scenario(const Context& ctx, std::string name) {
  ScenarioDef s;
  s.name = std::move(name);
  s.vdds = kSeedVdds;
  s.pv_samples = kSeedPv;
  s.species = {"alpha", "proton"};
  s.seed = ctx.seed;
  s.pattern_seed = pattern_seed_for(ctx, 0);
  return s;
}

}  // namespace

util::JsonValue ScenarioDef::to_json() const {
  util::JsonValue s = util::JsonValue::object();
  s["name"] = name;
  s["rows"] = static_cast<std::uint64_t>(rows);
  s["cols"] = static_cast<std::uint64_t>(cols);
  s["pattern"] = pattern;
  s["pattern_seed"] = pattern_seed;
  util::JsonValue v = util::JsonValue::array();
  for (double x : vdds) v.push_back(x);
  s["vdds"] = std::move(v);
  s["pv_samples"] = static_cast<std::uint64_t>(pv_samples);
  s["strikes"] = static_cast<std::uint64_t>(strikes);
  s["seed"] = seed;
  util::JsonValue sp = util::JsonValue::array();
  for (const std::string& x : species) sp.push_back(x);
  s["species"] = std::move(sp);
  if (cluster_2x2) {
    util::JsonValue c = util::JsonValue::object();
    c["mode"] = "2x2";
    s["cluster"] = std::move(c);
  }
  return s;
}

ScenarioDef seed_scenario(const Context& ctx) {
  ScenarioDef s = seed_model_scenario(ctx, "ref");
  s.strikes = 4000;
  return s;
}

ScenarioDef op_scenario(const Context& ctx, Workload w) {
  switch (w) {
    case Workload::kColdCampaign: {
      // A model of its own at one voltage with the paper's PV budget:
      // characterization (SPICE) is ~95% of the operation and array MC a
      // few percent, as in one voltage of the paper-sized campaign.
      ScenarioDef s = seed_model_scenario(ctx, "cold");
      s.vdds = {0.9};
      s.pv_samples = kColdPv;
      s.strikes = 4000;
      return s;
    }
    case Workload::kSweepWarmModel: {
      ScenarioDef s = seed_model_scenario(ctx, "sweep");
      s.pattern = "ones";
      s.strikes = 300000;
      return s;
    }
    case Workload::kCluster2x2: {
      ScenarioDef s = seed_model_scenario(ctx, "cluster");
      s.species = {"alpha"};
      s.cluster_2x2 = true;
      s.strikes = 8000;
      return s;
    }
    case Workload::kServeMixed:
      return serve_sibling(ctx, 0);
  }
  throw std::logic_error("unknown workload");
}

ScenarioDef serve_sibling(const Context& ctx, std::size_t k) {
  char name[16];
  std::snprintf(name, sizeof name, "sib%02zu", k);
  ScenarioDef s = seed_model_scenario(ctx, name);
  s.pattern = "random";
  s.pattern_seed = pattern_seed_for(ctx, 1 + k);
  s.strikes = 20000;
  return s;
}

std::string campaign_json(const std::string& name, const std::string& store,
                          const std::string& out,
                          const std::vector<ScenarioDef>& scenarios) {
  util::JsonValue doc = util::JsonValue::object();
  doc["campaign"] = name;
  doc["artifact_dir"] = store;
  doc["output_dir"] = out;
  util::JsonValue list = util::JsonValue::array();
  for (const ScenarioDef& s : scenarios) list.push_back(s.to_json());
  doc["scenarios"] = std::move(list);
  return doc.dump(2);
}

void write_text(const std::string& path, const std::string& text) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os.good()) throw std::runtime_error("cannot write " + path);
}

std::uint64_t digest_dir(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  util::Fnv1a h;
  h.str("perf_ledger.outputs.v1");
  for (const fs::path& p : files) {
    std::vector<std::uint8_t> bytes;
    util::read_file(p.string(), bytes);
    h.str(p.filename().string());
    h.u64(bytes.size());
    h.bytes(bytes.data(), bytes.size());
  }
  return h.hash();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void copy_model_slice(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& e : fs::directory_iterator(from)) {
    const std::string n = e.path().filename().string();
    if (n.rfind("cell_model-", 0) == 0 || n.rfind("device_lut-", 0) == 0) {
      fs::copy_file(e.path(), fs::path(to) / n);
    }
  }
}

std::vector<std::string> store_entries(const std::string& dir,
                                       const std::string& kind) {
  const pipeline::ArtifactStore store(dir, /*sweep_on_open=*/false);
  std::vector<std::string> out;
  for (const auto& e : store.list()) {
    if (e.key.kind != kind) continue;
    out.push_back((e.ok ? "" : "bad:") + hex64(e.key.fingerprint));
  }
  return out;
}

std::string reference_digest(const std::string& key) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(std::string(PERF_LEDGER_DIR) + "/reference.json",
                       bytes)) {
    return "";
  }
  const util::JsonValue doc =
      util::JsonValue::parse(std::string(bytes.begin(), bytes.end()));
  const util::JsonValue& d = doc.at("digests");
  return d.contains(key) ? d.at(key).as_string() : "";
}

}  // namespace perf_ledger
