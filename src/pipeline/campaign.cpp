#include "finser/pipeline/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "finser/exec/exec.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/stats/rng.hpp"
#include "finser/surface/response_surface.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/config.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"
#include "finser/util/io.hpp"

namespace finser::pipeline {

namespace {

// --- schema vocabulary ------------------------------------------------------

const std::vector<std::string>& top_level_keys() {
  static const std::vector<std::string> keys = {
      "campaign", "seed",     "threads",  "artifact_dir",
      "output_dir", "defaults", "scenarios"};
  return keys;
}

const std::vector<std::string>& scenario_keys() {
  static const std::vector<std::string> keys = {
      "name",      "rows",       "cols",      "pattern",   "pattern_seed",
      "vdds",      "sigma_vt",   "cnode_f",   "pv_samples", "strikes",
      "histories", "seed",       "species",   "cell_w_nm", "cell_h_nm",
      "fin_w_nm",  "fin_h_nm",   "temp_k",    "sampling",  "cluster"};
  return keys;
}

const std::vector<std::string>& cluster_keys() {
  static const std::vector<std::string> keys = {
      "mode", "share_fraction", "pv_samples", "quantum_fc"};
  return keys;
}

const std::vector<std::string>& sampling_keys() {
  static const std::vector<std::string> keys = {
      "position", "qmc", "ci_target", "ci_min_chunks", "ci_growth"};
  return keys;
}

[[noreturn]] void bad(const std::string& message) {
  throw util::InvalidArgument("campaign: " + message);
}

/// Reject keys outside \p allowed, suggesting the nearest known key
/// (util::nearest_key), so a typo'd knob fails with "did you mean ...?"
/// instead of being ignored.
void check_keys(const util::JsonValue& obj, const std::string& where,
                const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.items()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    std::string message = "unknown key `" + key + "` at " + where;
    const std::string suggestion = util::nearest_key(key, allowed);
    if (!suggestion.empty()) {
      message += " (did you mean `" + suggestion + "`?)";
    }
    bad(message);
  }
}

/// Scenario-key lookup with the defaults block folded under the scenario.
const util::JsonValue* find_key(const util::JsonValue& scenario,
                                const util::JsonValue* defaults,
                                const std::string& key) {
  if (scenario.contains(key)) return &scenario.at(key);
  if (defaults != nullptr && defaults->contains(key)) {
    return &defaults->at(key);
  }
  return nullptr;
}

double get_num(const util::JsonValue* v, double fallback,
               const std::string& where, const char* key) {
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    bad("value for `" + std::string(key) + "` at " + where +
        " must be a number");
  }
  return v->as_double();
}

std::uint64_t get_uint(const util::JsonValue* v, std::uint64_t fallback,
                       const std::string& where, const char* key) {
  if (v == nullptr) return fallback;
  if (v->is_number()) {
    try {
      return v->as_uint();
    } catch (const util::Error&) {
      // Negative, fractional or at least 2^64: rejected below.
    }
  }
  bad("value for `" + std::string(key) + "` at " + where +
      " must be an integer in [0, 2^64)");
}

std::size_t get_size(const util::JsonValue* v, std::size_t fallback,
                     const std::string& where, const char* key) {
  const std::uint64_t raw = get_uint(v, fallback, where, key);
  if (raw == 0) {
    bad("value for `" + std::string(key) + "` at " + where +
        " must be positive");
  }
  return static_cast<std::size_t>(raw);
}

std::string get_str(const util::JsonValue* v, std::string fallback,
                    const std::string& where, const char* key) {
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    bad("value for `" + std::string(key) + "` at " + where +
        " must be a string");
  }
  return v->as_string();
}

std::vector<double> get_num_list(const util::JsonValue* v,
                                 std::vector<double> fallback,
                                 const std::string& where, const char* key) {
  if (v == nullptr) return fallback;
  if (!v->is_array() || v->size() == 0) {
    bad("value for `" + std::string(key) + "` at " + where +
        " must be a non-empty array of numbers");
  }
  std::vector<double> out;
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    if (!v->at(i).is_number()) {
      bad("value for `" + std::string(key) + "` at " + where +
          " must be a non-empty array of numbers");
    }
    out.push_back(v->at(i).as_double());
  }
  return out;
}

std::vector<std::string> get_str_list(const util::JsonValue* v,
                                      std::vector<std::string> fallback,
                                      const std::string& where,
                                      const char* key) {
  if (v == nullptr) return fallback;
  if (!v->is_array() || v->size() == 0) {
    bad("value for `" + std::string(key) + "` at " + where +
        " must be a non-empty array of strings");
  }
  std::vector<std::string> out;
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    if (!v->at(i).is_string()) {
      bad("value for `" + std::string(key) + "` at " + where +
          " must be a non-empty array of strings");
    }
    out.push_back(v->at(i).as_string());
  }
  return out;
}

// --- enums ↔ names ----------------------------------------------------------

const std::vector<std::string>& pattern_names() {
  static const std::vector<std::string> names = {"ones", "zeros",
                                                 "checkerboard", "random"};
  return names;
}

const std::vector<std::string>& species_names() {
  static const std::vector<std::string> names = {"alpha", "proton", "neutron"};
  return names;
}

sram::DataPattern pattern_from(const std::string& name,
                               const std::string& where) {
  if (name == "ones") return sram::DataPattern::kAllOnes;
  if (name == "zeros") return sram::DataPattern::kAllZeros;
  if (name == "checkerboard") return sram::DataPattern::kCheckerboard;
  if (name == "random") return sram::DataPattern::kRandom;
  std::string message = "unknown pattern `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, pattern_names());
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

std::string pattern_name(sram::DataPattern pattern) {
  switch (pattern) {
    case sram::DataPattern::kAllOnes:
      return "ones";
    case sram::DataPattern::kAllZeros:
      return "zeros";
    case sram::DataPattern::kCheckerboard:
      return "checkerboard";
    case sram::DataPattern::kRandom:
      return "random";
  }
  return "checkerboard";
}

const std::vector<std::string>& position_names() {
  static const std::vector<std::string> names = {"uniform", "importance"};
  return names;
}

const std::vector<std::string>& qmc_names() {
  static const std::vector<std::string> names = {"none", "sobol"};
  return names;
}

core::SourcePositionSampling position_from(const std::string& name,
                                           const std::string& where) {
  if (name == "uniform") return core::SourcePositionSampling::kUniform;
  if (name == "importance") return core::SourcePositionSampling::kImportance;
  std::string message = "unknown position sampling `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, position_names());
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

std::string position_name(core::SourcePositionSampling position) {
  switch (position) {
    case core::SourcePositionSampling::kUniform:
      return "uniform";
    case core::SourcePositionSampling::kImportance:
      return "importance";
  }
  return "uniform";
}

stats::QmcMode qmc_from(const std::string& name, const std::string& where) {
  if (name == "none") return stats::QmcMode::kNone;
  if (name == "sobol") return stats::QmcMode::kSobol;
  std::string message = "unknown qmc mode `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, qmc_names());
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

std::string qmc_name(stats::QmcMode qmc) {
  switch (qmc) {
    case stats::QmcMode::kNone:
      return "none";
    case stats::QmcMode::kSobol:
      return "sobol";
  }
  return "none";
}

const std::vector<std::string>& cluster_mode_names() {
  static const std::vector<std::string> names = {"1x1", "2x2", "1x4"};
  return names;
}

sram::ClusterMode cluster_mode_from_name(const std::string& name,
                                         const std::string& where) {
  const std::optional<sram::ClusterMode> mode = sram::cluster_mode_from(name);
  if (mode.has_value()) return *mode;
  std::string message = "unknown cluster mode `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, cluster_mode_names());
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

/// A number as the campaign document would print it; non-finite values
/// (which JSON cannot spell, so only a flow built in code and passed to
/// single_scenario_campaign() can carry them) as nan / inf / -inf.
std::string number_text(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  return util::JsonValue(v).dump();
}

/// Supply voltages are characterization axis points: each must be a
/// positive finite voltage, and none may repeat (the response surface needs
/// a strictly increasing axis). Order is free — the model sorts them.
void check_vdds(const std::vector<double>& vdds, const std::string& where) {
  if (vdds.empty()) bad("`vdds` at " + where + " must not be empty");
  for (const double v : vdds) {
    if (!(std::isfinite(v) && v > 0.0)) {
      bad("`vdds` at " + where + " must hold positive voltages, got " +
          number_text(v));
    }
  }
  std::vector<double> sorted = vdds;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    bad("`vdds` at " + where + " lists the supply voltage " +
        number_text(*dup) + " twice");
  }
}

/// The other cell and stopping-rule values every stage assumes: σVt finite
/// and >= 0 (0 = no variation), the storage-node capacitance finite and
/// > 0, and the CI target finite and >= 0 (0 disables adaptive stopping).
/// Checked at parse time, with the voltages, so a bad value exits before
/// any stage runs.
void check_cell_numbers(const core::SerFlowConfig& f,
                        const std::string& where) {
  const auto require = [&](double v, bool positive, const std::string& key) {
    if (std::isfinite(v) && (positive ? v > 0.0 : v >= 0.0)) return;
    bad("`" + key + "` at " + where + " must be finite and " +
        (positive ? "> 0" : ">= 0") + ", got " + number_text(v));
  };
  require(f.cell_design.sigma_vt, false, "sigma_vt");
  require(f.cell_design.cnode_f, true, "cnode_f");
  require(f.array_mc.ci.target, false, "sampling.ci_target");
}

void check_species_name(const std::string& name, const std::string& where) {
  const auto& known = species_names();
  if (std::find(known.begin(), known.end(), name) != known.end()) return;
  std::string message = "unknown species `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, known);
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

// --- scenario parsing -------------------------------------------------------

ScenarioSpec parse_scenario(const util::JsonValue& obj,
                            const util::JsonValue* defaults,
                            std::uint64_t campaign_seed,
                            const std::string& where) {
  if (!obj.is_object()) bad(where + " must be an object");
  check_keys(obj, where, scenario_keys());

  const auto key = [&](const char* k) { return find_key(obj, defaults, k); };

  ScenarioSpec s;
  // `name` must come from the scenario itself — a shared default name would
  // guarantee a duplicate.
  if (!obj.contains("name")) bad(where + " is missing required key `name`");
  s.name = get_str(&obj.at("name"), "", where, "name");
  if (s.name.empty()) bad("`name` at " + where + " must be non-empty");

  core::SerFlowConfig& f = s.flow;
  const core::SerFlowConfig reference;  // schema fallbacks = struct defaults
  f.array_rows = get_size(key("rows"), reference.array_rows, where, "rows");
  f.array_cols = get_size(key("cols"), reference.array_cols, where, "cols");
  f.pattern =
      pattern_from(get_str(key("pattern"), pattern_name(reference.pattern),
                           where, "pattern"),
                   where);
  f.pattern_seed =
      get_uint(key("pattern_seed"), reference.pattern_seed, where,
               "pattern_seed");
  f.characterization.vdds = get_num_list(
      key("vdds"), reference.characterization.vdds, where, "vdds");
  check_vdds(f.characterization.vdds, where);
  f.cell_design.sigma_vt =
      get_num(key("sigma_vt"), reference.cell_design.sigma_vt, where,
              "sigma_vt");
  f.cell_design.cnode_f = get_num(key("cnode_f"), reference.cell_design.cnode_f,
                                  where, "cnode_f");
  f.characterization.pv_samples_single =
      get_size(key("pv_samples"), reference.characterization.pv_samples_single,
               where, "pv_samples");
  f.array_mc.strikes =
      get_size(key("strikes"), reference.array_mc.strikes, where, "strikes");
  // Neutron histories follow strikes unless set.
  f.neutron_mc.histories =
      get_size(key("histories"), f.array_mc.strikes, where, "histories");
  f.seed = get_uint(key("seed"), campaign_seed, where, "seed");
  f.cell_geometry.cell_w_nm =
      get_num(key("cell_w_nm"), reference.cell_geometry.cell_w_nm, where,
              "cell_w_nm");
  f.cell_geometry.cell_h_nm =
      get_num(key("cell_h_nm"), reference.cell_geometry.cell_h_nm, where,
              "cell_h_nm");
  f.cell_geometry.fin_w_nm = get_num(
      key("fin_w_nm"), reference.cell_geometry.fin_w_nm, where, "fin_w_nm");
  f.cell_geometry.fin_h_nm = get_num(
      key("fin_h_nm"), reference.cell_geometry.fin_h_nm, where, "fin_h_nm");
  if (f.cell_geometry.cell_w_nm <= 0.0 || f.cell_geometry.cell_h_nm <= 0.0 ||
      f.cell_geometry.fin_w_nm <= 0.0 || f.cell_geometry.fin_h_nm <= 0.0) {
    bad("geometry at " + where + " must be positive");
  }
  // The temperature axis of the response surface: flows into every device
  // model via Mosfet::set_temperature.
  f.cell_design.temp_k =
      get_num(key("temp_k"), reference.cell_design.temp_k, where, "temp_k");
  if (f.cell_design.temp_k <= 0.0) {
    bad("`temp_k` at " + where + " must be positive");
  }

  // Variance-reduction / adaptive-stopping block (docs/statistics.md). The
  // whole object folds through defaults like any other scenario key; keys
  // omitted inside it keep the engine struct defaults (all "off").
  const util::JsonValue* sampling = key("sampling");
  if (sampling != nullptr) {
    if (!sampling->is_object()) {
      bad("`sampling` at " + where + " must be an object");
    }
    const std::string swhere = where + ".sampling";
    check_keys(*sampling, swhere, sampling_keys());
    const auto skey = [&](const char* k) {
      return sampling->contains(k) ? &sampling->at(k) : nullptr;
    };
    f.array_mc.position = position_from(
        get_str(skey("position"), position_name(f.array_mc.position), swhere,
                "position"),
        swhere);
    stats::SamplingConfig& vr = f.array_mc.sampling;
    vr.qmc = qmc_from(get_str(skey("qmc"), qmc_name(vr.qmc), swhere, "qmc"),
                      swhere);
    const double ci_target =
        get_num(skey("ci_target"), f.array_mc.ci.target, swhere, "ci_target");
    const std::size_t ci_min_chunks = get_size(
        skey("ci_min_chunks"), f.array_mc.ci.min_chunks, swhere,
        "ci_min_chunks");
    const double ci_growth =
        get_num(skey("ci_growth"), f.array_mc.ci.growth, swhere, "ci_growth");
    if (ci_growth < 1.0) {
      bad("`ci_growth` at " + swhere + " must be >= 1");
    }
    // The stopping rule is engine-agnostic: one knob drives both MCs.
    f.array_mc.ci.target = ci_target;
    f.array_mc.ci.min_chunks = ci_min_chunks;
    f.array_mc.ci.growth = ci_growth;
    f.neutron_mc.ci = f.array_mc.ci;
  }

  // Correlated multi-node charge collection (docs/charge_sharing.md). Folds
  // through defaults like `sampling`; omitted keys keep the engine struct
  // defaults (mode 1x1 = the independent per-cell path, byte-for-byte).
  const util::JsonValue* cluster = key("cluster");
  if (cluster != nullptr) {
    if (!cluster->is_object()) {
      bad("`cluster` at " + where + " must be an object");
    }
    const std::string cwhere = where + ".cluster";
    check_keys(*cluster, cwhere, cluster_keys());
    const auto ckey = [&](const char* k) {
      return cluster->contains(k) ? &cluster->at(k) : nullptr;
    };
    sram::ClusterConfig& cc = f.array_mc.cluster;
    cc.mode = cluster_mode_from_name(
        get_str(ckey("mode"), sram::cluster_mode_name(cc.mode), cwhere,
                "mode"),
        cwhere);
    cc.share_fraction = get_num(ckey("share_fraction"), cc.share_fraction,
                                cwhere, "share_fraction");
    if (cc.share_fraction < 0.0 || cc.share_fraction >= 1.0) {
      bad("`share_fraction` at " + cwhere + " must be in [0, 1)");
    }
    cc.pv_samples =
        get_size(ckey("pv_samples"), cc.pv_samples, cwhere, "pv_samples");
    cc.quantum_fc =
        get_num(ckey("quantum_fc"), cc.quantum_fc, cwhere, "quantum_fc");
    if (cc.quantum_fc <= 0.0) {
      bad("`quantum_fc` at " + cwhere + " must be positive");
    }
  }

  check_cell_numbers(f, where);

  s.species = get_str_list(key("species"), {"alpha", "proton"}, where,
                           "species");
  for (const std::string& name : s.species) check_species_name(name, where);
  return s;
}

}  // namespace

CampaignSpec parse_campaign(const util::JsonValue& doc) {
  if (!doc.is_object()) bad("document must be a JSON object");
  check_keys(doc, "top level", top_level_keys());

  CampaignSpec spec;
  const auto top = [&](const char* k) {
    return doc.contains(k) ? &doc.at(k) : nullptr;
  };
  spec.name = get_str(top("campaign"), spec.name, "top level", "campaign");
  spec.artifact_dir =
      get_str(top("artifact_dir"), spec.artifact_dir, "top level",
              "artifact_dir");
  spec.output_dir =
      get_str(top("output_dir"), spec.output_dir, "top level", "output_dir");
  spec.threads = static_cast<std::size_t>(
      get_uint(top("threads"), 0, "top level", "threads"));
  const std::uint64_t campaign_seed =
      get_uint(top("seed"), 20140601, "top level", "seed");

  const util::JsonValue* defaults = top("defaults");
  if (defaults != nullptr) {
    if (!defaults->is_object()) bad("`defaults` must be an object");
    std::vector<std::string> allowed = scenario_keys();
    allowed.erase(std::remove(allowed.begin(), allowed.end(), "name"),
                  allowed.end());
    check_keys(*defaults, "defaults", allowed);
  }

  const util::JsonValue* scenarios = top("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() || scenarios->size() == 0) {
    bad("`scenarios` must be a non-empty array");
  }
  for (std::size_t i = 0; i < scenarios->size(); ++i) {
    const std::string where = "scenarios[" + std::to_string(i) + "]";
    spec.scenarios.push_back(
        parse_scenario(scenarios->at(i), defaults, campaign_seed, where));
  }
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.scenarios.size(); ++j) {
      if (spec.scenarios[i].name == spec.scenarios[j].name) {
        bad("duplicate scenario name `" + spec.scenarios[i].name +
            "` (scenarios[" + std::to_string(i) + "] and scenarios[" +
            std::to_string(j) + "])");
      }
    }
  }
  return spec;
}

namespace {

/// The campaign document of \p text; a JSON syntax error (a truncated
/// document, a number out of range, ...) is an invalid configuration naming
/// \p source.
util::JsonValue parse_document(const std::string& text,
                               const std::string& source) {
  try {
    return util::JsonValue::parse(text);
  } catch (const util::Error& e) {
    bad(source + ": " + e.what());
  }
}

}  // namespace

CampaignSpec parse_campaign_text(const std::string& text) {
  return parse_campaign(parse_document(text, "document"));
}

CampaignSpec parse_campaign_file(const std::string& path) {
  std::vector<std::uint8_t> raw;
  std::string error;
  if (!util::read_file(path, raw, &error)) {
    // A path that does not read is a command-line mistake, like bad JSON.
    throw util::InvalidArgument("cannot read campaign file: " + error);
  }
  return parse_campaign(parse_document(
      std::string(reinterpret_cast<const char*>(raw.data()), raw.size()),
      path));
}

util::JsonValue campaign_to_json(const CampaignSpec& spec) {
  util::JsonValue doc = util::JsonValue::object();
  doc["campaign"] = spec.name;
  doc["threads"] = static_cast<std::uint64_t>(spec.threads);
  doc["artifact_dir"] = spec.artifact_dir;
  doc["output_dir"] = spec.output_dir;
  util::JsonValue scenarios = util::JsonValue::array();
  for (const ScenarioSpec& s : spec.scenarios) {
    const core::SerFlowConfig& f = s.flow;
    util::JsonValue o = util::JsonValue::object();
    o["name"] = s.name;
    o["rows"] = static_cast<std::uint64_t>(f.array_rows);
    o["cols"] = static_cast<std::uint64_t>(f.array_cols);
    o["pattern"] = pattern_name(f.pattern);
    o["pattern_seed"] = f.pattern_seed;
    util::JsonValue vdds = util::JsonValue::array();
    for (double v : f.characterization.vdds) vdds.push_back(v);
    o["vdds"] = std::move(vdds);
    o["sigma_vt"] = f.cell_design.sigma_vt;
    o["cnode_f"] = f.cell_design.cnode_f;
    o["pv_samples"] =
        static_cast<std::uint64_t>(f.characterization.pv_samples_single);
    o["strikes"] = static_cast<std::uint64_t>(f.array_mc.strikes);
    o["histories"] = static_cast<std::uint64_t>(f.neutron_mc.histories);
    o["seed"] = f.seed;
    util::JsonValue species = util::JsonValue::array();
    for (const std::string& name : s.species) species.push_back(name);
    o["species"] = std::move(species);
    o["cell_w_nm"] = f.cell_geometry.cell_w_nm;
    o["cell_h_nm"] = f.cell_geometry.cell_h_nm;
    o["fin_w_nm"] = f.cell_geometry.fin_w_nm;
    o["fin_h_nm"] = f.cell_geometry.fin_h_nm;
    o["temp_k"] = f.cell_design.temp_k;
    util::JsonValue sampling = util::JsonValue::object();
    sampling["position"] = position_name(f.array_mc.position);
    sampling["qmc"] = qmc_name(f.array_mc.sampling.qmc);
    sampling["ci_target"] = f.array_mc.ci.target;
    sampling["ci_min_chunks"] =
        static_cast<std::uint64_t>(f.array_mc.ci.min_chunks);
    sampling["ci_growth"] = f.array_mc.ci.growth;
    o["sampling"] = std::move(sampling);
    util::JsonValue cluster = util::JsonValue::object();
    cluster["mode"] =
        std::string(sram::cluster_mode_name(f.array_mc.cluster.mode));
    cluster["share_fraction"] = f.array_mc.cluster.share_fraction;
    cluster["pv_samples"] =
        static_cast<std::uint64_t>(f.array_mc.cluster.pv_samples);
    cluster["quantum_fc"] = f.array_mc.cluster.quantum_fc;
    o["cluster"] = std::move(cluster);
    scenarios.push_back(std::move(o));
  }
  doc["scenarios"] = std::move(scenarios);
  return doc;
}

CampaignSpec single_scenario_campaign(const core::SerFlowConfig& flow,
                                      std::vector<std::string> species,
                                      std::string output_dir,
                                      std::string name) {
  for (const std::string& s : species) check_species_name(s, "species list");
  check_vdds(flow.characterization.vdds, "scenarios[0]");
  check_cell_numbers(flow, "scenarios[0]");
  CampaignSpec spec;
  spec.name = name;
  spec.output_dir = std::move(output_dir);
  spec.threads = flow.threads;
  ScenarioSpec scenario;
  scenario.name = std::move(name);
  scenario.species = std::move(species);
  scenario.flow = flow;
  spec.scenarios.push_back(std::move(scenario));
  return spec;
}

env::Spectrum spectrum_for_species(const std::string& name) {
  if (name == "alpha") return env::package_alphas();
  if (name == "proton") return env::sea_level_protons();
  if (name == "neutron") return env::sea_level_neutrons();
  check_species_name(name, "species list");  // throws
  throw util::InvalidArgument("campaign: unknown species `" + name + "`");
}

void resolve_flow_for_execution(core::SerFlowConfig& flow) {
  core::apply_mc_scale(flow, core::mc_scale_from_env());
}

// --- CSV emitters -----------------------------------------------------------

util::CsvTable pof_csv(const surface::ResponseSurface& s) {
  util::CsvTable table({"energy_mev", "vdd_v", "pof_tot", "pof_seu", "pof_mbu",
                        "pof_tot_se"});
  const auto pv = static_cast<std::size_t>(core::kModeWithPv);
  const std::size_t nv = s.n_vdd();
  for (std::size_t b = 0; b < s.n_bins(); ++b) {
    for (std::size_t v = 0; v < nv; ++v) {
      const std::size_t k = b * nv + v;
      table.add_row({s.bins[b].e_rep_mev, s.vdds[v], s.pof_tot[pv][k],
                     s.pof_seu[pv][k], s.pof_mbu[pv][k], s.pof_tot_se[pv][k]});
    }
  }
  return table;
}

util::CsvTable make_fit_table() {
  return util::CsvTable({"species", "vdd_v", "fit_tot", "fit_seu", "fit_mbu",
                         "fit_tot_no_pv"});
}

void append_fit_rows(util::CsvTable& table, const std::string& species,
                     const surface::ResponseSurface& s) {
  const auto pv = static_cast<std::size_t>(core::kModeWithPv);
  const auto nom = static_cast<std::size_t>(core::kModeNominal);
  for (std::size_t v = 0; v < s.n_vdd(); ++v) {
    table.add_row({species, s.vdds[v], s.fit_tot[pv][v], s.fit_seu[pv][v],
                   s.fit_mbu[pv][v], s.fit_tot[nom][v]});
  }
}

void append_fit_rows(util::CsvTable& table, const std::string& species,
                     const core::EnergySweepResult& sweep) {
  append_fit_rows(table, species,
                  surface::ResponseSurface::from_sweep("", 0.0, 0, sweep));
}

// --- stage graph ------------------------------------------------------------

std::size_t StageGraph::add(std::string label, std::vector<std::size_t> deps,
                            std::function<void(std::size_t)> fn,
                            StageBody body) {
  for (std::size_t d : deps) {
    FINSER_REQUIRE(d < stages_.size(),
                   "StageGraph::add: dependency on a stage not yet added");
  }
  stages_.push_back(
      Stage{std::move(label), std::move(deps), std::move(fn), body});
  return stages_.size() - 1;
}

void StageGraph::run(std::size_t thread_budget,
                     const exec::ProgressSink& progress) const {
  const std::size_t budget = exec::resolve_threads(thread_budget);

  // Level = longest dependency chain; stages of one level form a wave.
  std::vector<std::size_t> level(stages_.size(), 0);
  std::size_t max_level = 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    for (std::size_t d : stages_[i].deps) {
      level[i] = std::max(level[i], level[d] + 1);
    }
    max_level = std::max(max_level, level[i]);
  }

  for (std::size_t wave = 0; wave <= max_level; ++wave) {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (level[i] == wave) ready.push_back(i);
    }
    if (ready.empty()) continue;

    const auto run_stage = [&](std::size_t id, std::size_t threads) {
      const Stage& stage = stages_[id];
      obs::ScopedSpan span("pipeline.stage", stage.label);
      if (progress) progress.message("stage: " + stage.label);
      stage.fn(threads);
    };
    if (ready.size() == 1) {
      run_stage(ready[0], budget);  // a lone stage keeps the whole budget
      continue;
    }

    // (stage, threads) jobs, serial stages first so each claims a pool
    // thread of its own at once. The parallel stages split the whole budget,
    // remainder threads to the earliest; past `budget` of them they get one
    // thread each and queue for the pool's parallel slots.
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    std::vector<std::size_t> parallel;
    for (std::size_t id : ready) {
      if (stages_[id].body == StageBody::kSerial) {
        jobs.emplace_back(id, 1);
      } else {
        parallel.push_back(id);
      }
    }
    const std::size_t n_serial = jobs.size();
    const std::size_t n_par = parallel.size();
    for (std::size_t k = 0; k < n_par; ++k) {
      const std::size_t share =
          budget / n_par + (k < budget % n_par ? 1 : 0);
      jobs.emplace_back(parallel[k], std::max<std::size_t>(1, share));
    }
    // At budget 1 a one-thread pool runs every job inline, one at a time.
    exec::ThreadPool pool(budget == 1 ? 1
                                      : n_serial + std::min(n_par, budget));
    pool.parallel_for_chunks(jobs.size(), 1, [&](const exec::ChunkRange& r) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        run_stage(jobs[i].first, jobs[i].second);
      }
    });
  }
}

// --- artifact adapters ------------------------------------------------------

bool ArtifactBinCache::load(std::uint64_t fingerprint,
                            std::vector<std::uint8_t>& out) {
  return store_.try_get(ArtifactKey{kind_, fingerprint}, out);
}

void ArtifactBinCache::store(std::uint64_t fingerprint,
                             const std::vector<std::uint8_t>& blob) {
  store_.put(ArtifactKey{kind_, fingerprint}, blob);
}

namespace {

std::uint64_t device_lut_fingerprint(const geom::Aabb& fin_box,
                                     const phys::FinStrikeMc::Config& config,
                                     phys::Species species, double e_lo_mev,
                                     double e_hi_mev, std::size_t points,
                                     std::uint64_t seed) {
  util::Fnv1a h;
  h.str("finser.device_lut.v1");
  h.u64(static_cast<std::uint64_t>(species));
  h.f64(fin_box.lo.x).f64(fin_box.lo.y).f64(fin_box.lo.z);
  h.f64(fin_box.hi.x).f64(fin_box.hi.y).f64(fin_box.hi.z);
  h.u64(static_cast<std::uint64_t>(config.straggling)).u64(config.samples);
  h.f64(e_lo_mev).f64(e_hi_mev).u64(points).u64(seed);
  return h.hash();
}

std::vector<std::uint8_t> encode_grid1(const util::Grid1& grid) {
  util::ByteWriter w;
  w.u64(static_cast<std::uint64_t>(grid.x_axis().scale()));
  w.f64_vec(grid.x_axis().points());
  w.f64_vec(grid.values());
  return w.take();
}

util::Grid1 decode_grid1(const std::vector<std::uint8_t>& blob) {
  util::ByteReader r(blob);
  const std::uint64_t scale = r.u64();
  FINSER_REQUIRE(scale <= static_cast<std::uint64_t>(util::Scale::kLog),
                 "device LUT artifact: unknown axis scale");
  std::vector<double> points = r.f64_vec();
  std::vector<double> values = r.f64_vec();
  FINSER_REQUIRE(r.exhausted(), "device LUT artifact: trailing bytes");
  return util::Grid1(util::Axis(std::move(points),
                                static_cast<util::Scale>(scale)),
                     std::move(values));
}

}  // namespace

util::Grid1 cached_device_lut(const ArtifactStore* store,
                              const geom::Aabb& fin_box,
                              const phys::FinStrikeMc::Config& config,
                              phys::Species species, double e_lo_mev,
                              double e_hi_mev, std::size_t points,
                              std::uint64_t seed) {
  const ArtifactKey key{
      "device_lut", device_lut_fingerprint(fin_box, config, species, e_lo_mev,
                                           e_hi_mev, points, seed)};
  if (store != nullptr) {
    std::vector<std::uint8_t> blob;
    if (store->try_get(key, blob)) {
      try {
        return decode_grid1(blob);
      } catch (const std::exception&) {
        // A malformed payload behind a valid envelope degrades to rebuild.
      }
    }
  }
  const phys::FinStrikeMc mc(fin_box, config);
  stats::Rng rng(seed);
  util::Grid1 grid = mc.build_lut(species, e_lo_mev, e_hi_mev, points, rng);
  FINSER_OBS_COUNT("pipeline.device_lut_builds", 1);
  if (store != nullptr) store->put(key, encode_grid1(grid));
  return grid;
}

// --- runner -----------------------------------------------------------------

namespace {

std::uint64_t geometry_fingerprint(const sram::CellGeometry& g) {
  util::Fnv1a h;
  h.str("finser.campaign.geometry.v1");
  h.f64(g.fin_w_nm).f64(g.fin_h_nm).f64(g.gate_len_nm);
  return h.hash();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::string hex8(std::uint64_t v) { return hex16(v).substr(8); }

/// Deterministic seed of the campaign's device-LUT stages. Fixed (not a
/// scenario seed) so every scenario sharing a geometry shares the LUT.
constexpr std::uint64_t kDeviceLutSeed = 0xF16D4EULL;  // "Fig. 4"
constexpr std::size_t kDeviceLutPoints = 25;

/// Path-safe stage-id slug: runs of anything outside [A-Za-z0-9_.] collapse
/// to a single '-'. The numeric plan-index prefix added by the caller makes
/// ids unique even if two labels sanitize identically.
std::string sanitize_slug(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (safe) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != '-') {
      out.push_back('-');
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

}  // namespace

std::uint64_t campaign_fingerprint(const CampaignSpec& spec) {
  // threads is a pure execution knob — every stage is thread-count-
  // invariant — so it is zeroed before hashing: a re-run with a different
  // worker or thread budget must resume, not recompute. The store's location
  // changes no number either, so artifact_dir is cleared too: a sharded run,
  // which defaults the store to <output_dir>/artifacts, fingerprints like
  // the in-process run of the same document. output_dir stays hashed, so two
  // campaigns that share a store and differ only in where they write their
  // CSVs still run documents of their own.
  CampaignSpec norm = spec;
  norm.threads = 0;
  norm.artifact_dir.clear();
  util::Fnv1a h;
  h.str("finser.campaign.fingerprint.v1");
  h.str(campaign_to_json(norm).dump(0));
  return h.hash();
}

/// Persistent execution state shared by every stage of one runner: resolved
/// flow configs, the artifact store, the cell-model map and accumulated
/// results. Living on the runner (not on run()'s stack) is what lets a
/// worker process execute stages one at a time across separate run_stage()
/// calls while reusing models it already materialized.
struct CampaignRunner::Exec {
  std::vector<core::SerFlowConfig> flows;
  std::optional<ArtifactStore> store;
  std::optional<ArtifactBinCache> bin_cache;
  // Memoized cluster-surface entries ("cluster_surface" artifact kind):
  // re-runs and sibling scenarios with the same surface fingerprint skip the
  // tile simulations already priced.
  std::optional<ArtifactBinCache> cluster_cache;
  std::optional<ArtifactBinCache> model_cache;  // "cell_model" artifacts
  std::optional<ArtifactBinCache> table_cache;  // "pof_table" artifacts
  // Keys pre-inserted serially at plan time; stages then only assign to
  // their own slot, so concurrent stages never mutate the map's structure.
  std::map<std::uint64_t, sram::CellSoftErrorModel> models;
  std::vector<ScenarioResult> results;
  std::vector<std::function<void(std::size_t, const exec::ProgressSink&,
                                 const exec::CancelToken*)>>
      fns;
  std::vector<StageBody> bodies;  // aligned with fns

  /// Ensure models[fp] is populated: already-materialized → no-op; else
  /// core::load_or_characterize through the "cell_model" artifacts (counts
  /// "pipeline.characterizations" when it characterizes — this is also the
  /// sweep-stage fallback when the dependency ran in another process and
  /// the artifact got lost, bit-identical to the stage by purity). With a
  /// store, each finished voltage but the last also lands as a "pof_table"
  /// artifact, so an interrupted stage resumes per voltage.
  void materialize_model(std::uint64_t fp, const sram::CellDesign& design,
                         const sram::CharacterizerConfig& ccfg,
                         std::size_t threads,
                         const exec::ProgressSink& progress,
                         const exec::CancelToken* cancel) {
    sram::CellSoftErrorModel& slot = models.at(fp);
    if (!slot.tables.empty()) return;
    sram::CharacterizerConfig cfg = ccfg;
    if (cfg.threads == 0) cfg.threads = threads;
    bool characterized = false;
    slot = core::load_or_characterize(
        design, cfg, model_cache.has_value() ? &*model_cache : nullptr,
        table_cache.has_value() ? &*table_cache : nullptr, progress, cancel,
        &characterized);
    if (characterized) FINSER_OBS_COUNT("pipeline.characterizations", 1);
  }
};

CampaignRunner::CampaignRunner(CampaignSpec spec)
    : spec_(std::move(spec)), scale_(core::mc_scale_from_env()) {
  FINSER_REQUIRE(!spec_.scenarios.empty(),
                 "CampaignRunner: campaign has no scenarios");
}

std::uint64_t CampaignRunner::fingerprint() const {
  const std::uint64_t document = campaign_fingerprint(spec_);
  if (scale_ == 1.0) return document;
  util::Fnv1a h;
  h.str("finser.campaign.run.v1");
  h.u64(document).f64(scale_);
  return h.hash();
}

void CampaignRunner::ensure_exec() {
  if (exec_ != nullptr) return;
  exec_ = std::make_shared<Exec>();
  Exec* ex = exec_.get();  // stage lambdas share the runner's lifetime
  const std::size_t n = spec_.scenarios.size();

  // Resolved per-scenario flow configs: MC sizes scaled here (not in the
  // spec, which must round-trip through JSON unscaled), thread budget and
  // caches owned by the runner.
  ex->flows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ex->flows[i] = spec_.scenarios[i].flow;
    core::apply_mc_scale(ex->flows[i], scale_);
  }

  if (!spec_.artifact_dir.empty()) {
    ex->store.emplace(spec_.artifact_dir);
    ex->bin_cache.emplace(*ex->store);
    ex->cluster_cache.emplace(*ex->store, "cluster_surface");
    ex->model_cache.emplace(*ex->store, "cell_model");
    ex->table_cache.emplace(*ex->store, "pof_table");
  }
  ex->results.resize(n);

  const auto add_stage =
      [&](std::string label, std::vector<std::size_t> deps, StageBody body,
          std::function<void(std::size_t, const exec::ProgressSink&,
                             const exec::CancelToken*)>
              fn) {
        StageInfo info;
        info.id = std::to_string(plan_.size()) + "-" + sanitize_slug(label);
        info.label = std::move(label);
        info.deps = std::move(deps);
        plan_.push_back(std::move(info));
        ex->fns.push_back(std::move(fn));
        ex->bodies.push_back(body);
        return plan_.size() - 1;
      };

  // One characterization stage per unique model fingerprint.
  std::map<std::uint64_t, std::size_t> model_stage;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t fp =
        ex->flows[i].characterization.fingerprint(ex->flows[i].cell_design);
    if (ex->models.count(fp) != 0) continue;
    ex->models[fp];  // reserve the slot
    const sram::CellDesign design = ex->flows[i].cell_design;
    const sram::CharacterizerConfig ccfg = ex->flows[i].characterization;
    model_stage[fp] = add_stage(
        "characterize " + hex8(fp), {}, StageBody::kParallel,
        [ex, fp, design, ccfg](std::size_t threads,
                               const exec::ProgressSink& progress,
                               const exec::CancelToken* cancel) {
          ex->materialize_model(fp, design, ccfg, threads, progress, cancel);
        });
  }

  // One device e–h-pair LUT stage per unique (fin geometry, charged
  // species) — the paper's Fig. 4 device level, shared campaign-wide.
  if (!spec_.output_dir.empty() || ex->store.has_value()) {
    std::map<std::pair<std::uint64_t, int>, bool> lut_jobs;
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::string& name : spec_.scenarios[i].species) {
        if (name == "neutron") continue;  // no direct-ionization LUT
        const phys::Species species =
            name == "alpha" ? phys::Species::kAlpha : phys::Species::kProton;
        const std::uint64_t gfp =
            geometry_fingerprint(ex->flows[i].cell_geometry);
        if (!lut_jobs.emplace(std::make_pair(gfp, static_cast<int>(species)),
                              true)
                 .second) {
          continue;
        }
        const bool suffix_geometry = [&] {
          for (std::size_t j = 0; j < n; ++j) {
            if (geometry_fingerprint(ex->flows[j].cell_geometry) != gfp) {
              return true;
            }
          }
          return false;
        }();
        const sram::CellGeometry g = ex->flows[i].cell_geometry;
        const double e_lo = name == "alpha" ? ex->flows[i].alpha_e_lo_mev
                                            : ex->flows[i].proton_e_lo_mev;
        const double e_hi = name == "alpha" ? ex->flows[i].alpha_e_hi_mev
                                            : ex->flows[i].proton_e_hi_mev;
        add_stage(
            "device_lut " + name + " " + hex8(gfp), {}, StageBody::kSerial,
            [this, ex, name, species, g, e_lo, e_hi, suffix_geometry,
             gfp](std::size_t, const exec::ProgressSink&,
                  const exec::CancelToken*) {
              const geom::Aabb fin_box{
                  {0.0, 0.0, 0.0}, {g.fin_w_nm, g.gate_len_nm, g.fin_h_nm}};
              phys::FinStrikeMc::Config cfg;
              cfg.samples = std::max<std::size_t>(
                  1, static_cast<std::size_t>(
                         static_cast<double>(cfg.samples) * scale_));
              const util::Grid1 lut = cached_device_lut(
                  ex->store.has_value() ? &*ex->store : nullptr, fin_box, cfg,
                  species, e_lo, e_hi, kDeviceLutPoints, kDeviceLutSeed);
              if (spec_.output_dir.empty()) return;
              util::CsvTable table({"energy_mev", "mean_eh_pairs"});
              for (std::size_t p = 0; p < lut.x_axis().size(); ++p) {
                table.add_row({lut.x_axis()[p], lut.values()[p]});
              }
              const std::string stem =
                  suffix_geometry ? "eh_pairs_" + name + "_" + hex8(gfp)
                                  : "eh_pairs_" + name;
              table.write_csv_file(spec_.output_dir + "/" + stem + ".csv");
            });
      }
    }
  }

  // One sweep stage per scenario, dependent on its model stage.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t fp =
        ex->flows[i].characterization.fingerprint(ex->flows[i].cell_design);
    add_stage(
        "sweep " + spec_.scenarios[i].name, {model_stage.at(fp)},
        StageBody::kParallel,
        [this, ex, i, fp](std::size_t threads,
                          const exec::ProgressSink& progress,
                          const exec::CancelToken* cancel) {
          const ScenarioSpec& scenario = spec_.scenarios[i];
          // Sharded path: the characterize stage may have run in another
          // process — materialize the model here (store load, else
          // recompute). In-process runs find it already populated.
          ex->materialize_model(fp, ex->flows[i].cell_design,
                                ex->flows[i].characterization, threads,
                                progress, cancel);
          core::SerFlowConfig cfg = ex->flows[i];
          cfg.threads = threads;
          cfg.bin_cache =
              ex->bin_cache.has_value() ? &*ex->bin_cache : nullptr;
          cfg.cluster_cache =
              ex->cluster_cache.has_value() ? &*ex->cluster_cache : nullptr;
          core::SerFlow flow(cfg);
          flow.set_cell_model(ex->models.at(fp));

          ScenarioResult& out = ex->results[i];
          out.name = scenario.name;
          out.sweeps.clear();
          // The resolved scenario is the surface identity: the species
          // *position* matters because the flow's MC seed cursor advances
          // serially across the species sweeps below.
          ScenarioSpec resolved;
          resolved.name = scenario.name;
          resolved.species = scenario.species;
          resolved.flow = ex->flows[i];
          util::CsvTable fit_table = make_fit_table();
          for (std::size_t si = 0; si < scenario.species.size(); ++si) {
            const std::string& name = scenario.species[si];
            const env::Spectrum spectrum = spectrum_for_species(name);
            progress.message(scenario.name + ": sweeping " + spectrum.name());
            core::EnergySweepResult sweep =
                flow.sweep(spectrum, progress, cancel);
            // Every consumer-facing product below comes from the surface,
            // not the raw sweep — batch CSVs and `serve` answers are the
            // same bytes by construction (docs/serving.md).
            const surface::ResponseSurface surf =
                surface::ResponseSurface::from_sweep(
                    scenario.name, ex->flows[i].cell_design.temp_k,
                    response_surface_fingerprint(resolved, si), sweep);
            if (ex->store.has_value()) {
              ex->store->put(
                  ArtifactKey{surface::kResponseSurfaceKind, surf.fingerprint},
                  surf.encode());
            }
            if (!spec_.output_dir.empty()) {
              pof_csv(surf).write_csv_file(spec_.output_dir + "/" +
                                           scenario.name + "/pof_" + name +
                                           ".csv");
            }
            append_fit_rows(fit_table, name, surf);
            out.sweeps.push_back(std::move(sweep));
          }
          if (!spec_.output_dir.empty()) {
            fit_table.write_csv_file(spec_.output_dir + "/" + scenario.name +
                                     "/fit_summary.csv");
          }
        });
  }
}

const std::vector<StageInfo>& CampaignRunner::plan() {
  ensure_exec();
  return plan_;
}

void CampaignRunner::run_stage(std::size_t index, std::size_t threads,
                               const exec::ProgressSink& progress,
                               const exec::CancelToken* cancel) {
  ensure_exec();
  FINSER_REQUIRE(index < plan_.size(),
                 "CampaignRunner::run_stage: stage index " +
                     std::to_string(index) + " out of range (plan has " +
                     std::to_string(plan_.size()) + " stages)");
  // Same wrapping as StageGraph's in-process dispatch: one span + one
  // progress line per stage, then the stage body with a resolved budget.
  const StageInfo& info = plan_[index];
  obs::ScopedSpan span("pipeline.stage", info.label);
  if (progress) progress.message("stage: " + info.label);
  exec_->fns[index](exec::resolve_threads(threads), progress, cancel);
}

const std::vector<ScenarioResult>& CampaignRunner::results() {
  ensure_exec();
  return exec_->results;
}

std::vector<ScenarioResult> CampaignRunner::run(
    const exec::ProgressSink& progress, const exec::CancelToken* cancel) {
  ensure_exec();
  Exec* ex = exec_.get();
  StageGraph graph;
  for (std::size_t k = 0; k < plan_.size(); ++k) {
    graph.add(plan_[k].label, plan_[k].deps,
              [ex, k, &progress, cancel](std::size_t threads) {
                ex->fns[k](threads, progress, cancel);
              },
              ex->bodies[k]);
  }
  graph.run(spec_.threads, progress);
  return ex->results;
}

}  // namespace finser::pipeline
