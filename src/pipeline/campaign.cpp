#include "finser/pipeline/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <map>
#include <type_traits>
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

[[noreturn]] void bad(const std::string& message) {
  throw util::InvalidArgument("campaign: " + message);
}

/// "unknown <what> `name` at <where>", suggesting the nearest of \p known
/// (util::nearest_key), so a typo fails with "did you mean ...?" instead of
/// being ignored.
[[noreturn]] void unknown(const std::string& what, const std::string& name,
                          const std::string& where,
                          const std::vector<std::string>& known) {
  std::string message = "unknown " + what + " `" + name + "` at " + where;
  const std::string suggestion = util::nearest_key(name, known);
  if (!suggestion.empty()) message += " (did you mean `" + suggestion + "`?)";
  bad(message);
}

/// Reject keys outside \p allowed.
void check_keys(const util::JsonValue& obj, const std::string& where,
                const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.items()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      unknown("key", key, where, allowed);
    }
  }
}

/// The names of an enumerated value: the one list that parsing, printing
/// and the did-you-mean error read.
template <class E>
struct Name {
  const char* name;
  E value;
};

template <class E, std::size_t N>
struct Names {
  const char* what;  ///< The kind, as errors name it: "unknown <what> `x`".
  Name<E> entries[N];

  E from(const std::string& name, const std::string& where) const {
    std::vector<std::string> known;
    for (const Name<E>& entry : entries) {
      if (name == entry.name) return entry.value;
      known.emplace_back(entry.name);
    }
    unknown(what, name, where, known);
  }

  const char* of(E value) const {
    for (const Name<E>& entry : entries) {
      if (entry.value == value) return entry.name;
    }
    return entries[0].name;
  }
};

constexpr Names<sram::DataPattern, 4> kPatterns = {
    "pattern",
    {{"ones", sram::DataPattern::kAllOnes},
     {"zeros", sram::DataPattern::kAllZeros},
     {"checkerboard", sram::DataPattern::kCheckerboard},
     {"random", sram::DataPattern::kRandom}}};
constexpr Names<core::SourcePositionSampling, 2> kPositions = {
    "position sampling",
    {{"uniform", core::SourcePositionSampling::kUniform},
     {"importance", core::SourcePositionSampling::kImportance}}};
constexpr Names<stats::QmcMode, 2> kQmcModes = {
    "qmc mode",
    {{"none", stats::QmcMode::kNone}, {"sobol", stats::QmcMode::kSobol}}};
constexpr Names<sram::ClusterMode, 3> kClusterModes = {
    "cluster mode",
    {{"1x1", sram::ClusterMode::k1x1},
     {"2x2", sram::ClusterMode::k2x2},
     {"1x4", sram::ClusterMode::k1x4}}};
/// Each species with the spectrum a sweep of it integrates over.
constexpr Names<env::Spectrum (*)(), 3> kSpecies = {
    "species",
    {{"alpha", [] { return env::package_alphas(); }},
     {"proton", env::sea_level_protons},
     {"neutron", env::sea_level_neutrons}}};

// --- values -----------------------------------------------------------------

/// Where a value sits: its key and the object holding it — a scenario, the
/// `defaults` block it is inherited from, or a block inside either
/// ("scenarios[2]", "defaults", "scenarios[0].sampling", ...).
struct At {
  std::string key;
  std::string where;
};

[[noreturn]] void bad_value(const At& at, const std::string& rule) {
  bad("value for `" + at.key + "` at " + at.where + " " + rule);
}

[[noreturn]] void bad_key(const At& at, const std::string& rule) {
  bad("`" + at.key + "` at " + at.where + " " + rule);
}

double read_num(const util::JsonValue& v, const At& at) {
  if (!v.is_number()) bad_value(at, "must be a number");
  return v.as_double();
}

std::uint64_t read_uint(const util::JsonValue& v, const At& at) {
  if (v.is_number()) {
    try {
      return v.as_uint();
    } catch (const util::Error&) {
      // Negative, fractional or at least 2^64: rejected below.
    }
  }
  bad_value(at, "must be an integer in [0, 2^64)");
}

std::size_t read_size(const util::JsonValue& v, const At& at) {
  const std::uint64_t raw = read_uint(v, at);
  if (raw == 0) bad_value(at, "must be positive");
  return static_cast<std::size_t>(raw);
}

std::string read_str(const util::JsonValue& v, const At& at) {
  if (!v.is_string()) bad_value(at, "must be a string");
  return v.as_string();
}

/// A non-empty array of numbers (T = double) or of strings.
template <class T>
std::vector<T> read_list(const util::JsonValue& v, const At& at) {
  constexpr bool kNumbers = std::is_same_v<T, double>;
  const auto reject = [&at] {
    bad_value(at, kNumbers ? "must be a non-empty array of numbers"
                           : "must be a non-empty array of strings");
  };
  if (!v.is_array() || v.size() == 0) reject();
  std::vector<T> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const util::JsonValue& e = v.at(i);
    if constexpr (kNumbers) {
      if (!e.is_number()) reject();
      out.push_back(e.as_double());
    } else {
      if (!e.is_string()) reject();
      out.push_back(e.as_string());
    }
  }
  return out;
}

template <std::unsigned_integral T>
util::JsonValue to_json(T v) {
  return static_cast<std::uint64_t>(v);
}
util::JsonValue to_json(double v) { return v; }
util::JsonValue to_json(const std::string& v) { return v; }
template <class T>
util::JsonValue to_json(const std::vector<T>& list) {
  util::JsonValue out = util::JsonValue::array();
  for (const T& v : list) out.push_back(to_json(v));
  return out;
}

/// A number as the campaign document would print it; non-finite values
/// (which JSON cannot spell, so only a flow built in code and passed to
/// single_scenario_campaign() can carry them) as nan / inf / -inf.
std::string number_text(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  return util::JsonValue(v).dump();
}

// --- range rules ------------------------------------------------------------
// Checked where a value is read, so a bad one exits before any stage runs,
// and by single_scenario_campaign() on flows built in code.

/// Supply voltages are characterization axis points: each must be a
/// positive finite voltage, and none may repeat (the response surface needs
/// a strictly increasing axis). Order is free — the model sorts them.
void check_vdds(const std::vector<double>& vdds, const At& at) {
  if (vdds.empty()) bad_key(at, "must not be empty");
  for (const double v : vdds) {
    if (!(std::isfinite(v) && v > 0.0)) {
      bad_key(at, "must hold positive voltages, got " + number_text(v));
    }
  }
  std::vector<double> sorted = vdds;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    bad_key(at, "lists the supply voltage " + number_text(*dup) + " twice");
  }
}

void check_species(const std::vector<std::string>& species, const At& at) {
  for (const std::string& name : species) kSpecies.from(name, at.where);
}

/// σVt and the CI target (0 = no variation, no adaptive stopping).
void finite_nonnegative(double v, const At& at) {
  if (std::isfinite(v) && v >= 0.0) return;
  bad_key(at, "must be finite and >= 0, got " + number_text(v));
}

void finite_positive(double v, const At& at) {
  if (std::isfinite(v) && v > 0.0) return;
  bad_key(at, "must be finite and > 0, got " + number_text(v));
}

void positive(double v, const At& at) {
  if (v <= 0.0) bad_key(at, "must be positive");
}

void positive_geometry(double v, const At& at) {
  if (v <= 0.0) bad("geometry at " + at.where + " must be positive");
}

void at_least_one(double v, const At& at) {
  if (v < 1.0) bad_key(at, "must be >= 1");
}

void unit_fraction(double v, const At& at) {
  if (v < 0.0 || v >= 1.0) bad_key(at, "must be in [0, 1)");
}

// --- schema tables ----------------------------------------------------------

/// One key of the scenario object or of one of its blocks: how its value is
/// read into a ScenarioSpec, checked, and printed. Each table below is the
/// one place its keys are named: the unknown-key checks, the `defaults` key
/// list, parse_scenario(), single_scenario_campaign() and campaign_to_json()
/// all walk it, in the order --print-config prints.
struct Field {
  std::string key;
  /// Reads the value found for `key`; null = absent: keep the fallback.
  std::function<void(const util::JsonValue*, ScenarioSpec&, const At&)> read;
  std::function<util::JsonValue(const ScenarioSpec&)> write;
  /// The range rule, which flows built in code must meet too; may be empty.
  std::function<void(const ScenarioSpec&, const At&)> check;
  /// Set on the scenario itself, never inherited from `defaults`.
  bool own = false;
  /// A block (`sampling`, `cluster`): its rows stand in for read, write and
  /// check. The block folds through `defaults` as one value, and the keys
  /// it omits keep their struct defaults.
  const std::vector<Field>* block = nullptr;
};
using Table = std::vector<Field>;

/// A row that reads and writes through \p read and \p write.
template <class Read, class Write>
Field custom(std::string key, Read read, Write write, bool own = false) {
  Field f;
  f.key = std::move(key);
  f.read = std::move(read);
  f.write = std::move(write);
  f.own = own;
  return f;
}

/// The row of a key whose value \p read converts, \p check (if given)
/// bounds and to_json() prints; \p get maps a (const) ScenarioSpec to the
/// field.
template <class Get, class Read, class Check = std::nullptr_t>
Field row(std::string key, Get get, Read read, Check check = nullptr) {
  Field f = custom(
      std::move(key),
      [get, read](const util::JsonValue* v, ScenarioSpec& s, const At& at) {
        if (v != nullptr) get(s) = read(*v, at);
      },
      [get](const ScenarioSpec& s) { return to_json(get(s)); });
  if constexpr (!std::is_null_pointer_v<Check>) {
    f.check = [get, check](const ScenarioSpec& s, const At& at) {
      check(get(s), at);
    };
  }
  return f;
}

/// The row of an enumerated key, spelled by \p names.
template <class E, std::size_t N, class Get>
Field named(std::string key, const Names<E, N>& names, Get get) {
  return custom(
      std::move(key),
      [&names, get](const util::JsonValue* v, ScenarioSpec& s, const At& at) {
        if (v != nullptr) get(s) = names.from(read_str(*v, at), at.where);
      },
      [&names, get](const ScenarioSpec& s) {
        return util::JsonValue(names.of(get(s)));
      });
}

/// The row of a block key.
Field block(std::string key, const std::vector<Field>& rows) {
  Field f;
  f.key = std::move(key);
  f.block = &rows;
  return f;
}

std::vector<std::string> keys_of(const Table& rows,
                                 bool inherited_only = false) {
  std::vector<std::string> keys;
  for (const Field& f : rows) {
    if (!(inherited_only && f.own)) keys.push_back(f.key);
  }
  return keys;
}

/// Read \p obj into \p s row by row. A key \p obj lacks comes from
/// \p defaults when that holds it — errors then name `defaults` — and keeps
/// its fallback otherwise. \p inherited_only skips the scenario's own rows:
/// the `defaults` block is read that way.
void read_rows(const util::JsonValue& obj, const util::JsonValue* defaults,
               const Table& rows, ScenarioSpec& s, const std::string& where,
               bool inherited_only = false) {
  check_keys(obj, where, keys_of(rows, inherited_only));
  for (const Field& f : rows) {
    if (inherited_only && f.own) continue;
    At at{f.key, where};
    const util::JsonValue* v = obj.contains(f.key) ? &obj.at(f.key) : nullptr;
    if (v == nullptr && !f.own && defaults != nullptr &&
        defaults->contains(f.key)) {
      v = &defaults->at(f.key);
      at.where = "defaults";
    }
    if (f.block == nullptr) {
      f.read(v, s, at);
      if (f.check) f.check(s, at);
    } else if (v != nullptr) {
      if (!v->is_object()) bad_key(at, "must be an object");
      read_rows(*v, nullptr, *f.block, s, at.where + "." + f.key);
    }
  }
}

util::JsonValue write_rows(const Table& rows, const ScenarioSpec& s) {
  util::JsonValue obj = util::JsonValue::object();
  for (const Field& f : rows) {
    obj[f.key] = f.block == nullptr ? f.write(s) : write_rows(*f.block, s);
  }
  return obj;
}

void check_rows(const Table& rows, const ScenarioSpec& s,
                const std::string& where) {
  for (const Field& f : rows) {
    if (f.block != nullptr) {
      check_rows(*f.block, s, where + "." + f.key);
    } else if (f.check) {
      f.check(s, At{f.key, where});
    }
  }
}

/// Variance reduction and adaptive stopping (docs/statistics.md).
const Table& sampling_rows() {
  static const Table rows = {
      named("position", kPositions,
            [](auto& s) -> auto& { return s.flow.array_mc.position; }),
      named("qmc", kQmcModes,
            [](auto& s) -> auto& { return s.flow.array_mc.sampling.qmc; }),
      row("ci_target",
          [](auto& s) -> auto& { return s.flow.array_mc.ci.target; },
          read_num, finite_nonnegative),
      row("ci_min_chunks",
          [](auto& s) -> auto& { return s.flow.array_mc.ci.min_chunks; },
          read_size),
      row("ci_growth",
          [](auto& s) -> auto& { return s.flow.array_mc.ci.growth; },
          read_num, at_least_one),
  };
  return rows;
}

/// Correlated multi-node charge collection (docs/charge_sharing.md); mode
/// 1x1 is the independent per-cell path, byte for byte.
const Table& cluster_rows() {
  static const Table rows = {
      named("mode", kClusterModes,
            [](auto& s) -> auto& { return s.flow.array_mc.cluster.mode; }),
      row("share_fraction",
          [](auto& s) -> auto& {
            return s.flow.array_mc.cluster.share_fraction;
          },
          read_num, unit_fraction),
      row("pv_samples",
          [](auto& s) -> auto& { return s.flow.array_mc.cluster.pv_samples; },
          read_size),
      row("quantum_fc",
          [](auto& s) -> auto& { return s.flow.array_mc.cluster.quantum_fc; },
          read_num, positive),
  };
  return rows;
}

const Table& scenario_rows() {
  static const Table rows = {
      custom(
          "name",
          [](const util::JsonValue* v, ScenarioSpec& s, const At& at) {
            // Required here: a shared default name would be a duplicate.
            if (v == nullptr) {
              bad(at.where + " is missing required key `" + at.key + "`");
            }
            s.name = read_str(*v, at);
            if (s.name.empty()) bad_key(at, "must be non-empty");
          },
          [](const ScenarioSpec& s) { return to_json(s.name); },
          /*own=*/true),
      row("rows", [](auto& s) -> auto& { return s.flow.array_rows; },
          read_size),
      row("cols", [](auto& s) -> auto& { return s.flow.array_cols; },
          read_size),
      named("pattern", kPatterns,
            [](auto& s) -> auto& { return s.flow.pattern; }),
      row("pattern_seed", [](auto& s) -> auto& { return s.flow.pattern_seed; },
          read_uint),
      row("vdds",
          [](auto& s) -> auto& { return s.flow.characterization.vdds; },
          read_list<double>, check_vdds),
      row("sigma_vt",
          [](auto& s) -> auto& { return s.flow.cell_design.sigma_vt; },
          read_num, finite_nonnegative),
      row("cnode_f",
          [](auto& s) -> auto& { return s.flow.cell_design.cnode_f; },
          read_num, finite_positive),
      row("pv_samples",
          [](auto& s) -> auto& {
            return s.flow.characterization.pv_samples_single;
          },
          read_size),
      row("strikes", [](auto& s) -> auto& { return s.flow.array_mc.strikes; },
          read_size),
      custom(
          "histories",
          [](const util::JsonValue* v, ScenarioSpec& s, const At& at) {
            // Neutron histories follow strikes unless set.
            s.flow.neutron_mc.histories =
                v != nullptr ? read_size(*v, at) : s.flow.array_mc.strikes;
          },
          [](const ScenarioSpec& s) {
            return to_json(s.flow.neutron_mc.histories);
          }),
      row("seed", [](auto& s) -> auto& { return s.flow.seed; }, read_uint),
      row("species", [](auto& s) -> auto& { return s.species; },
          read_list<std::string>, check_species),
      row("cell_w_nm",
          [](auto& s) -> auto& { return s.flow.cell_geometry.cell_w_nm; },
          read_num, positive_geometry),
      row("cell_h_nm",
          [](auto& s) -> auto& { return s.flow.cell_geometry.cell_h_nm; },
          read_num, positive_geometry),
      row("fin_w_nm",
          [](auto& s) -> auto& { return s.flow.cell_geometry.fin_w_nm; },
          read_num, positive_geometry),
      row("fin_h_nm",
          [](auto& s) -> auto& { return s.flow.cell_geometry.fin_h_nm; },
          read_num, positive_geometry),
      // The temperature axis of the response surface: flows into every
      // device model via Mosfet::set_temperature.
      row("temp_k", [](auto& s) -> auto& { return s.flow.cell_design.temp_k; },
          read_num, positive),
      block("sampling", sampling_rows()),
      block("cluster", cluster_rows()),
  };
  return rows;
}

ScenarioSpec parse_scenario(const util::JsonValue& obj,
                            const util::JsonValue* defaults,
                            std::uint64_t campaign_seed,
                            const std::string& where) {
  if (!obj.is_object()) bad(where + " must be an object");
  // A key neither the scenario nor `defaults` sets keeps its fallback: the
  // SerFlowConfig struct default, except for these two.
  ScenarioSpec s;
  s.flow.seed = campaign_seed;
  s.species = {"alpha", "proton"};
  read_rows(obj, defaults, scenario_rows(), s, where);
  // The stopping rule is engine-agnostic: one `sampling` block drives both
  // Monte Carlos.
  s.flow.neutron_mc.ci = s.flow.array_mc.ci;
  return s;
}

}  // namespace

CampaignSpec parse_campaign(const util::JsonValue& doc) {
  if (!doc.is_object()) bad("document must be a JSON object");
  check_keys(doc, "top level", top_level_keys());

  CampaignSpec spec;
  const auto top = [&doc](const char* k) {
    return doc.contains(k) ? &doc.at(k) : nullptr;
  };
  // read_top(<key>, <reader>, <field>): the field keeps its default unless
  // the document sets the key.
  const auto read_top = [&top](const char* k, auto read, auto& field) {
    if (const util::JsonValue* v = top(k)) field = read(*v, At{k, "top level"});
  };
  read_top("campaign", read_str, spec.name);
  read_top("artifact_dir", read_str, spec.artifact_dir);
  read_top("output_dir", read_str, spec.output_dir);
  read_top("threads", read_uint, spec.threads);
  std::uint64_t campaign_seed = 20140601;
  read_top("seed", read_uint, campaign_seed);

  const util::JsonValue* defaults = top("defaults");
  if (defaults != nullptr) {
    if (!defaults->is_object()) bad("`defaults` must be an object");
    // Read on its own as well, so a value every scenario overrides is
    // checked too.
    ScenarioSpec unused;
    read_rows(*defaults, nullptr, scenario_rows(), unused, "defaults",
              /*inherited_only=*/true);
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
    scenarios.push_back(write_rows(scenario_rows(), s));
  }
  doc["scenarios"] = std::move(scenarios);
  return doc;
}

CampaignSpec single_scenario_campaign(const core::SerFlowConfig& flow,
                                      std::vector<std::string> species,
                                      std::string output_dir,
                                      std::string name) {
  ScenarioSpec scenario;
  scenario.name = name;
  scenario.species = std::move(species);
  scenario.flow = flow;
  check_rows(scenario_rows(), scenario, "scenarios[0]");
  CampaignSpec spec;
  spec.name = std::move(name);
  spec.output_dir = std::move(output_dir);
  spec.threads = flow.threads;
  spec.scenarios.push_back(std::move(scenario));
  return spec;
}

env::Spectrum spectrum_for_species(const std::string& name) {
  return kSpecies.from(name, "species list")();
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
          out.surfaces.clear();
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
            surface::ResponseSurface surf =
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
            out.surfaces.push_back(std::move(surf));
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
