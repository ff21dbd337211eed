#pragma once
/// \file campaign.hpp
/// \brief Declarative multi-scenario campaigns over the SER flow.
///
/// A campaign describes N scenarios (supply-voltage sets × data patterns ×
/// array sizes × geometry corners) in one JSON document and runs them as a
/// stage graph on the exec thread budget:
///
///   characterize(model A) ──┐
///   characterize(model B) ──┤           (one stage per *unique* cell-model
///   device_lut(alpha)     ──┤            fingerprint and per unique device
///   device_lut(proton)    ──┤            LUT — never per scenario)
///                           ▼
///   sweep(scenario 1) … sweep(scenario N)
///
/// Scenarios that share a cell-model fingerprint share the characterized
/// model object; with an artifact store configured (CampaignSpec::
/// artifact_dir) every expensive product — characterized models, device
/// e–h-pair LUTs, per-(species, energy-bin) array-MC results — is cached
/// content-addressed on disk, so a re-run or a sibling scenario pays only
/// for what is genuinely new. Caching never changes numbers: every blob
/// round-trips bit-exactly, and a hit is indistinguishable from recomputing.
///
/// `finser_cli run` is a single-scenario campaign: the CLI lowers its INI
/// through single_scenario_campaign() and runs it here, exactly as
/// `campaign` runs a JSON document. A single-scenario campaign is
/// byte-identical to driving core::SerFlow directly: same characterization
/// seeds, same per-bin seed cursor discipline, same CSV formats.
///
/// Campaign JSON schema (all scenario keys optional unless noted; unknown
/// keys are rejected with a nearest-key suggestion):
///
/// ```json
/// {
///   "campaign": "vdd-corners",
///   "seed": 20140601,                // default scenario seed
///   "threads": 0,                    // 0 = auto (FINSER_THREADS, else HW)
///   "lanes": 0,                      // SPICE lane width: 0 = auto, 1, 4, 8
///   "artifact_dir": "out/artifacts", // "" disables the artifact store
///   "output_dir": "out",             // "" disables CSV emission
///   "defaults": { "strikes": 60000 },// merged under every scenario
///   "scenarios": [
///     {
///       "name": "nominal",           // required, unique
///       "rows": 9, "cols": 9,
///       "pattern": "checkerboard",   // ones|zeros|checkerboard|random
///       "pattern_seed": 1,
///       "vdds": [0.7, 0.8, 0.9, 1.0, 1.1],
///       "sigma_vt": 0.05,            // [V]
///       "cnode_f": 1.7e-16,          // storage-node capacitance [F]
///       "pv_samples": 200,
///       "strikes": 60000,
///       "histories": 60000,          // neutron MC (defaults to strikes)
///       "seed": 20140601,
///       "species": ["alpha", "proton"],
///       "cell_w_nm": 380.0, "cell_h_nm": 160.0,
///       "fin_w_nm": 10.0, "fin_h_nm": 26.0,
///       "temp_k": 300.0                  // device temperature [K]
///     }
///   ]
/// }
/// ```
///
/// The schema covers the knobs the CLI exposes; SerFlowConfig fields outside
/// it keep their defaults. campaign_to_json() emits every scenario fully
/// resolved (defaults folded in), and parse(campaign_to_json(spec)) == spec
/// — the round-trip behind `finser_cli --print-config`. Capacitance is in
/// farads, not femtofarads, precisely for this round-trip: a fF↔F unit
/// conversion is two float multiplies that need not compose to identity.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "finser/ckpt/checkpoint.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/env/spectrum.hpp"
#include "finser/exec/progress.hpp"
#include "finser/phys/fin_mc.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/util/csv.hpp"
#include "finser/util/json.hpp"

namespace finser::surface {
class ResponseSurface;
}

namespace finser::pipeline {

/// One scenario: a fully resolved flow configuration plus the spectra to
/// sweep. `flow.threads` and the cache hooks (`bin_cache`, `cluster_cache`,
/// `model_cache`) are owned by the campaign runner (thread budget, artifact
/// store) and ignored here.
struct ScenarioSpec {
  std::string name;
  std::vector<std::string> species;  ///< "alpha" | "proton" | "neutron".
  core::SerFlowConfig flow;
};

/// A parsed campaign: shared resources plus the scenario list.
struct CampaignSpec {
  std::string name = "campaign";
  std::string artifact_dir;             ///< "" = no artifact store.
  std::string output_dir = "finser_out";  ///< "" = no CSV outputs.
  std::size_t threads = 0;              ///< Whole-campaign budget; 0 = auto.
  /// SPICE engine lane width for every scenario: 0 = leave the process-wide
  /// resolution (--lanes / FINSER_LANES / widest compiled unit) alone.
  std::size_t lanes = 0;
  std::vector<ScenarioSpec> scenarios;
};

/// Parse a campaign document. Throws util::InvalidArgument naming the key
/// path (e.g. "scenarios[2]") for unknown keys — with a "did you mean"
/// suggestion when a known key is within edit distance 2 — and for
/// type/value errors.
CampaignSpec parse_campaign(const util::JsonValue& doc);
CampaignSpec parse_campaign_text(const std::string& text);
CampaignSpec parse_campaign_file(const std::string& path);

/// Serialize fully resolved: every scenario carries every schema key, no
/// "defaults" block. parse_campaign(campaign_to_json(spec)) reproduces
/// \p spec exactly (for the schema-covered fields).
util::JsonValue campaign_to_json(const CampaignSpec& spec);

/// Wrap one flow configuration as a single-scenario campaign — the lowering
/// through which `finser_cli run` becomes a campaign.
CampaignSpec single_scenario_campaign(const core::SerFlowConfig& flow,
                                      std::vector<std::string> species,
                                      std::string output_dir,
                                      std::string name = "scenario");

/// Spectrum for a species name ("alpha" | "proton" | "neutron"); throws
/// util::InvalidArgument (with a nearest-name suggestion) otherwise.
env::Spectrum spectrum_for_species(const std::string& name);

/// Apply the execution-environment overrides to a scenario flow config:
/// FINSER_MC_SCALE, FINSER_CI_TARGET and FINSER_CLUSTER. Both the campaign
/// runner and the serve-mode refinement path resolve flows through this one
/// helper, which is what keeps their response-surface fingerprints — and
/// hence their cached answers — aligned. It is the one place a campaign
/// applies the MC scale: specs (and `--print-config` dumps) carry unscaled
/// sizes.
void resolve_flow_for_execution(core::SerFlowConfig& flow);

// --- CSV emitters (the campaign runner's, so `run` and `campaign` write the
// same formats). All of them read from a surface::ResponseSurface — the
// sweep overload of append_fit_rows wraps the sweep into a transient surface
// first, so every consumer-facing number flows through the same query layer
// that `finser_cli serve` answers from. --------------------------------------

/// POF(E, Vdd) table: columns energy_mev, vdd_v, pof_tot, pof_seu, pof_mbu,
/// pof_tot_se (with-PV estimates).
util::CsvTable pof_csv(const surface::ResponseSurface& surface);

/// Empty FIT summary table: columns species, vdd_v, fit_tot, fit_seu,
/// fit_mbu, fit_tot_no_pv.
util::CsvTable make_fit_table();

/// Append one sweep's per-voltage FIT rows to a make_fit_table() table.
void append_fit_rows(util::CsvTable& table, const std::string& species,
                     const surface::ResponseSurface& surface);
void append_fit_rows(util::CsvTable& table, const std::string& species,
                     const core::EnergySweepResult& sweep);

// --- stage graph ------------------------------------------------------------

/// Whether a stage body can use more than one thread. A property of the
/// stage kind (a device-LUT build is single-threaded; characterization and
/// sweeps fan out), never a user option.
enum class StageBody { kParallel, kSerial };

/// A small deterministic DAG scheduler: stages run in dependency waves on
/// the exec thread budget. The budget goes only to stages that can use it:
///  * a lone stage in its wave receives the whole budget;
///  * otherwise the wave's kParallel stages split the whole budget between
///    them (remainder threads to the earliest-added), while each kSerial
///    stage runs on a thread of its own beside them and receives 1;
///  * at a budget of 1 the stages of a wave run one at a time on the
///    calling thread — a one-thread budget means one thread.
/// Flows and characterizers are thread-count-invariant, so the split never
/// changes results — only wall-clock. Exceptions thrown by a stage
/// propagate out of run().
class StageGraph {
 public:
  /// Add a stage. \p deps are indices of previously added stages (so the
  /// graph is acyclic by construction); \p fn receives its thread share.
  /// Returns the stage's index.
  std::size_t add(std::string label, std::vector<std::size_t> deps,
                  std::function<void(std::size_t threads)> fn,
                  StageBody body = StageBody::kParallel);

  std::size_t size() const { return stages_.size(); }

  /// Run all stages. \p thread_budget 0 = auto.
  void run(std::size_t thread_budget,
           const exec::ProgressSink& progress = {}) const;

 private:
  struct Stage {
    std::string label;
    std::vector<std::size_t> deps;
    std::function<void(std::size_t)> fn;
    StageBody body;
  };
  std::vector<Stage> stages_;
};

// --- artifact adapters ------------------------------------------------------

/// ArtifactStore → core::BinCache adapter: per-(species, energy-bin)
/// array-MC results cached under one artifact kind. Never throws — a failed
/// load is a miss, a failed store is a lost entry.
class ArtifactBinCache final : public core::BinCache {
 public:
  explicit ArtifactBinCache(const ArtifactStore& store,
                            std::string kind = "array_bin")
      : store_(store), kind_(std::move(kind)) {}

  bool load(std::uint64_t fingerprint,
            std::vector<std::uint8_t>& out) override;
  void store(std::uint64_t fingerprint,
             const std::vector<std::uint8_t>& blob) override;

 private:
  const ArtifactStore& store_;
  std::string kind_;
};

/// Device-level e–h-pair LUT (paper Fig. 4) with artifact caching: returns
/// FinStrikeMc::build_lut's grid, loading it from \p store (kind
/// "device_lut") when a bit-exact cached copy exists and building +
/// storing it otherwise. \p store may be null (always build). Each real
/// build counts "pipeline.device_lut_builds".
util::Grid1 cached_device_lut(const ArtifactStore* store,
                              const geom::Aabb& fin_box,
                              const phys::FinStrikeMc::Config& config,
                              phys::Species species, double e_lo_mev,
                              double e_hi_mev, std::size_t points,
                              std::uint64_t seed);

// --- runner -----------------------------------------------------------------

/// Results of one scenario, sweeps aligned with ScenarioSpec::species.
struct ScenarioResult {
  std::string name;
  std::vector<core::EnergySweepResult> sweeps;
};

/// One node of a campaign's exported stage plan (see CampaignRunner::plan).
/// `id` is a stable, path-safe slug — "<index>-<kind>-<qualifier>", e.g.
/// "0-characterize-1a2b3c4d" or "3-sweep-nominal" — identical in every
/// process that parses the same campaign, which is what lets a shard
/// supervisor assign stages to worker processes by id alone and lets lease
/// and done-marker filenames embed it directly.
struct StageInfo {
  std::string id;
  std::string label;                ///< Human-readable (StageGraph label).
  std::vector<std::size_t> deps;    ///< Indices into the plan vector.
};

/// FNV-1a fingerprint of a campaign's *result-relevant* content: the fully
/// resolved campaign_to_json document with the execution knobs (threads,
/// lanes) zeroed, since they never change numbers. Two processes agree on
/// this iff they would compute identical results — shard leases and done
/// markers embed it so records from a different campaign (or an edited
/// spec) are rejected as stale, never trusted.
std::uint64_t campaign_fingerprint(const CampaignSpec& spec);

/// Executes a campaign as a stage graph. Characterization runs once per
/// unique cell-model fingerprint ("pipeline.characterizations" counts real
/// characterizations, not artifact hits or model shares); device LUTs once
/// per unique (geometry, species); scenario sweeps run as dependent stages.
/// Deterministic at any thread budget.
///
/// Two execution surfaces share one stage table:
///  * run() — the in-process path: every stage on one StageGraph.
///  * plan() + run_stage() — the sharded path: a supervisor process walks
///    plan() and assigns stage ids to `finser_cli worker` subprocesses,
///    which call run_stage(). Stage products flow through the artifact
///    store, so a worker that runs a sweep without having run its
///    characterize dependency in-process reloads (or, failing that,
///    recomputes) the cell model — bit-identical either way, because every
///    stage is a pure function of its fingerprint.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignSpec spec);

  const CampaignSpec& spec() const { return spec_; }

  /// The deterministic stage plan: same spec ⇒ same plan, in every process,
  /// at any thread count. Stage ids are unique (index-prefixed) and
  /// path-safe. Valid until the runner is destroyed.
  const std::vector<StageInfo>& plan();

  /// Run one stage by plan index. Dependencies need NOT have run in this
  /// process — missing inputs are reloaded from the artifact store or
  /// recomputed (see class comment). \p threads 0 = auto. Honors
  /// \p run.cancel (throws util::Cancelled); numerical failures propagate
  /// as the flow's usual exceptions.
  void run_stage(std::size_t index, std::size_t threads,
                 const exec::ProgressSink& progress = {},
                 const ckpt::RunOptions& run = {});

  /// Scenario results accumulated by run() / run_stage() sweep stages, in
  /// scenario order; entries of scenarios whose sweep has not run in this
  /// process have empty `sweeps`.
  const std::vector<ScenarioResult>& results();

  /// Run every scenario; returns results in scenario order. With
  /// output_dir set, writes per-scenario CSVs to
  /// `<output_dir>/<scenario>/pof_<species>.csv` and
  /// `<output_dir>/<scenario>/fit_summary.csv` plus per-campaign device
  /// LUT curves `<output_dir>/eh_pairs_<species>.csv`. Honors
  /// \p run.cancel at chunk granularity (throws util::Cancelled).
  /// Resumability comes from the artifact store: a re-run after a kill
  /// reloads every finished product, energy bins included, from artifacts,
  /// and an interrupted characterization resumes per voltage from its
  /// checkpoint in the store.
  std::vector<ScenarioResult> run(const exec::ProgressSink& progress = {},
                                  const ckpt::RunOptions& run = {});

 private:
  struct Exec;  // persistent stage state (flows, store, models, results)
  void ensure_exec();

  CampaignSpec spec_;
  std::shared_ptr<Exec> exec_;
  std::vector<StageInfo> plan_;
};

}  // namespace finser::pipeline
