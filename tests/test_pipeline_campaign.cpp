/// \file test_pipeline_campaign.cpp
/// \brief Declarative campaigns: schema parsing with typo suggestions,
/// JSON round-trip, stage-graph scheduling, single-scenario byte-identity
/// with the legacy SerFlow path, and characterize-once artifact sharing.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/spice/batch.hpp"
#include "finser/util/error.hpp"
#include "finser/util/io.hpp"

namespace finser::pipeline {
namespace {

/// Minimal-cost flow configuration (mirrors test_core_ser_flow.cpp).
core::SerFlowConfig tiny_flow() {
  core::SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pair_grid_points = 6;
  cfg.characterization.triple_grid_points = 6;
  cfg.characterization.pv_samples_grid = 6;
  cfg.array_mc.strikes = 600;
  cfg.neutron_mc.histories = 600;
  cfg.proton_bins = 3;
  cfg.alpha_bins = 3;
  cfg.seed = 5;
  return cfg;
}

std::string temp_dir(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- parsing ----------------------------------------------------------------

TEST(CampaignParse, MinimalDocument) {
  const CampaignSpec spec = parse_campaign_text(
      R"({"scenarios": [{"name": "a"}]})");
  ASSERT_EQ(spec.scenarios.size(), 1u);
  EXPECT_EQ(spec.scenarios[0].name, "a");
  // Schema fallbacks are the SerFlowConfig struct defaults.
  const core::SerFlowConfig reference;
  EXPECT_EQ(spec.scenarios[0].flow.array_rows, reference.array_rows);
  EXPECT_EQ(spec.scenarios[0].flow.array_mc.strikes,
            reference.array_mc.strikes);
  EXPECT_EQ(spec.scenarios[0].species,
            (std::vector<std::string>{"alpha", "proton"}));
}

TEST(CampaignParse, UnknownScenarioKeySuggestsNearest) {
  try {
    parse_campaign_text(
        R"({"scenarios": [{"name": "a", "strikse": 100}]})");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key `strikse`"), std::string::npos) << what;
    EXPECT_NE(what.find("scenarios[0]"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean `strikes`"), std::string::npos) << what;
  }
}

TEST(CampaignParse, UnknownTopLevelKeySuggestsNearest) {
  try {
    parse_campaign_text(
        R"({"outptu_dir": "x", "scenarios": [{"name": "a"}]})");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean `output_dir`"), std::string::npos)
        << what;
  }
}

TEST(CampaignParse, FarFetchedKeyGetsNoSuggestion) {
  try {
    parse_campaign_text(
        R"({"scenarios": [{"name": "a", "zzzzzz": 1}]})");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key `zzzzzz`"), std::string::npos) << what;
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
  }
}

TEST(CampaignParse, UnknownPatternAndSpeciesSuggestNearest) {
  try {
    parse_campaign_text(
        R"({"scenarios": [{"name": "a", "pattern": "checkerbord"}]})");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean `checkerboard`"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_campaign_text(
        R"({"scenarios": [{"name": "a", "species": ["protn"]}]})");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean `proton`"),
              std::string::npos)
        << e.what();
  }
  // The block enums too; a name far from every known one gets no
  // suggestion.
  const std::pair<const char*, const char*> blocks[] = {
      {R"("sampling": {"position": "importanse"})", "`importance`"},
      {R"("sampling": {"qmc": "sobl"})", "`sobol`"},
      {R"("cluster": {"mode": "2x3"})", "`2x2`"},
      {R"("cluster": {"mode": "3x3x3"})", ""},
  };
  for (const auto& [entry, suggestion] : blocks) {
    try {
      parse_campaign_text(std::string(R"({"scenarios": [{"name": "a", )") +
                          entry + "}]}");
      ADD_FAILURE() << "accepted " << entry;
    } catch (const util::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown "), std::string::npos) << what;
      if (*suggestion == '\0') {
        EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
      } else {
        EXPECT_NE(what.find(std::string("did you mean ") + suggestion),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(CampaignParse, DefaultsMergeUnderScenarios) {
  const CampaignSpec spec = parse_campaign_text(R"({
    "defaults": {"strikes": 1234, "rows": 3},
    "scenarios": [
      {"name": "inherits"},
      {"name": "overrides", "strikes": 99}
    ]
  })");
  EXPECT_EQ(spec.scenarios[0].flow.array_mc.strikes, 1234u);
  EXPECT_EQ(spec.scenarios[0].flow.array_rows, 3u);
  EXPECT_EQ(spec.scenarios[1].flow.array_mc.strikes, 99u);
  EXPECT_EQ(spec.scenarios[1].flow.array_rows, 3u);
}

/// A bad value inherited from `defaults` is reported where it is written,
/// not at the first scenario that inherits it. `defaults` is read on its
/// own too, so a bad value or block key fails even where every scenario
/// overrides it.
TEST(CampaignParse, DefaultsErrorsNameTheDefaultsBlock) {
  const auto error_of = [](const std::string& doc) -> std::string {
    try {
      parse_campaign_text(doc);
    } catch (const util::InvalidArgument& e) {
      return e.what();
    }
    ADD_FAILURE() << "accepted " << doc;
    return "";
  };
  std::string what = error_of(
      R"({"defaults": {"rows": "nine"}, "scenarios": [{"name": "a"}]})");
  EXPECT_NE(what.find("value for `rows` at defaults must be an integer"),
            std::string::npos)
      << what;
  what = error_of(R"({"defaults": {"sampling": {"ci_targt": 0.1}},
                      "scenarios": [{"name": "a"}]})");
  EXPECT_NE(what.find("unknown key `ci_targt` at defaults.sampling (did you "
                      "mean `ci_target`?)"),
            std::string::npos)
      << what;
  what = error_of(R"({"defaults": {"rows": "nine"},
                      "scenarios": [{"name": "a", "rows": 2}]})");
  EXPECT_NE(what.find("value for `rows` at defaults must be an integer"),
            std::string::npos)
      << what;
  what = error_of(R"({"defaults": {"sampling": {"ci_targt": 0.1}},
                      "scenarios": [{"name": "a", "sampling": {}}]})");
  EXPECT_NE(what.find("unknown key `ci_targt` at defaults.sampling"),
            std::string::npos)
      << what;
  // A scenario's own bad value still names the scenario.
  what = error_of(R"({"defaults": {"rows": 2},
                      "scenarios": [{"name": "a", "cols": "nine"}]})");
  EXPECT_NE(what.find("`cols` at scenarios[0]"), std::string::npos) << what;
}

TEST(CampaignParse, RejectsDuplicateNamesAndBadValues) {
  EXPECT_THROW(parse_campaign_text(
                   R"({"scenarios": [{"name": "a"}, {"name": "a"}]})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(R"({"scenarios": []})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(R"({"scenarios": [{"name": ""}]})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(
                   R"({"scenarios": [{"name": "a", "rows": 0}]})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(
                   R"({"scenarios": [{"name": "a", "rows": "many"}]})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(
                   R"({"scenarios": [{"name": "a", "vdds": []}]})"),
               util::InvalidArgument);
  EXPECT_THROW(parse_campaign_text(R"({"scenarios": [{}]})"),
               util::InvalidArgument);
}

// Supply voltages are the characterization's axis points: a repeated or
// non-positive one is rejected at parse time, naming the key, before any
// stage could characterize it. Order stays free.
TEST(CampaignParse, RejectsDuplicateOrNonPositiveVdds) {
  const auto rejects = [](const std::string& doc,
                          const std::string& where = "scenarios[0]") {
    try {
      parse_campaign_text(doc);
    } catch (const util::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("`vdds` at " + where), std::string::npos) << what;
      return;
    }
    ADD_FAILURE() << "accepted " << doc;
  };
  rejects(R"({"scenarios": [{"name": "a", "vdds": [0.8, 0.8]}]})");
  rejects(R"({"scenarios": [{"name": "a", "vdds": [0.7, 0.9, 0.7]}]})");
  rejects(R"({"scenarios": [{"name": "a", "vdds": [0.8, 0]}]})");
  rejects(R"({"scenarios": [{"name": "a", "vdds": [-0.8]}]})");
  rejects(R"({"defaults": {"vdds": [0.9, 0.9]},
              "scenarios": [{"name": "a"}]})",
          "defaults");

  const CampaignSpec spec = parse_campaign_text(
      R"({"scenarios": [{"name": "a", "vdds": [0.9, 0.7]}]})");
  EXPECT_EQ(spec.scenarios[0].flow.characterization.vdds,
            (std::vector<double>{0.9, 0.7}));

  // A flow built in code enters through single_scenario_campaign: same rule.
  core::SerFlowConfig flow = tiny_flow();
  flow.characterization.vdds = {0.8, 0.8};
  try {
    single_scenario_campaign(flow, {"alpha"}, "");
    ADD_FAILURE() << "accepted a duplicate supply voltage";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("`vdds`"), std::string::npos)
        << e.what();
  }
  flow.characterization.vdds = {0.0};
  EXPECT_THROW(single_scenario_campaign(flow, {"alpha"}, ""),
               util::InvalidArgument);
}

/// A flow built in code meets the range rules a document's values meet,
/// block keys included, and the error names the key where a document would
/// hold it.
TEST(CampaignParse, CodeBuiltFlowsMeetTheDocumentRangeRules) {
  const auto error_of = [](const core::SerFlowConfig& flow,
                           std::vector<std::string> species) -> std::string {
    try {
      single_scenario_campaign(flow, std::move(species), "");
    } catch (const util::InvalidArgument& e) {
      return e.what();
    }
    return "accepted";
  };
  core::SerFlowConfig flow = tiny_flow();
  EXPECT_EQ(error_of(flow, {"alpha", "neutron"}), "accepted");
  EXPECT_NE(error_of(flow, {"alfa"}).find("unknown species `alfa` at "
                                          "scenarios[0] (did you mean "
                                          "`alpha`?)"),
            std::string::npos);
  flow.array_mc.ci.target = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(error_of(flow, {"alpha"})
                .find("`ci_target` at scenarios[0].sampling must be finite "
                      "and >= 0, got nan"),
            std::string::npos);
  flow = tiny_flow();
  flow.array_mc.cluster.share_fraction = 1.0;
  EXPECT_NE(error_of(flow, {"alpha"})
                .find("`share_fraction` at scenarios[0].cluster must be in "
                      "[0, 1)"),
            std::string::npos);
  flow = tiny_flow();
  flow.cell_geometry.fin_h_nm = 0.0;
  EXPECT_NE(error_of(flow, {"alpha"}).find("geometry at scenarios[0]"),
            std::string::npos);
}

TEST(CampaignParse, JsonRoundTripIsExact) {
  CampaignSpec spec;
  spec.name = "round-trip";
  spec.artifact_dir = "out/artifacts";
  spec.output_dir = "out";
  spec.threads = 4;
  ScenarioSpec a;
  a.name = "nominal";
  a.species = {"alpha", "proton"};
  a.flow = tiny_flow();
  ScenarioSpec b = a;
  b.name = "low-vdd";
  b.species = {"neutron"};
  b.flow.characterization.vdds = {0.7, 0.75};
  b.flow.pattern = sram::DataPattern::kRandom;
  b.flow.pattern_seed = 9;
  b.flow.cell_design.cnode_f = 0.21e-15;
  b.flow.cell_geometry.fin_w_nm = 12.0;
  spec.scenarios = {a, b};

  const std::string dump1 = campaign_to_json(spec).dump(2);
  const CampaignSpec reparsed = parse_campaign_text(dump1);
  const std::string dump2 = campaign_to_json(reparsed).dump(2);
  EXPECT_EQ(dump1, dump2);

  // Spot-check the schema-covered fields survived exactly (doubles too:
  // %.17g serialization round-trips IEEE-754 bit patterns).
  ASSERT_EQ(reparsed.scenarios.size(), 2u);
  EXPECT_EQ(reparsed.scenarios[1].flow.cell_design.cnode_f,
            b.flow.cell_design.cnode_f);
  EXPECT_EQ(reparsed.scenarios[1].flow.characterization.vdds,
            b.flow.characterization.vdds);
  EXPECT_EQ(reparsed.scenarios[1].flow.pattern, sram::DataPattern::kRandom);
  EXPECT_EQ(reparsed.scenarios[1].species,
            (std::vector<std::string>{"neutron"}));
  EXPECT_EQ(reparsed.threads, 4u);
}

// --- stage graph ------------------------------------------------------------

TEST(StageGraph, DependenciesRunBeforeDependents) {
  StageGraph graph;
  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int id) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const std::size_t a = graph.add("a", {}, [&](std::size_t) { record(0); });
  const std::size_t b = graph.add("b", {}, [&](std::size_t) { record(1); });
  graph.add("c", {a, b}, [&](std::size_t) { record(2); });
  graph.run(4);

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 2);  // c strictly after both roots
}

TEST(StageGraph, StageThreadShareIsPositiveAndBounded) {
  StageGraph graph;
  std::mutex mu;
  std::vector<std::size_t> shares;
  for (int i = 0; i < 5; ++i) {
    graph.add("s", {}, [&](std::size_t threads) {
      const std::lock_guard<std::mutex> lock(mu);
      shares.push_back(threads);
    });
  }
  graph.run(2);
  ASSERT_EQ(shares.size(), 5u);
  for (std::size_t s : shares) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 2u);
  }
}

/// Serial stages (device-LUT builds) must not dilute the budget: the one
/// parallel stage of the wave keeps all of it, the serial ones run beside it
/// on one thread each.
TEST(StageGraph, ParallelStageTakesWholeBudgetBesideSerialStages) {
  StageGraph graph;
  std::mutex mu;
  std::map<std::string, std::size_t> shares;
  const auto record = [&](const std::string& name) {
    return [&, name](std::size_t threads) {
      const std::lock_guard<std::mutex> lock(mu);
      shares[name] = threads;
    };
  };
  graph.add("characterize", {}, record("characterize"));
  graph.add("lut-a", {}, record("lut-a"), StageBody::kSerial);
  graph.add("lut-b", {}, record("lut-b"), StageBody::kSerial);
  graph.run(4);

  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares["characterize"], 4u);
  EXPECT_EQ(shares["lut-a"], 1u);
  EXPECT_EQ(shares["lut-b"], 1u);
}

/// Parallel stages of one wave split the whole budget, remainder threads to
/// the earliest-added, and never more than the budget in total.
TEST(StageGraph, ParallelStagesSplitWholeBudget) {
  StageGraph graph;
  std::vector<std::size_t> shares(3, 0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    graph.add("p", {}, [&shares, i](std::size_t threads) {
      shares[i] = threads;
    });
  }
  graph.add("serial", {}, [](std::size_t) {}, StageBody::kSerial);
  graph.run(5);
  EXPECT_EQ(shares, (std::vector<std::size_t>{2, 2, 1}));
}

/// A one-thread budget means one thread: no two stages are ever in flight
/// together, and every stage runs on the calling thread.
TEST(StageGraph, OneThreadBudgetRunsOneStageAtATime) {
  StageGraph graph;
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> off_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  const auto body = [&](std::size_t threads) {
    EXPECT_EQ(threads, 1u);
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    in_flight.fetch_sub(1);
  };
  const std::size_t a = graph.add("a", {}, body);
  const std::size_t b = graph.add("b", {}, body);
  graph.add("lut-a", {}, body, StageBody::kSerial);
  graph.add("lut-b", {}, body, StageBody::kSerial);
  graph.add("c", {a}, body);
  graph.add("d", {b}, body);
  graph.run(1);

  EXPECT_EQ(max_in_flight.load(), 1);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(StageGraph, ExceptionsPropagate) {
  StageGraph graph;
  graph.add("boom", {}, [](std::size_t) {
    throw util::InvalidArgument("stage failure");
  });
  EXPECT_THROW(graph.run(2), util::InvalidArgument);
}

TEST(StageGraph, RejectsForwardDependencies) {
  StageGraph graph;
  EXPECT_THROW(graph.add("bad", {0}, [](std::size_t) {}),
               util::InvalidArgument);
}

// --- runner -----------------------------------------------------------------

void expect_sweeps_equal(const core::EnergySweepResult& a,
                         const core::EnergySweepResult& b) {
  ASSERT_EQ(a.bins.size(), b.bins.size());
  ASSERT_EQ(a.per_bin.size(), b.per_bin.size());
  ASSERT_EQ(a.vdds, b.vdds);
  for (std::size_t i = 0; i < a.per_bin.size(); ++i) {
    ASSERT_EQ(a.per_bin[i].est.size(), b.per_bin[i].est.size());
    for (std::size_t v = 0; v < a.per_bin[i].est.size(); ++v) {
      for (std::size_t mode = 0; mode < 2; ++mode) {
        const core::PofEstimate& x = a.per_bin[i].est[v][mode];
        const core::PofEstimate& y = b.per_bin[i].est[v][mode];
        EXPECT_EQ(x.tot, y.tot);
        EXPECT_EQ(x.seu, y.seu);
        EXPECT_EQ(x.mbu, y.mbu);
        EXPECT_EQ(x.tot_se, y.tot_se);
        EXPECT_EQ(x.hit_fraction, y.hit_fraction);
        EXPECT_EQ(x.multiplicity, y.multiplicity);
      }
    }
  }
  ASSERT_EQ(a.fit.size(), b.fit.size());
  for (std::size_t v = 0; v < a.fit.size(); ++v) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      EXPECT_EQ(a.fit[v][mode].fit_tot, b.fit[v][mode].fit_tot);
      EXPECT_EQ(a.fit[v][mode].fit_seu, b.fit[v][mode].fit_seu);
      EXPECT_EQ(a.fit[v][mode].fit_mbu, b.fit[v][mode].fit_mbu);
    }
  }
}

/// The tentpole contract: a single-scenario campaign is bit-identical to
/// driving core::SerFlow directly, at any thread count.
TEST(CampaignRunner, SingleScenarioMatchesLegacyFlowBitExactly) {
  const core::SerFlowConfig cfg = tiny_flow();
  const std::vector<std::string> species = {"alpha", "proton"};

  // Legacy path: one flow, sweeps in species order.
  core::SerFlow legacy(cfg);
  std::vector<core::EnergySweepResult> expected;
  for (const std::string& name : species) {
    expected.push_back(legacy.sweep(spectrum_for_species(name)));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    CampaignSpec spec = single_scenario_campaign(cfg, species, "");
    spec.threads = threads;
    CampaignRunner runner(std::move(spec));
    const std::vector<ScenarioResult> results = runner.run();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].sweeps.size(), species.size());
    for (std::size_t s = 0; s < species.size(); ++s) {
      expect_sweeps_equal(expected[s], results[0].sweeps[s]);
    }
  }
}

/// Three scenarios sharing one cell-model fingerprint characterize exactly
/// once; with an artifact store, a warm re-run characterizes zero times and
/// serves every energy bin from cache.
TEST(CampaignRunner, SharedModelCharacterizesOnceAndWarmRunsFromArtifacts) {
  const std::string artifacts = temp_dir("finser_campaign_artifacts");
  std::filesystem::remove_all(artifacts);

  CampaignSpec spec;
  spec.name = "share-test";
  spec.artifact_dir = artifacts;
  spec.output_dir = "";  // no CSVs from this test
  const sram::DataPattern patterns[3] = {sram::DataPattern::kCheckerboard,
                                         sram::DataPattern::kAllOnes,
                                         sram::DataPattern::kAllZeros};
  for (int i = 0; i < 3; ++i) {
    ScenarioSpec s;
    s.name = "s" + std::to_string(i);
    s.species = {"alpha"};
    s.flow = tiny_flow();
    s.flow.pattern = patterns[i];  // same cell model, different layout
    spec.scenarios.push_back(std::move(s));
  }

  obs::Registry::global().reset();
  obs::set_enabled(true);

  CampaignRunner cold(spec);
  const auto cold_results = cold.run();
  ASSERT_EQ(cold_results.size(), 3u);
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("pipeline.characterizations").total(), 1u);
  EXPECT_EQ(reg.counter("pipeline.device_lut_builds").total(), 1u);
  EXPECT_EQ(reg.counter("core.bin_cache_hits").total(), 0u);
  // 3 scenarios × 3 alpha bins, all computed on the cold run.
  EXPECT_EQ(reg.counter("core.bin_cache_misses").total(), 9u);

  CampaignRunner warm(spec);
  const auto warm_results = warm.run();
  EXPECT_EQ(reg.counter("pipeline.characterizations").total(), 1u)
      << "warm run must reuse the characterization artifact";
  EXPECT_EQ(reg.counter("pipeline.device_lut_builds").total(), 1u)
      << "warm run must reuse the device LUT artifact";
  EXPECT_EQ(reg.counter("core.bin_cache_hits").total(), 9u)
      << "warm run must serve every energy bin from the artifact store";

  obs::set_enabled(false);
  obs::Registry::global().reset();

  // Cached bins are bit-identical to computed ones.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(warm_results[i].sweeps.size(), 1u);
    expect_sweeps_equal(cold_results[i].sweeps[0], warm_results[i].sweeps[0]);
  }
  std::filesystem::remove_all(artifacts);
}

/// The stage plan is the sharding contract (docs/sharding.md): ids must be
/// deterministic, path-safe (one word of an assignment line) and
/// dependency-closed, or supervisor and workers would disagree about what
/// "stage 3" means.
TEST(CampaignRunner, StagePlanIdsAreDeterministicAndPathSafe) {
  CampaignSpec spec;
  spec.name = "plan-test";
  ScenarioSpec a;
  a.name = "a";
  a.species = {"alpha"};
  a.flow = tiny_flow();
  ScenarioSpec b = a;
  b.name = "b";
  b.flow.pattern = sram::DataPattern::kAllOnes;  // same model fingerprint
  spec.scenarios = {a, b};

  CampaignRunner r1(spec);
  CampaignRunner r2(spec);
  const std::vector<StageInfo>& plan = r1.plan();
  // Shared cell model + shared (geometry, species): 1 characterize +
  // 1 device LUT + 2 sweeps.
  ASSERT_EQ(plan.size(), 4u);
  ASSERT_EQ(r2.plan().size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].id, r2.plan()[i].id) << "plan must be deterministic";
    // Ids are `<index>-<slug>` with a filesystem-safe slug.
    EXPECT_EQ(plan[i].id.rfind(std::to_string(i) + "-", 0), 0u) << plan[i].id;
    for (char c : plan[i].id) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                  c == '_' || c == '.')
          << plan[i].id;
    }
    for (std::size_t dep : plan[i].deps) EXPECT_LT(dep, i);
  }
  EXPECT_NE(plan[0].label.find("characterize"), std::string::npos);
  EXPECT_NE(plan.back().label.find("sweep"), std::string::npos);
}

/// Driving stages one at a time through run_stage() (the worker path) must
/// reproduce run() (the in-process path) bit-exactly.
TEST(CampaignRunner, RunStageByStageMatchesRun) {
  CampaignSpec spec = single_scenario_campaign(tiny_flow(), {"alpha"}, "");

  CampaignRunner whole(spec);
  const std::vector<ScenarioResult> expected = whole.run();

  CampaignRunner stepped(spec);
  for (std::size_t i = 0; i < stepped.plan().size(); ++i) {
    stepped.run_stage(i, 1);
  }
  const std::vector<ScenarioResult>& actual = stepped.results();
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual[0].sweeps.size(), expected[0].sweeps.size());
  for (std::size_t s = 0; s < expected[0].sweeps.size(); ++s) {
    expect_sweeps_equal(expected[0].sweeps[s], actual[0].sweeps[s]);
  }
}

/// The sweep stage is the one place a surface is built, and the runner
/// hands back what it stored: each ScenarioResult surface is the payload of
/// its `response_surface` artifact and the from_sweep() of its sweep — in
/// process, on the shard worker's path (plan() + run_stage() in a fresh
/// runner) and through SurfaceProvider::refine, each on a store of its own.
TEST(CampaignRunner, ReturnsTheSurfacesItStored) {
  const std::string artifacts = temp_dir("finser_campaign_surfaces");
  CampaignSpec spec =
      single_scenario_campaign(tiny_flow(), {"alpha", "proton"}, "");
  spec.artifact_dir = artifacts;
  ScenarioSpec resolved = spec.scenarios[0];
  resolve_flow_for_execution(resolved.flow);
  const auto expect_stored = [&](const surface::ResponseSurface& surf,
                                 std::size_t i) {
    EXPECT_EQ(surf.fingerprint, response_surface_fingerprint(resolved, i));
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(ArtifactStore(artifacts).try_get(
        ArtifactKey{surface::kResponseSurfaceKind, surf.fingerprint}, blob));
    EXPECT_EQ(surf.encode(), blob) << "species " << i;
  };
  const auto expect_built = [&](const ScenarioResult& result) {
    ASSERT_EQ(result.surfaces.size(), 2u);
    ASSERT_EQ(result.sweeps.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      expect_stored(result.surfaces[i], i);
      EXPECT_EQ(result.surfaces[i].encode(),
                surface::ResponseSurface::from_sweep(
                    resolved.name, resolved.flow.cell_design.temp_k,
                    response_surface_fingerprint(resolved, i),
                    result.sweeps[i])
                    .encode())
          << "species " << i;
    }
  };

  std::filesystem::remove_all(artifacts);
  CampaignRunner whole(spec);
  const std::vector<ScenarioResult> results = whole.run();
  ASSERT_EQ(results.size(), 1u);
  expect_built(results[0]);

  std::filesystem::remove_all(artifacts);
  CampaignRunner stepped(spec);
  for (std::size_t k = 0; k < stepped.plan().size(); ++k) {
    stepped.run_stage(k, 1);
  }
  expect_built(stepped.results()[0]);

  std::filesystem::remove_all(artifacts);
  SurfaceProvider provider(spec, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    const surface::ResponseSurface* surf =
        provider.refine("scenario", resolved.species[i]);
    ASSERT_NE(surf, nullptr);
    expect_stored(*surf, i);
    EXPECT_EQ(surf->encode(), results[0].surfaces[i].encode());
    EXPECT_EQ(stepped.results()[0].surfaces[i].encode(),
              results[0].surfaces[i].encode());
  }
  std::filesystem::remove_all(artifacts);
}

/// The fingerprint names a sharded run's document across processes, so it
/// must not depend on the execution knob (threads) — only on the science.
TEST(CampaignFingerprint, InvariantToExecutionKnobs) {
  CampaignSpec spec = single_scenario_campaign(tiny_flow(), {"alpha"}, "");
  const std::uint64_t base = campaign_fingerprint(spec);

  CampaignSpec threaded = spec;
  threaded.threads = 7;
  EXPECT_EQ(campaign_fingerprint(threaded), base);

  // A sharded run defaults the store to <output_dir>/artifacts; that must
  // not make it another run than the in-process one of the same document.
  CampaignSpec stored = spec;
  stored.artifact_dir = "elsewhere/artifacts";
  EXPECT_EQ(campaign_fingerprint(stored), base);

  // The output directory is part of the run: two campaigns that share a
  // store and differ only in output_dir must not share a document.
  CampaignSpec moved = spec;
  moved.output_dir = "elsewhere";
  EXPECT_NE(campaign_fingerprint(moved), base);

  CampaignSpec edited = spec;
  edited.scenarios[0].flow.array_mc.strikes += 1;
  EXPECT_NE(campaign_fingerprint(edited), base);
}

/// The fingerprint names a run's resolved document in the store (shard
/// workers read `campaigns/<fingerprint>.json`, `serve` finds its surfaces
/// through it), so the campaigns that exist must keep theirs: the paper's
/// setup and a document that sets every scenario, `sampling` and `cluster`
/// key, some through `defaults`. Its `--print-config` dump, which
/// print_config_roundtrip.cmake pins byte for byte, is the same run.
TEST(CampaignFingerprint, PinnedForPaperAndEveryKeyDocuments) {
  const auto fingerprint = [](const std::string& path) {
    return campaign_fingerprint(parse_campaign_file(path));
  };
  const std::string fixtures = FINSER_CAMPAIGN_FIXTURES;
  EXPECT_EQ(fingerprint(FINSER_PAPER_CAMPAIGN), 0x43c658af031e2fd8ULL);
  EXPECT_EQ(fingerprint(fixtures + "/paper.dump.json"), 0x43c658af031e2fd8ULL);
  EXPECT_EQ(fingerprint(fixtures + "/every_key.json"), 0x1036a027d687b1d3ULL);
  EXPECT_EQ(fingerprint(fixtures + "/every_key.dump.json"),
            0x1036a027d687b1d3ULL);
}

/// The run fingerprint that the run report carries is the document's at MC
/// scale 1, and another run's at any other scale.
TEST(CampaignFingerprint, RunFingerprintIsTheDocumentsAtScaleOne) {
  const CampaignSpec spec =
      single_scenario_campaign(tiny_flow(), {"alpha"}, "");
  const char* prior = std::getenv("FINSER_MC_SCALE");
  const bool had_prior = prior != nullptr;
  const std::string saved = had_prior ? prior : "";
  const auto run_fingerprint = [&spec](const char* scale) {
    if (scale != nullptr) {
      setenv("FINSER_MC_SCALE", scale, 1);
    } else {
      unsetenv("FINSER_MC_SCALE");
    }
    return CampaignRunner(spec).fingerprint();
  };
  const std::uint64_t plain = run_fingerprint(nullptr);
  const std::uint64_t doubled = run_fingerprint("2");
  const std::uint64_t halved = run_fingerprint("0.5");
  if (had_prior) {
    setenv("FINSER_MC_SCALE", saved.c_str(), 1);
  } else {
    unsetenv("FINSER_MC_SCALE");
  }
  EXPECT_EQ(plain, campaign_fingerprint(spec));
  EXPECT_NE(doubled, plain);
  EXPECT_NE(halved, plain);
  EXPECT_NE(halved, doubled);
}

/// Every regular file under \p root, keyed by its relative path.
std::map<std::string, std::vector<std::uint8_t>> files_under(
    const std::string& root) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        std::filesystem::relative(entry.path(), root).string();
    util::read_file(entry.path().string(), out[rel]);
  }
  return out;
}

/// A cold campaign with CSV outputs and an artifact store runs device-LUT
/// stages beside characterization; at 1 and 4 threads, and at lane width 1,
/// the CSVs must be the same bytes and the stores must hold the same
/// artifacts.
TEST(CampaignRunner, ColdCampaignOutputsAreThreadCountInvariant) {
  // 1 and 4 threads at the build's lane width, then lane width 1.
  constexpr int kRuns = 3;
  std::map<std::string, std::vector<std::uint8_t>> csvs[kRuns];
  std::vector<ArtifactStore::Entry> inventories[kRuns];
  const std::size_t thread_counts[kRuns] = {1, 4, 4};
  const std::size_t lane_widths[kRuns] = {0, 0, 1};
  // The width is process-wide; restore the build default however the test
  // exits.
  struct AutoLaneWidth {
    ~AutoLaneWidth() { spice::set_lane_width(0); }
  } restore;
  for (int run = 0; run < kRuns; ++run) {
    const std::string root =
        temp_dir(("finser_campaign_threads_" + std::to_string(run)).c_str());
    std::filesystem::remove_all(root);

    CampaignSpec spec;
    spec.name = "threads-test";
    spec.output_dir = root + "/out";
    spec.artifact_dir = root + "/artifacts";
    spec.threads = thread_counts[run];
    spice::set_lane_width(lane_widths[run]);
    ScenarioSpec a;
    a.name = "a";
    a.species = {"alpha", "proton"};
    a.flow = tiny_flow();
    ScenarioSpec b = a;
    b.name = "b";
    b.flow.characterization.vdds = {0.7};  // a second cell model
    spec.scenarios = {a, b};
    CampaignRunner(spec).run();

    csvs[run] = files_under(spec.output_dir);
    inventories[run] = ArtifactStore(spec.artifact_dir, false).list();
    std::filesystem::remove_all(root);
  }

  for (const char* name :
       {"a/pof_alpha.csv", "a/pof_proton.csv", "a/fit_summary.csv",
        "b/pof_alpha.csv", "b/pof_proton.csv", "b/fit_summary.csv",
        "eh_pairs_alpha.csv", "eh_pairs_proton.csv"}) {
    EXPECT_EQ(csvs[0].count(name), 1u) << name;
  }
  EXPECT_FALSE(inventories[0].empty());
  for (int run = 1; run < kRuns; ++run) {
    EXPECT_TRUE(csvs[0] == csvs[run])
        << "CSV bytes differ at " << thread_counts[run] << " threads, lane "
        << "width " << lane_widths[run];
    ASSERT_EQ(inventories[0].size(), inventories[run].size());
    for (std::size_t i = 0; i < inventories[0].size(); ++i) {
      const ArtifactStore::Entry& x = inventories[0][i];
      const ArtifactStore::Entry& y = inventories[run][i];
      EXPECT_EQ(x.key.kind, y.key.kind);
      EXPECT_EQ(x.key.fingerprint, y.key.fingerprint);
      EXPECT_EQ(x.bytes, y.bytes) << x.key.kind;
      EXPECT_TRUE(x.ok && y.ok) << x.key.kind << ": " << x.status << " / "
                                << y.status;
    }
  }
}

/// Scenario outputs land in per-scenario directories with the CLI's CSV
/// formats.
TEST(CampaignRunner, WritesPerScenarioCsvOutputs) {
  const std::string out = temp_dir("finser_campaign_out");
  std::filesystem::remove_all(out);

  CampaignSpec spec = single_scenario_campaign(tiny_flow(), {"alpha"}, out,
                                               "only");
  CampaignRunner runner(std::move(spec));
  runner.run();

  EXPECT_TRUE(std::filesystem::exists(out + "/only/pof_alpha.csv"));
  EXPECT_TRUE(std::filesystem::exists(out + "/only/fit_summary.csv"));
  EXPECT_TRUE(std::filesystem::exists(out + "/eh_pairs_alpha.csv"));
  std::filesystem::remove_all(out);
}

/// An interrupted characterize stage resumes per supply voltage: cancelled
/// while characterizing vdd=0.9, the campaign leaves vdd=0.7's table in its
/// store as a `pof_table` artifact; the rerun restores vdd=0.7 from it, adds
/// no table for the last voltage (that one lives in the cell model), and
/// writes the same CSV bytes as an uninterrupted campaign.
TEST(CampaignRunner, InterruptedCharacterizationResumesPerVoltage) {
  const std::string root = temp_dir("finser_campaign_char_resume");
  std::filesystem::remove_all(root);
  const auto spec_at = [](const std::string& dir) {
    core::SerFlowConfig flow = tiny_flow();
    flow.characterization.vdds = {0.7, 0.9};
    CampaignSpec spec =
        single_scenario_campaign(flow, {"alpha"}, dir + "/out", "a");
    spec.artifact_dir = dir + "/artifacts";
    spec.threads = 2;
    return spec;
  };
  const auto pof_tables = [](const std::string& store) {
    std::size_t n = 0;
    for (const ArtifactStore::Entry& e : ArtifactStore(store, false).list()) {
      if (e.key.kind == "pof_table" && e.ok) ++n;
    }
    return n;
  };

  CampaignRunner(spec_at(root + "/ref")).run();

  // Cancelled on the first vdd=0.9 progress message: vdd=0.7 is finished
  // and stored, vdd=0.9 is abandoned at a chunk boundary.
  const CampaignSpec spec = spec_at(root + "/cut");
  exec::CancelToken cancel;
  const exec::ProgressSink cancel_at_09([&cancel](const std::string& m) {
    if (m.rfind("vdd=0.9", 0) == 0) cancel.cancel();
  });
  EXPECT_THROW(CampaignRunner(spec).run(cancel_at_09, &cancel),
               util::Cancelled);
  EXPECT_EQ(pof_tables(spec.artifact_dir), 1u);

  std::vector<std::string> restored;  // ProgressSink serializes messages
  const exec::ProgressSink watch([&restored](const std::string& m) {
    if (m.find("restored from the artifact store") != std::string::npos) {
      restored.push_back(m);
    }
  });
  CampaignRunner(spec).run(watch);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_NE(restored[0].find("1/2 voltage(s)"), std::string::npos)
      << restored[0];
  EXPECT_EQ(pof_tables(spec.artifact_dir), 1u);
  EXPECT_TRUE(files_under(root + "/ref/out") == files_under(spec.output_dir))
      << "resumed campaign CSVs differ from the uninterrupted campaign";
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace finser::pipeline
