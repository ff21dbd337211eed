/// \file test_surface.cpp
/// \brief finser::surface unit tests: from_sweep channel copies, the
/// byte-stable query contract (exact nodes bitwise, clamped edges bitwise),
/// the versioned codec, the hoisted cell-model codec, surface fingerprints,
/// and the ServeSession NDJSON loop against synthetic lookup/refine hooks,
/// fuzzed with the ConfigFuzz.* mutation scheme (ServeFuzz.*) and pinned
/// byte for byte to the document-building oracle in tests/reference/
/// (ServeReference.*).

#include "finser/surface/response_surface.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "finser/core/array_engine.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/surface_provider.hpp"
#include "finser/stats/rng.hpp"
#include "finser/surface/serve.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"
#include "fuzz_mutate.hpp"
#include "serve_reference.hpp"

namespace finser::surface {
namespace {

bool bits_eq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Synthetic finished sweep with distinct, deterministic channel values —
/// value(b, v, m) is injective so a copy/transpose bug cannot cancel out.
core::EnergySweepResult make_sweep(std::size_t nv = 3, std::size_t nb = 4) {
  core::EnergySweepResult s;
  s.species = phys::Species::kAlpha;
  for (std::size_t v = 0; v < nv; ++v) {
    s.vdds.push_back(0.7 + 0.1 * static_cast<double>(v));
  }
  for (std::size_t b = 0; b < nb; ++b) {
    env::EnergyBin bin;
    bin.e_rep_mev = std::pow(2.0, static_cast<double>(b));  // geometric
    bin.e_lo_mev = bin.e_rep_mev / 1.5;
    bin.e_hi_mev = bin.e_rep_mev * 1.5;
    bin.integral_flux_per_cm2_s = 1.0 + static_cast<double>(b);
    s.bins.push_back(bin);
  }
  s.per_bin.resize(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    s.per_bin[b].vdds = s.vdds;
    s.per_bin[b].est.resize(nv);
    for (std::size_t v = 0; v < nv; ++v) {
      for (std::size_t m = 0; m < 2; ++m) {
        const double base = 0.001 * static_cast<double>(100 * b + 10 * v + m + 1);
        core::PofEstimate& e = s.per_bin[b].est[v][m];
        e.tot = base;
        e.seu = base * 0.75;
        e.mbu = base * 0.25;
        e.tot_se = base * 0.01;
      }
    }
  }
  s.fit.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t m = 0; m < 2; ++m) {
      const double base = 10.0 * static_cast<double>(10 * v + m + 1);
      s.fit[v][m].fit_tot = base;
      s.fit[v][m].fit_seu = base * 0.8;
      s.fit[v][m].fit_mbu = base * 0.2;
    }
  }
  return s;
}

ResponseSurface make_surface(std::size_t nv = 3, std::size_t nb = 4) {
  return ResponseSurface::from_sweep("scen", 300.0, 0x1234abcdu,
                                     make_sweep(nv, nb));
}

TEST(ResponseSurface, FromSweepCopiesChannelsBitExact) {
  const core::EnergySweepResult sweep = make_sweep();
  const ResponseSurface s = make_surface();
  EXPECT_EQ(s.scenario, "scen");
  EXPECT_EQ(s.species, "alpha");
  EXPECT_EQ(s.n_vdd(), 3u);
  EXPECT_EQ(s.n_bins(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t v = 0; v < 3; ++v) {
      for (const std::size_t m : {core::kModeNominal, core::kModeWithPv}) {
        const core::PofEstimate& e = sweep.per_bin[b].est[v][m];
        const int mi = static_cast<int>(m);
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_tot, mi, b, v), e.tot));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_seu, mi, b, v), e.seu));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_mbu, mi, b, v), e.mbu));
        EXPECT_TRUE(bits_eq(s.pof_at(s.pof_tot_se, mi, b, v), e.tot_se));
      }
    }
  }
  for (std::size_t v = 0; v < 3; ++v) {
    for (const std::size_t m : {core::kModeNominal, core::kModeWithPv}) {
      EXPECT_TRUE(bits_eq(s.fit_tot[m][v], sweep.fit[v][m].fit_tot));
      EXPECT_TRUE(bits_eq(s.fit_seu[m][v], sweep.fit[v][m].fit_seu));
      EXPECT_TRUE(bits_eq(s.fit_mbu[m][v], sweep.fit[v][m].fit_mbu));
    }
  }
}

TEST(ResponseSurface, GridPointQueriesReturnNodeValuesBitwise) {
  const ResponseSurface s = make_surface();
  for (std::size_t b = 0; b < s.n_bins(); ++b) {
    for (std::size_t v = 0; v < s.n_vdd(); ++v) {
      EXPECT_TRUE(s.is_grid_vdd(s.vdds[v]));
      EXPECT_TRUE(s.is_grid_energy(s.bins[b].e_rep_mev));
      for (const bool with_pv : {false, true}) {
        const int m = with_pv ? static_cast<int>(core::kModeWithPv)
                              : static_cast<int>(core::kModeNominal);
        const PofSample p = s.pof(s.vdds[v], s.bins[b].e_rep_mev, with_pv);
        EXPECT_TRUE(bits_eq(p.tot, s.pof_at(s.pof_tot, m, b, v)));
        EXPECT_TRUE(bits_eq(p.seu, s.pof_at(s.pof_seu, m, b, v)));
        EXPECT_TRUE(bits_eq(p.mbu, s.pof_at(s.pof_mbu, m, b, v)));
        EXPECT_TRUE(bits_eq(p.tot_se, s.pof_at(s.pof_tot_se, m, b, v)));
        const FitSample f = s.fit(s.vdds[v], with_pv);
        const std::size_t mu = static_cast<std::size_t>(m);
        EXPECT_TRUE(bits_eq(f.tot, s.fit_tot[mu][v]));
        EXPECT_TRUE(bits_eq(f.seu, s.fit_seu[mu][v]));
        EXPECT_TRUE(bits_eq(f.mbu, s.fit_mbu[mu][v]));
      }
    }
  }
  EXPECT_FALSE(s.is_grid_vdd(0.75));
  EXPECT_FALSE(s.is_grid_energy(3.0));
}

TEST(ResponseSurface, InteriorQueriesStayWithinCornerValues) {
  const ResponseSurface s = make_surface();
  const PofSample p = s.pof(0.75, 3.0, true);  // between v0/v1 and b1/b2
  const int m = static_cast<int>(core::kModeWithPv);
  double lo = 1.0, hi = 0.0;
  for (std::size_t b = 1; b <= 2; ++b) {
    for (std::size_t v = 0; v <= 1; ++v) {
      lo = std::min(lo, s.pof_at(s.pof_tot, m, b, v));
      hi = std::max(hi, s.pof_at(s.pof_tot, m, b, v));
    }
  }
  EXPECT_GE(p.tot, lo);
  EXPECT_LE(p.tot, hi);
  // FIT between the two nodes:
  const FitSample f = s.fit(0.75, true);
  EXPECT_GT(f.tot, std::min(s.fit_tot[1][0], s.fit_tot[1][1]));
  EXPECT_LT(f.tot, std::max(s.fit_tot[1][0], s.fit_tot[1][1]));
}

TEST(ResponseSurface, OutOfRangeClampsToEdgeNodesBitwise) {
  const ResponseSurface s = make_surface();
  const int m = static_cast<int>(core::kModeWithPv);
  const std::size_t last_v = s.n_vdd() - 1;
  const std::size_t last_b = s.n_bins() - 1;
  EXPECT_TRUE(bits_eq(s.pof(0.1, 0.01, true).tot, s.pof_at(s.pof_tot, m, 0, 0)));
  EXPECT_TRUE(bits_eq(s.pof(5.0, 1e6, true).tot,
                      s.pof_at(s.pof_tot, m, last_b, last_v)));
  EXPECT_TRUE(bits_eq(s.fit(0.1, true).tot, s.fit_tot[1][0]));
  EXPECT_TRUE(bits_eq(s.fit(5.0, true).tot, s.fit_tot[1][last_v]));
}

TEST(ResponseSurface, DegenerateSingleNodeAxesCollapse) {
  const ResponseSurface s = make_surface(1, 1);
  const int m = static_cast<int>(core::kModeWithPv);
  // Every query — on, below, above the lone node — answers the node.
  for (const double vdd : {0.1, 0.7, 9.0}) {
    for (const double e : {0.01, 1.0, 1e4}) {
      EXPECT_TRUE(bits_eq(s.pof(vdd, e, true).tot, s.pof_at(s.pof_tot, m, 0, 0)));
    }
    EXPECT_TRUE(bits_eq(s.fit(vdd, true).tot, s.fit_tot[1][0]));
  }
}

TEST(ResponseSurface, CodecRoundTripIsByteStable) {
  const ResponseSurface s = make_surface();
  const std::vector<std::uint8_t> blob = s.encode();
  const ResponseSurface d = ResponseSurface::decode(blob);
  EXPECT_EQ(d.scenario, s.scenario);
  EXPECT_EQ(d.species, s.species);
  EXPECT_TRUE(bits_eq(d.temp_k, s.temp_k));
  EXPECT_EQ(d.fingerprint, s.fingerprint);
  // Re-encoding the decoded surface must reproduce the exact payload: the
  // warm-restart byte-identity contract is this round trip.
  EXPECT_EQ(d.encode(), blob);
  // And decoded queries answer bitwise like the original.
  const PofSample a = s.pof(0.75, 3.0, true);
  const PofSample b = d.pof(0.75, 3.0, true);
  EXPECT_TRUE(bits_eq(a.tot, b.tot));
  EXPECT_TRUE(bits_eq(a.seu, b.seu));
  EXPECT_TRUE(bits_eq(a.mbu, b.mbu));
  EXPECT_TRUE(bits_eq(a.tot_se, b.tot_se));
}

TEST(ResponseSurface, DecodeRejectsMalformedBlobs) {
  const std::vector<std::uint8_t> blob = make_surface().encode();
  // Truncation at any of a few depths throws, never crashes.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{16}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(ResponseSurface::decode(cut), util::Error);
  }
  // Unknown codec version.
  std::vector<std::uint8_t> wrong = blob;
  wrong[0] = 0xEE;
  EXPECT_THROW(ResponseSurface::decode(wrong), util::Error);
  // Trailing garbage.
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_THROW(ResponseSurface::decode(padded), util::Error);
}

TEST(ResponseSurface, ValidateRejectsChannelSizeMismatch) {
  ResponseSurface s = make_surface();
  EXPECT_NO_THROW(s.validate());
  s.pof_tot[0].pop_back();
  EXPECT_THROW(s.validate(), util::Error);
}

TEST(CellModelCodec, RoundTripsAndRestoresFingerprintFromKey) {
  sram::CellSoftErrorModel model;
  model.config_fingerprint = 0xfeedbeef;  // *not* serialized: key carries it
  const std::vector<std::uint8_t> blob = encode_cell_model(model);
  const sram::CellSoftErrorModel back = decode_cell_model(blob, 0x1111);
  EXPECT_TRUE(back.tables.empty());
  EXPECT_EQ(back.config_fingerprint, 0x1111u);
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(7);
  EXPECT_THROW(decode_cell_model(padded, 0), util::Error);
}

TEST(SurfaceFingerprint, StableAndSensitiveToSpeciesPosition) {
  pipeline::ScenarioSpec scen;
  scen.name = "s";
  scen.species = {"alpha", "proton"};
  const std::uint64_t a0 = pipeline::response_surface_fingerprint(scen, 0);
  const std::uint64_t a1 = pipeline::response_surface_fingerprint(scen, 1);
  EXPECT_EQ(a0, pipeline::response_surface_fingerprint(scen, 0));
  // Same scenario, different position in the sweep order: different seeds
  // were consumed before this species, so the identity must differ.
  EXPECT_NE(a0, a1);
  // Any physics knob shifts the identity...
  pipeline::ScenarioSpec warm = scen;
  warm.flow.cell_design.temp_k += 50.0;
  EXPECT_NE(a0, pipeline::response_surface_fingerprint(warm, 0));
  // ...but the scenario display name does not change the physics hash used
  // here beyond the campaign document (name is part of the document).
  EXPECT_THROW(pipeline::response_surface_fingerprint(scen, 2),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// ServeSession against synthetic hooks: no simulation, pure protocol.
// ---------------------------------------------------------------------------

std::vector<std::string> run_session(const std::string& input,
                                     ServeSession& session, int& rc) {
  std::istringstream in(input);
  std::ostringstream out;
  rc = session.run(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string l;
  while (std::getline(split, l)) lines.push_back(l);
  return lines;
}

std::vector<ServeScenario> one_scenario_catalog() {
  ServeScenario sc;
  sc.name = "scen";
  sc.species = {"alpha"};
  sc.temp_k = 300.0;
  return {sc};
}

TEST(ServeSession, CacheHitsAnswerWithoutRefinementAndDrainCleanly) {
  const ResponseSurface surf = make_surface();
  int refines = 0;
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [&refines](const std::string&, const std::string&) -> const ResponseSurface* {
        ++refines;
        return nullptr;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 1, \"op\": \"pof\", \"species\": \"alpha\", \"vdd\": 0.7, "
      "\"energy_mev\": 2.0}\n"
      "{\"id\": 2, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.7, "
      "\"with_pv\": false}\n"
      "{\"op\":\"shutdown\"}\n",
      session, rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(refines, 0);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"grid_point\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"pof_tot\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"fit_tot\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"op\":\"shutdown\""), std::string::npos);
}

TEST(ServeSession, RepeatedQueriesAreByteIdenticalAcrossCacheStates) {
  const ResponseSurface surf = make_surface();
  const std::string query =
      "{\"id\": \"q\", \"op\": \"pof\", \"species\": \"alpha\", "
      "\"vdd\": 0.8, \"energy_mev\": 2.0}\n";

  // Session A: every lookup hits. Session B: first lookup misses and the
  // surface arrives via refine. The response *bytes* must match — replies
  // carry no provenance, so cache state is unobservable.
  ServeSession hit(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      nullptr);
  bool refined = false;
  ServeSession miss(
      one_scenario_catalog(), ServeConfig{},
      [&surf, &refined](const std::string&,
                        const std::string&) -> const ResponseSurface* {
        return refined ? &surf : nullptr;
      },
      [&surf, &refined](const std::string&, const std::string&) {
        refined = true;
        return &surf;
      },
      nullptr);
  int rc_a = -1, rc_b = -1;
  const auto a = run_session(query, hit, rc_a);
  const auto b = run_session(query, miss, rc_b);
  EXPECT_EQ(rc_a, 0);
  EXPECT_EQ(rc_b, 0);
  EXPECT_TRUE(refined);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
}

TEST(ServeSession, MalformedAndUnknownRequestsDegradeButKeepServing) {
  const ResponseSurface surf = make_surface();
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [&surf](const std::string&, const std::string&) { return &surf; },
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "this is not json\n"
      "{\"op\": \"frobnicate\"}\n"
      "{\"op\": \"pof\", \"species\": \"muon\", \"vdd\": 0.8, "
      "\"energy_mev\": 1.0}\n"
      "{\"op\": \"pof\", \"species\": \"alpha\", \"vdd\": \"high\", "
      "\"energy_mev\": 1.0}\n"
      "{\"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n",
      session, rc);
  EXPECT_EQ(rc, 6);  // degraded: errors occurred, but the loop kept going
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(lines[i].find("\"status\":\"error\""), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[4].find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeSession, ShedsWhenPendingQueueIsFull) {
  const ResponseSurface surf = make_surface();
  bool built = false;
  ServeConfig cfg;
  cfg.max_pending = 1;
  ServeSession session(
      one_scenario_catalog(), cfg,
      [&surf, &built](const std::string&,
                      const std::string&) -> const ResponseSurface* {
        return built ? &surf : nullptr;
      },
      [&surf, &built](const std::string&, const std::string&) {
        built = true;
        return &surf;
      },
      nullptr);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 1, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n"
      "{\"id\": 2, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.9}\n",
      session, rc);
  EXPECT_EQ(rc, 6);  // a shed reply is a degraded run
  ASSERT_EQ(lines.size(), 2u);
  // The shed reply is immediate, so it precedes the queued answer.
  EXPECT_NE(lines[0].find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":1"), std::string::npos);
}

TEST(ServeSession, CancelledTokenDrainsWithCacheOnlyAnswers) {
  const ResponseSurface surf = make_surface();
  exec::CancelToken cancel;
  cancel.cancel();
  ServeSession session(
      one_scenario_catalog(), ServeConfig{},
      [](const std::string&, const std::string&) -> const ResponseSurface* {
        return nullptr;  // nothing cached
      },
      [&surf](const std::string&, const std::string&) {
        ADD_FAILURE() << "refine must not run after cancellation";
        return &surf;
      },
      &cancel);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\": 9, \"op\": \"fit\", \"species\": \"alpha\", \"vdd\": 0.8}\n",
      session, rc);
  // Pre-cancelled token: the loop exits before reading; no replies, clean.
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(lines.empty());
}

// ---------------------------------------------------------------------------
// ServeFuzz: mutated request streams against docs/serving.md's contract
// ---------------------------------------------------------------------------

/// Valid request lines: every op and optional field, ids of several JSON
/// types, both scenarios, a hit, a refinement and a failing refinement.
std::vector<std::string> serve_corpus() {
  return {
      R"({"id": 1, "op": "pof", "species": "alpha", "vdd": 0.7, )"
      R"("energy_mev": 2.0})",
      R"({"id": "q2", "op": "fit", "species": "proton", "vdd": 0.8, )"
      R"("with_pv": false})",
      R"({"op": "pof", "scenario": "other", "species": "alpha", )"
      R"("vdd": 0.75, "energy_mev": 3.5, "with_pv": true})",
      R"({"id": [1, {"k": null}], "op": "fit", "scenario": "scen", )"
      R"("species": "alpha", "vdd": 1.1})",
      R"({"id": 9, "op": "stats"})",
      R"({"op": "shutdown"})",
  };
}

/// The reply count docs/serving.md promises for \p input: one per non-blank
/// line up to and including the first shutdown request.
std::size_t expected_replies(const std::string& input) {
  std::size_t count = 0;
  std::istringstream in(input);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++count;
    try {
      const util::JsonValue req = util::JsonValue::parse(line);
      if (req.is_object() && req.contains("op") && req.at("op").is_string() &&
          req.at("op").as_string() == "shutdown") {
        break;
      }
    } catch (const std::exception&) {
      // Not a request at all: still one reply.
    }
  }
  return count;
}

/// The fuzz catalog: scenario `scen` with alpha and proton, `other` with
/// alpha.
std::vector<ServeScenario> fuzz_catalog() {
  ServeScenario scen;
  scen.name = "scen";
  scen.species = {"alpha", "proton"};
  ServeScenario other;
  other.name = "other";
  other.species = {"alpha"};
  return {scen, other};
}

/// A session of type \p Session over the fuzz catalog whose hooks answer
/// `scen`/`alpha` from cache, fail to refine `scen`/`proton`, and refine
/// every other pair to \p surf.
template <class Session>
Session fuzz_session(const ResponseSurface& surf, std::size_t max_pending) {
  ServeConfig cfg;
  cfg.max_pending = max_pending;
  return Session(
      fuzz_catalog(), cfg,
      [&surf](const std::string& sc,
              const std::string& sp) -> const ResponseSurface* {
        return sc == "scen" && sp == "alpha" ? &surf : nullptr;
      },
      [&surf](const std::string&,
              const std::string& sp) -> const ResponseSurface* {
        if (sp == "proton") throw util::NumericalError("stub refine failed");
        return &surf;
      },
      nullptr);
}

/// One request stream for a session with queue bound max_pending.
struct ServeStream {
  std::string input;
  std::size_t max_pending = 1;
};

/// The next fuzz stream: 1–8 corpus lines, most of them mutated, the last
/// one unterminated half the time, under a queue bound of 1–4.
ServeStream next_fuzz_stream(stats::Rng& rng,
                             const std::vector<std::string>& corpus) {
  ServeStream stream;
  const std::size_t lines = 1 + rng.uniform_index(8);
  for (std::size_t l = 0; l < lines; ++l) {
    const std::string& line = corpus[rng.uniform_index(corpus.size())];
    stream.input += rng.uniform() < 0.7 ? fuzz::mutate(line, rng) : line;
    if (l + 1 < lines || rng.uniform() < 0.5) stream.input += '\n';
  }
  stream.max_pending = 1 + rng.uniform_index(4);
  return stream;
}

/// Feed ServeSession::run \p trials streams of mutated corpus lines and
/// return every violation of the reply contract: an exception escaping
/// run(), a reply count other than expected_replies(), or a reply that is
/// not a JSON object with status ok, shed or error. \p statuses counts the
/// replies by status.
std::vector<std::string> fuzz_serve(
    std::uint64_t seed, std::size_t trials,
    std::map<std::string, std::size_t>& statuses) {
  const ResponseSurface surf = make_surface();
  const std::vector<std::string> corpus = serve_corpus();
  std::vector<std::string> violations;
  stats::Rng rng(seed);
  for (std::size_t t = 0; t < trials; ++t) {
    const ServeStream stream = next_fuzz_stream(rng, corpus);
    const std::string& input = stream.input;
    ServeSession session = fuzz_session<ServeSession>(surf, stream.max_pending);
    const std::string where = "\n  input: " + fuzz::escaped(input);
    std::istringstream in(input);
    std::ostringstream out;
    try {
      session.run(in, out);
    } catch (const std::exception& e) {
      violations.push_back(std::string("run() threw: ") + e.what() + where);
      continue;
    }
    std::istringstream replies(out.str());
    std::size_t count = 0;
    std::string reply;
    while (std::getline(replies, reply)) {
      ++count;
      try {
        const util::JsonValue r = util::JsonValue::parse(reply);
        const std::string status = r.at("status").as_string();
        ++statuses[status];
        if (status != "ok" && status != "shed" && status != "error") {
          violations.push_back("status " + status + where);
        }
      } catch (const std::exception& e) {
        violations.push_back(std::string("reply is not a status object: ") +
                             e.what() + "\n  reply: " +
                             fuzz::escaped(reply) + where);
      }
    }
    if (count != expected_replies(input)) {
      violations.push_back(std::to_string(count) + " replies, expected " +
                           std::to_string(expected_replies(input)) + where);
    }
  }
  return violations;
}

// Every non-blank line a client sends before `shutdown` gets exactly one
// reply, with status ok, shed or error, and no exception leaves the loop —
// over byte flips, truncations, insertions and duplicated spans of valid
// requests (the ConfigFuzz.* mutation scheme), several lines per stream,
// under backpressure, with cache hits, refinements and failing ones.
TEST(ServeFuzz, EveryRequestLineGetsOneStatusReply) {
  std::map<std::string, std::size_t> statuses;
  const auto violations = fuzz_serve(20140601, 3000, statuses);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: " << violations.front();
  // Not vacuous: mutants reach answers, backpressure and rejections.
  EXPECT_GT(statuses["ok"], 100u);
  EXPECT_GT(statuses["shed"], 10u);
  EXPECT_GT(statuses["error"], 100u);
}

// ---------------------------------------------------------------------------
// ServeReference: ServeSession against the document-building oracle
// ---------------------------------------------------------------------------

/// Collection on and a clean registry, as in `finser_cli serve`; leaves
/// collection off and the registry clean.
class ServeReference : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

/// "" when \p got, a ServeSession `stats` reply, matches \p want, the
/// oracle's: the same bytes up to the counters, the same counters (except
/// `serve.generic_parses`, which only ServeSession counts), and then the
/// histogram and gauge sections the oracle does not write.
std::string stats_difference(const std::string& want, const std::string& got) {
  const std::size_t cut = want.find("\"counters\":");
  if (got.compare(0, cut, want, 0, cut) != 0) return "stats reply opening";
  const util::JsonValue w = util::JsonValue::parse(want);
  const util::JsonValue g = util::JsonValue::parse(got);
  std::vector<std::string> keys;
  for (const auto& [k, v] : w.items()) keys.push_back(k);
  keys.push_back("histograms");
  keys.push_back("gauges");
  if (g.items().size() != keys.size()) return "stats reply keys";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (g.items()[i].first != keys[i]) return "stats reply key " + keys[i];
  }
  const util::JsonValue& wc = w.at("counters");
  const util::JsonValue& gc = g.at("counters");
  for (const auto& [name, v] : wc.items()) {
    if (name == "serve.generic_parses") continue;
    if (!gc.contains(name) || gc.at(name) != v) return "counter " + name;
  }
  for (const auto& [name, v] : gc.items()) {
    if (name != "serve.generic_parses" && !wc.contains(name)) {
      return "extra counter " + name;
    }
  }
  return {};
}

/// Run \p stream through the oracle and through ServeSession, each from a
/// reset registry, and describe the first difference in exit code or reply
/// bytes; "" when there is none.
std::string reference_difference(const ResponseSurface& surf,
                                 const ServeStream& stream) {
  const auto run = [&stream](auto session, std::string& replies) {
    obs::Registry::global().reset();
    std::istringstream in(stream.input);
    std::ostringstream out;
    const int rc = session.run(in, out);
    replies = out.str();
    return rc;
  };
  std::string want, got;
  const int want_rc =
      run(fuzz_session<ReferenceServeSession>(surf, stream.max_pending), want);
  const int got_rc =
      run(fuzz_session<ServeSession>(surf, stream.max_pending), got);
  const std::string where = "\n  input: " + fuzz::escaped(stream.input);
  if (want_rc != got_rc) {
    return "exit " + std::to_string(got_rc) + ", oracle " +
           std::to_string(want_rc) + where;
  }
  const auto split = [](const std::string& text) {
    std::vector<std::string> pieces(1);  // the last one follows the last '\n'
    for (const char c : text) {
      if (c == '\n') {
        pieces.emplace_back();
      } else {
        pieces.back() += c;
      }
    }
    return pieces;
  };
  const std::vector<std::string> w = split(want), g = split(got);
  if (w.size() != g.size()) return "reply count" + where;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == g[i]) continue;
    const bool stats =
        w[i].find("\"op\":\"stats\",\"counters\":") != std::string::npos;
    const std::string diff = stats ? stats_difference(w[i], g[i]) : "reply";
    if (!diff.empty()) {
      return diff + " differs\n  got:    " + fuzz::escaped(g[i]) +
             "\n  oracle: " + fuzz::escaped(w[i]) + where;
    }
  }
  return {};
}

std::uint64_t generic_parses() {
  return obs::Registry::global().counter("serve.generic_parses").total();
}

// ServeFuzz's mutated streams (the same seed and count): every reply byte
// and exit code equals the oracle's.
TEST_F(ServeReference, FuzzStreamsMatchTheOracle) {
  const ResponseSurface surf = make_surface();
  const std::vector<std::string> corpus = serve_corpus();
  stats::Rng rng(20140601);
  std::size_t differences = 0, generic = 0;
  std::string first;
  for (std::size_t t = 0; t < 3000; ++t) {
    const std::string diff =
        reference_difference(surf, next_fuzz_stream(rng, corpus));
    generic += generic_parses();
    if (!diff.empty() && differences++ == 0) first = diff;
  }
  EXPECT_EQ(differences, 0u) << "first: " << first;
  EXPECT_GT(generic, 1000u);  // mutants mostly take the generic parser
}

/// A number's JSON text in one of the forms a client may write it.
std::string number_text(stats::Rng& rng, double v) {
  char buf[40];
  switch (rng.uniform_index(5)) {
    case 0: std::snprintf(buf, sizeof buf, "%.17g", v); break;
    case 1: std::snprintf(buf, sizeof buf, "%.3f", v); break;
    case 2: std::snprintf(buf, sizeof buf, "%.4E", v); break;
    case 3: std::snprintf(buf, sizeof buf, "%.0f", v); break;
    default: std::snprintf(buf, sizeof buf, "%.2g", v); break;
  }
  return buf;
}

/// An id of every kind: unsigned and negative integers (`-0` included),
/// integers past 64 bits, fractions and exponents, strings with and without
/// escapes, arrays, objects, null and booleans.
std::string random_id(stats::Rng& rng) {
  static const char* const kFixed[] = {
      "0", "-0", "18446744073709551615", "18446744073709551616",
      "-9223372036854775808", "-9223372036854775809", "1.50", "1e3", "-0.0",
      "2.5E-3", "\"q7\"", "\"\"", "\"caf\xc3\xa9\"", "\"a\\nb\"",
      "\"\\u00e9\\\"x\\\\\"", "\"\\/\"", "[]", "[1, \"a\", null]",
      "{\"k\": [true, {}]}", "{}", "null", "true", "false"};
  switch (rng.uniform_index(4)) {
    case 0: return std::to_string(rng() >> rng.uniform_index(64));
    case 1: return "-" + std::to_string(1 + (rng() >> (1 + rng.uniform_index(63))));
    case 2: return number_text(rng, rng.uniform(-1e6, 1e6));
    default: return kFixed[rng.uniform_index(std::size(kFixed))];
  }
}

/// A well-formed request line: any id, the keys in random order with random
/// spacing, `with_pv` present or absent, sometimes an unknown key, for the
/// cached pair, the refining pair, the failing pair, and now and then an
/// invalid field, `stats`, or an unknown op.
std::string random_request(stats::Rng& rng) {
  static const char* const kSpace[] = {"", "", "", " ", "  ", "\t", " \r"};
  const auto ws = [&rng] { return kSpace[rng.uniform_index(std::size(kSpace))]; };
  std::vector<std::pair<std::string, std::string>> fields;
  if (rng.uniform() < 0.85) fields.emplace_back("id", random_id(rng));
  const double op = rng.uniform();
  if (op < 0.03) {
    fields.emplace_back("op", "\"stats\"");
  } else if (op < 0.05) {
    fields.emplace_back("op", rng.uniform() < 0.5 ? "\"frob\"" : "7");
  } else {
    const bool pof = op < 0.7;
    fields.emplace_back("op", pof ? "\"pof\"" : "\"fit\"");
    const double target = rng.uniform();
    const bool other = target < 0.15;
    if (other || rng.uniform() < 0.5) {
      fields.emplace_back("scenario", other ? "\"other\"" : "\"scen\"");
    }
    if (rng.uniform() < 0.98) {
      fields.emplace_back(
          "species", target > 0.85 ? "\"proton\""
                                   : rng.uniform() < 0.98 ? "\"alpha\"" : "\"muon\"");
    }
    if (rng.uniform() < 0.98) {
      fields.emplace_back("vdd", number_text(rng, rng.uniform(0.6, 1.2)));
    }
    if (pof ? rng.uniform() < 0.98 : rng.uniform() < 0.1) {
      fields.emplace_back("energy_mev", number_text(rng, rng.uniform(0.5, 10.0)));
    }
  }
  const double pv = rng.uniform();
  if (pv < 0.3) {
    fields.emplace_back("with_pv", "true");
  } else if (pv < 0.6) {
    fields.emplace_back("with_pv", "false");
  } else if (pv < 0.62) {
    fields.emplace_back("with_pv", "\"yes\"");
  }
  if (rng.uniform() < 0.1) {
    fields.emplace_back("client", rng.uniform() < 0.5 ? "\"c1\"" : "{\"t\": [1]}");
  }
  for (std::size_t i = fields.size(); i > 1; --i) {
    std::swap(fields[i - 1], fields[rng.uniform_index(i)]);
  }
  std::string line = ws();
  line += '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ",";
    line = line + ws() + '"' + fields[i].first + '"' + ws() + ':' + ws() +
           fields[i].second + ws();
  }
  return line + '}' + ws();
}

// Generated well-formed requests over every id kind, key order, spacing and
// hook outcome: every reply byte and exit code equals the oracle's, and
// both readers are exercised.
TEST_F(ServeReference, GeneratedRequestsMatchTheOracle) {
  const ResponseSurface surf = make_surface();
  stats::Rng rng(0x5E7E5E7E);
  std::size_t requests = 0, generic = 0, differences = 0;
  std::string first;
  while (requests < 12000) {
    ServeStream stream;
    const std::size_t lines = 1 + rng.uniform_index(12);
    for (std::size_t l = 0; l < lines; ++l) {
      stream.input += random_request(rng) + "\n";
    }
    if (rng.uniform() < 0.2) stream.input += "{\"op\": \"shutdown\", \"id\": 0}\n";
    stream.max_pending = 1 + rng.uniform_index(8);
    requests += lines;
    const std::string diff = reference_difference(surf, stream);
    generic += generic_parses();
    if (!diff.empty() && differences++ == 0) first = diff;
  }
  EXPECT_EQ(differences, 0u) << "first: " << first;
  EXPECT_GT(generic, requests / 10);
  EXPECT_LT(generic, requests / 2);
}

// The lines a client like perf_ledger's writes — flat, integer ids, no
// escapes — never reach the generic parser; an escape or an unknown key
// sends a line there.
TEST_F(ServeReference, PlainRequestsSkipTheGenericParser) {
  const ResponseSurface surf = make_surface();
  ServeSession session = fuzz_session<ServeSession>(surf, 64);
  int rc = -1;
  const auto lines = run_session(
      "{\"id\":0,\"op\":\"pof\",\"scenario\":\"scen\",\"species\":\"alpha\","
      "\"vdd\":0.71234567890123456,\"energy_mev\":2.5,\"with_pv\":true}\n"
      "{\"id\":1,\"op\":\"fit\",\"scenario\":\"scen\",\"species\":\"alpha\","
      "\"vdd\":1,\"with_pv\":false}\n"
      " { \"op\" : \"pof\" , \"species\" : \"alpha\" , \"vdd\" : 8e-1 ,"
      " \"energy_mev\" : 2 } \r\n",
      session, rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(lines.size(), 3u);
  EXPECT_EQ(generic_parses(), 0u);
  run_session(
      "{\"id\":\"\\u0031\",\"op\":\"fit\",\"species\":\"alpha\",\"vdd\":1}\n"
      "{\"id\":2,\"op\":\"fit\",\"species\":\"alpha\",\"vdd\":1,\"x\":0}\n",
      session, rc);
  EXPECT_EQ(generic_parses(), 2u);
}

// `stats` reports each flushed batch's size and latency (split by whether
// it refined) and the pending-queue gauge next to the counters.
TEST_F(ServeReference, StatsReportBatchLatencyAndQueueDepth) {
  const ResponseSurface surf = make_surface();
  ServeSession session = fuzz_session<ServeSession>(surf, 64);
  const std::string hit =
      "{\"op\":\"pof\",\"species\":\"alpha\",\"vdd\":0.8,\"energy_mev\":2}\n";
  int rc = -1;
  const auto lines = run_session(
      hit + hit + hit + "{\"op\":\"stats\"}\n" +
          "{\"op\":\"fit\",\"scenario\":\"other\",\"species\":\"alpha\","
          "\"vdd\":0.8}\n{\"op\":\"stats\"}\n",
      session, rc);
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(lines.size(), 6u);
  // Rows registered earlier in the process stay listed at count 0.
  const auto count = [](const util::JsonValue& stats, const char* name) {
    const util::JsonValue& rows = stats.at("histograms");
    return rows.contains(name) ? rows.at(name).at("count").as_uint() : 0u;
  };
  const util::JsonValue first = util::JsonValue::parse(lines[3]);
  EXPECT_EQ(count(first, "serve.batch_requests"), 1u);
  EXPECT_EQ(first.at("histograms").at("serve.batch_requests").at("sum").as_uint(), 3u);
  EXPECT_EQ(count(first, "serve.flush_hit_us"), 1u);
  EXPECT_EQ(count(first, "serve.flush_refine_ms"), 0u);
  const util::JsonValue& pending = first.at("gauges").at("serve.pending");
  EXPECT_EQ(pending.at("value").as_int(), 0);
  EXPECT_EQ(pending.at("max").as_int(), 3);

  const util::JsonValue second = util::JsonValue::parse(lines[5]);
  EXPECT_EQ(count(second, "serve.batch_requests"), 2u);
  EXPECT_EQ(count(second, "serve.flush_hit_us"), 1u);
  EXPECT_EQ(count(second, "serve.flush_refine_ms"), 1u);
  EXPECT_EQ(second.at("counters").at("serve.refines").as_uint(), 1u);
}

}  // namespace
}  // namespace finser::surface
