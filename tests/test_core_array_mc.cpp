#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "finser/core/array_mc.hpp"
#include "finser/core/neutron_mc.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/stats/summary.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"

namespace finser::core {
namespace {

using sram::ArrayLayout;
using sram::CellGeometry;
using sram::CellSoftErrorModel;
using sram::PofTable;
using sram::SingleCdf;

/// Synthetic cell model: any sensitive deposit above q_thresh flips with
/// probability p (PV mode) or deterministically above the nominal threshold.
/// Avoids running SPICE in the array-MC unit tests.
CellSoftErrorModel synthetic_model(double vdd, double q_thresh_fc) {
  PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (auto& s : t.singles) {
    s.nominal_qcrit_fc = q_thresh_fc;
    s.total_samples = 2;
    s.qcrit_samples_fc = {0.8 * q_thresh_fc, 1.2 * q_thresh_fc};
  }
  const util::Axis axis({0.0, q_thresh_fc, 0.4});
  auto grid_values = [&](bool nominal) {
    std::vector<double> v(9, 0.0);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        const bool above = (i >= 1) || (j >= 1);
        v[static_cast<std::size_t>(i * 3 + j)] =
            above ? 1.0 : (nominal ? 0.0 : 0.0);
      }
    }
    v[0] = 0.0;
    return v;
  };
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] =
        util::Grid2(axis, axis, grid_values(false));
    t.pairs_nominal[static_cast<std::size_t>(p)] =
        util::Grid2(axis, axis, grid_values(true));
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);

  CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

ArrayMcConfig fast_config(std::size_t strikes = 4000) {
  ArrayMcConfig cfg;
  cfg.strikes = strikes;
  cfg.source_margin_nm = 0.0;
  return cfg;
}

TEST(ArrayMc, EstimatesAreProbabilities) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMc mc(layout, model, fast_config());
  const auto res = mc.run(phys::Species::kAlpha, 1.0, 1);
  ASSERT_EQ(res.vdds.size(), 1u);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const PofEstimate& e = res.est[0][mode];
    EXPECT_GE(e.tot, 0.0);
    EXPECT_LE(e.tot, 1.0);
    EXPECT_GE(e.seu, 0.0);
    EXPECT_GE(e.mbu, 0.0);
    EXPECT_NEAR(e.tot, e.seu + e.mbu, 1e-12);  // Eq. 6.
    EXPECT_GT(e.hit_fraction, 0.0);
    EXPECT_LT(e.hit_fraction, 1.0);
    EXPECT_EQ(e.strikes, 4000u);
  }
}

TEST(ArrayMc, AlphaPofExceedsProtonPof) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMc mc(layout, model, fast_config(8000));
  const auto alpha = mc.run(phys::Species::kAlpha, 2.0, 2);
  const auto proton = mc.run(phys::Species::kProton, 2.0, 2);
  EXPECT_GT(alpha.est[0][1].tot, proton.est[0][1].tot);
}

TEST(ArrayMc, DeterministicGivenSeed) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMc mc(layout, model, fast_config(2000));
  const auto a = mc.run(phys::Species::kAlpha, 1.0, 3);
  const auto b = mc.run(phys::Species::kAlpha, 1.0, 3);
  EXPECT_DOUBLE_EQ(a.est[0][0].tot, b.est[0][0].tot);
  EXPECT_DOUBLE_EQ(a.est[0][1].mbu, b.est[0][1].mbu);
}

TEST(ArrayMc, SingleCellHasNoMbu) {
  const ArrayLayout layout(1, 1, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.02);
  ArrayMc mc(layout, model, fast_config(6000));
  const auto res = mc.run(phys::Species::kAlpha, 1.0, 4);
  EXPECT_GT(res.est[0][1].tot, 0.0);
  EXPECT_DOUBLE_EQ(res.est[0][1].mbu, 0.0);  // Eq. 5 == Eq. 4 for one cell.
}

TEST(ArrayMc, LowerThresholdRaisesPof) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel easy = synthetic_model(0.8, 0.01);
  const CellSoftErrorModel hard = synthetic_model(0.8, 0.2);
  ArrayMc mc_easy(layout, easy, fast_config(6000));
  ArrayMc mc_hard(layout, hard, fast_config(6000));
  const auto e = mc_easy.run(phys::Species::kAlpha, 1.0, 5);
  const auto h = mc_hard.run(phys::Species::kAlpha, 1.0, 5);
  EXPECT_GT(e.est[0][1].tot, h.est[0][1].tot);
}

TEST(ArrayMc, MarginGrowsSampledAreaAndDilutesPof) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.02);
  ArrayMcConfig with_margin = fast_config(24000);
  with_margin.source_margin_nm = 500.0;
  ArrayMc mc0(layout, model, fast_config(24000));
  ArrayMc mc1(layout, model, with_margin);
  EXPECT_GT(mc1.sampled_area_nm2(), mc0.sampled_area_nm2());
  const auto p0 = mc0.run(phys::Species::kAlpha, 1.0, 6);
  const auto p1 = mc1.run(phys::Species::kAlpha, 1.0, 6);
  // Per-sampled-particle POF shrinks when many particles land off-array...
  EXPECT_LT(p1.est[0][1].tot, p0.est[0][1].tot);
  // ...while the area-weighted product (what enters the FIT) stays the same
  // order. It sits systematically *above* the zero-margin value — the margin
  // admits real grazing contributors that enter the fin layer from outside
  // the footprint, which the zero-margin run cannot see — but must not blow
  // up: the extra band is mostly misses.
  const double f0 = p0.est[0][1].tot * mc0.sampled_area_nm2();
  const double f1 = p1.est[0][1].tot * mc1.sampled_area_nm2();
  EXPECT_GT(f1, 0.9 * f0);
  EXPECT_LT(f1, 2.0 * f0);
}

TEST(ArrayMc, CosineSourceFavoursVerticalTracks) {
  // Cosine-law sources see fewer grazing tracks, so on a synthetic model
  // where every deposit flips, MBU (a grazing-track effect) drops.
  const ArrayLayout layout(4, 4, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.001);
  ArrayMcConfig iso = fast_config(20000);
  ArrayMcConfig cos = fast_config(20000);
  cos.angular = SourceAngularLaw::kCosine;
  ArrayMc mc_iso(layout, model, iso);
  ArrayMc mc_cos(layout, model, cos);
  const auto a = mc_iso.run(phys::Species::kAlpha, 1.0, 7);
  const auto b = mc_cos.run(phys::Species::kAlpha, 1.0, 7);
  EXPECT_GT(a.est[0][1].mbu, b.est[0][1].mbu);
}

TEST(ArrayMc, BulkCollectsMoreThanSoi) {
  // The buried oxide is SOI's radiation advantage (paper Sec. 3.3): with the
  // same threshold model, a bulk layout's substrate collection volumes must
  // raise the array POF.
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  CellGeometry soi_geom;
  CellGeometry bulk_geom;
  bulk_geom.technology = sram::TechnologyKind::kBulk;
  const ArrayLayout soi(3, 3, soi_geom);
  const ArrayLayout bulk(3, 3, bulk_geom);
  ArrayMc mc_soi(soi, model, fast_config(12000));
  ArrayMc mc_bulk(bulk, model, fast_config(12000));
  const auto p_soi = mc_soi.run(phys::Species::kAlpha, 3.0, 31).est[0][1];
  const auto p_bulk = mc_bulk.run(phys::Species::kAlpha, 3.0, 31).est[0][1];
  EXPECT_GT(p_bulk.tot, 1.2 * p_soi.tot);
  EXPECT_GT(p_bulk.hit_fraction, p_soi.hit_fraction);
}

TEST(ArrayMc, MultiplicityConsistentWithSeuMbu) {
  const ArrayLayout layout(4, 4, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.01);
  ArrayMc mc(layout, model, fast_config(8000));
  const auto est = mc.run(phys::Species::kAlpha, 1.5, 21).est[0][1];
  double sum = 0.0, tail = 0.0;
  for (std::size_t n = 0; n < kMaxMultiplicity; ++n) sum += est.multiplicity[n];
  for (std::size_t n = 2; n < kMaxMultiplicity; ++n) tail += est.multiplicity[n];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(est.multiplicity[1], est.seu, 1e-9);
  EXPECT_NEAR(tail, est.mbu, 1e-9);
  EXPECT_GT(tail, 0.0);  // Grazing tracks produce real multi-cell events.
}

TEST(ArrayMc, RejectsBadInputs) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig cfg = fast_config(0);
  EXPECT_THROW(ArrayMc(layout, model, cfg), util::InvalidArgument);
  CellSoftErrorModel empty;
  EXPECT_THROW(ArrayMc(layout, empty, fast_config()), util::InvalidArgument);
  ArrayMc mc(layout, model, fast_config());
  EXPECT_THROW(mc.run(phys::Species::kAlpha, 0.0, 8), util::InvalidArgument);
}

// A uniform or Sobol strike whose reach square touches no fin footprint is
// scored as a miss without its direction's trig, the grid walk or the
// transport, and a transported miss draws no random number either. So no
// result byte may change. The digests are FNV-1a hashes of encode_result()
// from a build that transported every strike; the runs use four threads, so
// their workers read the layout's one fin index concurrently.
TEST(ArrayMc, CulledStrikesAreByteIdentical) {
  const sram::CellDesign design;
  sram::ClusterConfig cluster;
  cluster.mode = sram::ClusterMode::k2x2;
  cluster.pv_samples = 2;
  sram::ClusterPofSurface surface(design, cluster);
  const ArrayLayout soi(3, 3, CellGeometry{});
  CellGeometry bulk_geometry;
  bulk_geometry.technology = sram::TechnologyKind::kBulk;
  const ArrayLayout bulk(3, 3, bulk_geometry);
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);

  struct Case {
    const char* name;
    const ArrayLayout* layout;
    std::function<void(ArrayMcConfig&)> edit;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"uniform", &soi, [](ArrayMcConfig&) {}, 0x9f793e967a8661afull},
      {"uniform + Sobol", &soi,
       [](ArrayMcConfig& c) { c.sampling.qmc = stats::QmcMode::kSobol; },
       0xefb83ae0ca06d510ull},
      {"importance", &soi,
       [](ArrayMcConfig& c) {
         c.position = SourcePositionSampling::kImportance;
       },
       0xb7cf25ebb47ad6e8ull},
      {"cosine", &soi,
       [](ArrayMcConfig& c) { c.angular = SourceAngularLaw::kCosine; },
       0xf3daf0b6c344831full},
      {"beam", &soi,
       [](ArrayMcConfig& c) {
         c.angular = SourceAngularLaw::kBeam;
         c.beam_direction = {0.3, 0.1, -1.0};
       },
       0xd52f1cf1eb277916ull},
      {"cluster 2x2", &soi,
       [&surface](ArrayMcConfig& c) {
         c.cluster = surface.config();
         c.cluster_surface = &surface;
       },
       0xb08c24d0c548ea3full},
      {"bulk", &bulk, [](ArrayMcConfig&) {}, 0xa9caec07a9ea62a6ull},
  };

  obs::set_enabled(true);
  obs::Registry::global().reset();
  for (const Case& c : cases) {
    ArrayMcConfig cfg;
    cfg.strikes = 6000;
    cfg.chunk = 256;
    cfg.threads = 4;
    c.edit(cfg);
    const ArrayMc mc(*c.layout, model, cfg);
    const std::vector<std::uint8_t> blob =
        encode_result(mc.run(phys::Species::kAlpha, 1.5, 31));
    const std::uint64_t digest =
        util::Fnv1a().bytes(blob.data(), blob.size()).hash();
    EXPECT_EQ(digest, c.digest)
        << c.name << ": 0x" << std::hex << digest;
  }
  std::map<std::string, std::uint64_t> counters;
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    counters[row.name] = row.total;
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
  EXPECT_GT(counters["core.array_mc.strikes_culled"], 0u);
  EXPECT_GT(counters["geom.grid.prefilter_rejects"], 0u);
  EXPECT_GT(surface.size(), 0u);  // The cluster case priced joint tiles.
}

// ---------------------------------------------------------------------------
// Scoring paths: one routine prices plain, weighted and clustered strikes
// ---------------------------------------------------------------------------

std::uint64_t digest_of(const ArrayMcResult& result) {
  const std::vector<std::uint8_t> blob = encode_result(result);
  return util::Fnv1a().bytes(blob.data(), blob.size()).hash();
}

/// Beam 88° off vertical: tracks that graze the fin layer across several
/// cells, the MBU-rich fixture cluster mode is priced on.
geom::Vec3 grazing_beam() {
  const double tilt = 88.0 * std::numbers::pi / 180.0;
  return {std::sin(tilt), 0.05, -std::cos(tilt)};
}

/// Strikes whose likelihood-ratio weight is not 1 (importance sampling)
/// and a CI-stopped run keep their result bytes. The digests are FNV-1a
/// hashes of encode_result() from the build that scored unit, weighted and
/// clustered strikes in three separate functions.
TEST(ArrayEngine, WeightedStrikesAreByteIdentical) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  struct Case {
    const char* name;
    std::function<void(ArrayMcConfig&)> edit;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"importance + Sobol",
       [](ArrayMcConfig& c) {
         c.position = SourcePositionSampling::kImportance;
         c.sampling.qmc = stats::QmcMode::kSobol;
       },
       0x4cae9f8338cb3f4full},
      {"importance, cosine",
       [](ArrayMcConfig& c) {
         c.position = SourcePositionSampling::kImportance;
         c.angular = SourceAngularLaw::kCosine;
       },
       0x4005881f234c0656ull},
      {"importance, 88 deg beam",
       [](ArrayMcConfig& c) {
         c.position = SourcePositionSampling::kImportance;
         c.angular = SourceAngularLaw::kBeam;
         c.beam_direction = grazing_beam();
       },
       0xe3af5eabf1acfb6full},
  };
  for (const Case& c : cases) {
    ArrayMcConfig cfg;
    cfg.strikes = 6000;
    cfg.chunk = 256;
    cfg.threads = 4;
    c.edit(cfg);
    const ArrayMc mc(layout, model, cfg);
    const std::uint64_t digest =
        digest_of(mc.run(phys::Species::kAlpha, 1.5, 31));
    EXPECT_EQ(digest, c.digest) << c.name << ": 0x" << std::hex << digest;
  }

  ArrayMcConfig cfg;
  cfg.strikes = 16384;
  cfg.chunk = 256;
  cfg.threads = 4;
  cfg.ci.target = 0.2;
  cfg.ci.min_chunks = 4;
  const ArrayMc mc(layout, model, cfg);
  const ArrayMcResult stopped = mc.run(phys::Species::kAlpha, 1.5, 31);
  EXPECT_TRUE(stopped.stopped_early);
  EXPECT_EQ(digest_of(stopped), 0x0a93691a47ca9418ull)
      << "ci.target: 0x" << std::hex << digest_of(stopped);
}

/// Cluster tiles under a grazing beam, unit-weight and importance-weighted,
/// keep their result bytes. Each case builds its own surface and must miss
/// it: a case whose strikes never reach a multi-cell tile would price every
/// cell on the per-cell path and pin nothing cluster-specific.
TEST(ArrayEngine, ClusterStrikesAreByteIdentical) {
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  struct Case {
    const char* name;
    sram::ClusterMode mode;
    std::function<void(ArrayMcConfig&)> edit;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"2x2, 88 deg beam", sram::ClusterMode::k2x2,
       [](ArrayMcConfig& c) {
         c.angular = SourceAngularLaw::kBeam;
         c.beam_direction = grazing_beam();
       },
       0xfea3589dcc3f0e5bull},
      {"1x4, 88 deg beam", sram::ClusterMode::k1x4,
       [](ArrayMcConfig& c) {
         c.angular = SourceAngularLaw::kBeam;
         c.beam_direction = grazing_beam();
       },
       0xd2f23cadc0ef871cull},
      {"2x2, importance", sram::ClusterMode::k2x2,
       [](ArrayMcConfig& c) {
         c.position = SourcePositionSampling::kImportance;
       },
       0xb5bf022f767ee7ccull},
  };
  obs::set_enabled(true);
  for (const Case& c : cases) {
    ArrayMcConfig cfg;
    cfg.strikes = 2000;
    cfg.chunk = 128;
    cfg.threads = 4;
    cfg.cluster.mode = c.mode;
    cfg.cluster.pv_samples = 2;
    c.edit(cfg);
    sram::ClusterPofSurface surface(design, cfg.cluster);
    cfg.cluster_surface = &surface;
    obs::Counter& misses =
        obs::Registry::global().counter("sram.cluster.surface_miss");
    const std::uint64_t misses_before = misses.total();
    const ArrayMc mc(layout, model, cfg);
    const std::uint64_t digest =
        digest_of(mc.run(phys::Species::kAlpha, 1.5, 31));
    EXPECT_EQ(digest, c.digest) << c.name << ": 0x" << std::hex << digest;
    EXPECT_GT(misses.total(), misses_before) << c.name;
  }
  obs::set_enabled(false);
}

/// Forced-interaction neutron histories (every one weighted) keep their
/// result bytes across the elastic-only, (n,α) and spallation regimes.
TEST(ArrayEngine, NeutronHistoriesAreByteIdentical) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.02);
  NeutronMcConfig cfg;
  cfg.histories = 4000;
  cfg.chunk = 256;
  cfg.threads = 4;
  cfg.source_margin_nm = 500.0;
  const NeutronArrayMc mc(layout, model, cfg);
  const std::vector<std::pair<double, std::uint64_t>> cases = {
      {2.0, 0xe2687f7441c256afull},
      {14.0, 0xced3ddc8d9c55b36ull},
      {100.0, 0xa2249422e6f962eeull}};
  for (const auto& [e_mev, expected] : cases) {
    const ArrayMcResult result = mc.run(e_mev, 41);
    EXPECT_GT(result.est[0][kModeWithPv].tot, 0.0) << e_mev << " MeV";
    const std::uint64_t digest = digest_of(result);
    EXPECT_EQ(digest, expected)
        << e_mev << " MeV: 0x" << std::hex << digest;
  }
}

/// Drives the scoring routine directly: its one unit is a strike that
/// deposits the given I1 charges, in order, into the given cells.
class ScoringProbe final : public ArrayEngine {
 public:
  ScoringProbe(const ArrayLayout& layout, const CellSoftErrorModel& model,
               sram::ClusterPofSurface* surface,
               std::vector<std::pair<std::uint32_t, double>> deposits)
      : ArrayEngine(layout, model,
                    {.kind = "ScoringProbe",
                     .unit_label = "strikes",
                     .span_name = "test.scoring_probe.run",
                     .runs_counter = "test.scoring_probe.runs",
                     .units_counter = "test.scoring_probe.strikes",
                     .units = 1,
                     .chunk_size = 1,
                     .threads = 1,
                     .straggling = phys::StragglingModel::kAuto,
                     .source_margin_nm = 0.0,
                     .ci = {},
                     .cluster_surface = surface}),
        deposits_(std::move(deposits)) {}

  std::uint64_t point_fingerprint(const EnergyPoint&,
                                  std::uint64_t) const override {
    return 0;
  }

 protected:
  void simulate_chunk(const exec::ChunkRange&, const EnergyPoint&,
                      std::uint64_t, stats::Rng&, WorkerScratch& ws,
                      McPartial& part) const override {
    begin_strike(ws);
    for (const auto& [cell, q_fc] : deposits_) {
      ws.cell_charges[cell].i1_fc = q_fc;
      ws.touched_cells.push_back(cell);
    }
    score(ws, part, 1.0, /*weighted=*/false);
  }

 private:
  std::vector<std::pair<std::uint32_t, double>> deposits_;
};

/// Independent cells combine by Eqs. 4-6; with a cluster surface the POFs
/// read off the convolved multiplicity vector, even when every struck tile
/// holds one cell. The two round apart for POFs {0.1, 0.4, 0.6}, and the
/// end-to-end pins cannot tell them apart, so the rule is pinned here.
TEST(ArrayEngine, ClusterModeReadsPofsOffTheMultiplicityVector) {
  PofTable t;
  t.vdd_v = 0.8;
  t.singles[0].nominal_qcrit_fc = 1.0;
  t.singles[0].total_samples = 10;
  for (int k = 1; k <= 10; ++k) {
    t.singles[0].qcrit_samples_fc.push_back(0.01 * k);
  }
  CellSoftErrorModel model;
  model.tables.push_back(std::move(t));
  const ArrayLayout layout(3, 3, CellGeometry{});
  // Cells 0, 2 and 6 sit in three different 2x2 tiles; with-PV POFs 0.1,
  // 0.4 and 0.6.
  const std::vector<std::pair<std::uint32_t, double>> deposits = {
      {0, 0.015}, {2, 0.045}, {6, 0.065}};
  const std::vector<double> pofs = {0.1, 0.4, 0.6};

  const PofEstimate per_cell =
      ScoringProbe(layout, model, nullptr, deposits)
          .run_point({phys::Species::kAlpha, 1.0}, 1)
          .est[0][kModeWithPv];
  const CombinedPof eqs = combine_eqs_4_to_6(pofs);
  EXPECT_EQ(per_cell.tot, eqs.tot);
  EXPECT_EQ(per_cell.seu, eqs.seu);
  EXPECT_EQ(per_cell.mbu, eqs.mbu);

  const sram::CellDesign design;
  sram::ClusterConfig cluster;
  cluster.mode = sram::ClusterMode::k2x2;
  sram::ClusterPofSurface surface(design, cluster);
  const PofEstimate clustered =
      ScoringProbe(layout, model, &surface, deposits)
          .run_point({phys::Species::kAlpha, 1.0}, 1)
          .est[0][kModeWithPv];
  const PofAccumulator::Multiplicity dist = multiplicity_distribution(pofs);
  EXPECT_EQ(clustered.tot, 1.0 - dist[0]);
  EXPECT_EQ(clustered.seu, dist[1]);
  EXPECT_EQ(clustered.mbu, std::max(1.0 - dist[0] - dist[1], 0.0));
  EXPECT_EQ(surface.size(), 0u);  // Singleton tiles never query it.

  // The fixture tells the two rules apart, and both paths share the
  // multiplicity vector.
  EXPECT_NE(per_cell.seu, clustered.seu);
  EXPECT_EQ(per_cell.multiplicity, clustered.multiplicity);
}

// ---------------------------------------------------------------------------
// PofAccumulator: the scoring tail and the effective sample size
// ---------------------------------------------------------------------------

/// A strike's combined POFs and multiplicity vector for independent cells.
std::pair<CombinedPof, PofAccumulator::Multiplicity> strike_of(
    const std::vector<double>& pofs) {
  return {combine_eqs_4_to_6(pofs), multiplicity_distribution(pofs)};
}

/// The codec bytes of one estimate: every field, doubles as raw bits.
std::vector<std::uint8_t> bytes_of(const PofEstimate& e) {
  ArrayMcResult r;
  r.vdds = {0.8};
  r.est = {{e, e}};
  return encode_result(r);
}

PofEstimate one_strike(const std::vector<double>& pofs, double weight,
                       bool weighted) {
  const auto [pof, dist] = strike_of(pofs);
  PofAccumulator a;
  a.add(pof, dist, weight, weighted);
  return a.finalize(1, 1.0);
}

/// Bin 0 of a unit-weight strike is the DP product Π(1 − p); a weighted
/// strike's is one minus its flipped mass. End-to-end digests cannot see
/// the one-ulp difference (the running sums absorb it), so the tail itself
/// is pinned.
TEST(PofAccumulator, UnitAndWeightedBinZeroRoundDifferently) {
  EXPECT_EQ(one_strike({0.3, 0.6}, 1.0, false).multiplicity[0],
            0.27999999999999997);
  EXPECT_EQ(one_strike({0.3, 0.6}, 1.0, true).multiplicity[0], 0.28);
  // Every other bin and channel is the same at weight 1.
  const PofEstimate unit = one_strike({0.3, 0.6}, 1.0, false);
  const PofEstimate weighted = one_strike({0.3, 0.6}, 1.0, true);
  for (std::size_t n = 1; n < kMaxMultiplicity; ++n) {
    EXPECT_EQ(unit.multiplicity[n], weighted.multiplicity[n]) << n;
  }
  EXPECT_EQ(unit.tot, weighted.tot);
  EXPECT_EQ(unit.seu, weighted.seu);
  EXPECT_EQ(unit.mbu, weighted.mbu);
}

/// A strike that deposited nothing is scored without table work; that
/// shortcut must equal scoring a zero POF, for either bin-0 form.
TEST(PofAccumulator, MissEqualsZeroPofStrike) {
  for (const double w : {1.0, 0.0, 2.5}) {
    for (const bool weighted : {false, true}) {
      PofAccumulator shortcut, full;
      shortcut.add_miss(w);
      shortcut.add_miss(w);
      const auto [pof, dist] = strike_of({});
      full.add(pof, dist, w, weighted);
      full.add(pof, dist, w, weighted);
      EXPECT_EQ(bytes_of(shortcut.finalize(2, 0.0)),
                bytes_of(full.finalize(2, 0.0)))
          << "w " << w << (weighted ? ", weighted" : "");
    }
  }
}

TEST(PofAccumulator, UnitWeightsGiveEssEqualToCount) {
  PofAccumulator a;
  for (int i = 0; i < 37; ++i) {
    const auto [pof, dist] = strike_of({0.01 * i});
    a.add(pof, dist, 1.0, false);
  }
  for (int i = 0; i < 5; ++i) a.add_miss(1.0);
  EXPECT_EQ(a.count(), 42u);
  EXPECT_EQ(a.ess(), 42.0);
  EXPECT_EQ(PofAccumulator().ess(), 0.0);
}

TEST(PofAccumulator, EssIsSquaredWeightSumOverSumOfSquares) {
  PofAccumulator a;
  const auto [pof, dist] = strike_of({0.25, 0.5});
  for (const double w : {1.0, 2.0, 0.0, 0.5}) a.add(pof, dist, w, true);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.ess(), 3.5 * 3.5 / 5.25);
}

TEST(PofAccumulator, ZeroWeightStrikeCountsButCarriesNoEss) {
  const auto [pof, dist] = strike_of({0.5});
  PofAccumulator a;
  a.add(pof, dist, 2.0, true);
  a.add(pof, dist, 2.0, true);
  PofAccumulator b = a;
  b.add(pof, dist, 0.0, true);  // A back-projection off the source plane.
  b.add_miss(0.0);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_EQ(b.ess(), a.ess());
  EXPECT_EQ(b.finalize(4, 0.5).ess, 2.0);
  // Merging a partial that holds no weight leaves the ESS bits alone.
  PofAccumulator zeros;
  zeros.add_miss(0.0);
  zeros.add(pof, dist, 0.0, true);
  PofAccumulator merged = a;
  merged.merge(zeros);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.ess(), a.ess());
  zeros.merge(a);
  EXPECT_EQ(zeros.ess(), a.ess());
}

/// Dyadic weights and POFs make every sum exact, so the weight sums and the
/// multiplicity mass of pairwise-merged chunks equal one pass bit for bit.
TEST(PofAccumulator, ChunkedMergesEqualOnePassBitForBit) {
  const std::vector<double> weights = {1.0, 0.5, 2.0, 0.25, 4.0, 0.0, 1.5};
  const std::vector<std::vector<double>> strikes = {
      {}, {0.5}, {0.25, 0.5}, {0.125}, {0.75, 0.5, 0.25}};
  PofAccumulator single;
  std::vector<PofAccumulator> parts(5);
  for (std::size_t i = 0; i < 70; ++i) {
    const double w = weights[i % weights.size()];
    const auto [pof, dist] = strike_of(strikes[i % strikes.size()]);
    single.add(pof, dist, w, true);
    parts[i / 14].add(pof, dist, w, true);
  }
  const PofAccumulator merged = exec::reduce_pairwise(
      parts, [](PofAccumulator a, const PofAccumulator& b) {
        a.merge(b);
        return a;
      });
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.ess(), single.ess());
  const PofEstimate em = merged.finalize(70, 1.0);
  const PofEstimate es = single.finalize(70, 1.0);
  for (std::size_t n = 0; n < kMaxMultiplicity; ++n) {
    EXPECT_EQ(em.multiplicity[n], es.multiplicity[n]) << n;
  }
  EXPECT_NEAR(em.tot, es.tot, 1e-13);
}

TEST(PofAccumulator, RejectsBadWeights) {
  PofAccumulator a;
  const auto [pof, dist] = strike_of({0.5});
  EXPECT_THROW(a.add(pof, dist, -0.5, true), util::InvalidArgument);
  EXPECT_THROW(a.add(pof, dist, std::numeric_limits<double>::infinity(), true),
               util::InvalidArgument);
  EXPECT_THROW(a.add_miss(std::numeric_limits<double>::quiet_NaN()),
               util::InvalidArgument);
  EXPECT_EQ(a.count(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation: one driver with or without a token
// ---------------------------------------------------------------------------

/// A token that never fires changes no bit: fixed and CI-target budgets, at
/// 1 and 4 threads, give the result bytes of a run without a token.
TEST(ArrayMcCancel, IdleTokenIsByteIdentical) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  for (const double ci_target : {0.0, 0.2}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ArrayMcConfig cfg = fast_config(8192);
      cfg.chunk = 128;
      cfg.threads = threads;
      cfg.ci.target = ci_target;
      cfg.ci.min_chunks = 4;
      const ArrayMc mc(layout, model, cfg);
      const exec::CancelToken idle;
      const ArrayMcResult plain = mc.run(phys::Species::kAlpha, 1.0, 9);
      EXPECT_EQ(plain.stopped_early, ci_target > 0.0);
      EXPECT_EQ(encode_result(plain),
                encode_result(
                    mc.run(phys::Species::kAlpha, 1.0, 9, {}, &idle)))
          << "ci_target " << ci_target << ", " << threads << " threads";
    }
  }
}

/// A token fired from the progress sink (on the first finished chunk) stops
/// the run at a chunk boundary with util::Cancelled.
TEST(ArrayMcCancel, TokenFiredFromProgressSinkThrows) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ArrayMcConfig cfg = fast_config(8192);
    cfg.chunk = 128;
    cfg.threads = threads;
    const ArrayMc mc(layout, model, cfg);
    exec::CancelToken token;
    const exec::ProgressSink fire(
        [&token](const std::string&) { token.cancel(); },
        std::chrono::milliseconds(0));
    EXPECT_THROW(mc.run(phys::Species::kAlpha, 1.0, 9, fire, &token),
                 util::Cancelled)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace finser::core
