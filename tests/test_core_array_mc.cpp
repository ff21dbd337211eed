#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "finser/core/array_mc.hpp"
#include "finser/exec/cancel.hpp"
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
       [&design](ArrayMcConfig& c) {
         c.cluster.mode = sram::ClusterMode::k2x2;
         c.cluster.pv_samples = 2;
         c.cluster_design = &design;
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
