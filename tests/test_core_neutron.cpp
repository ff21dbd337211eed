#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "finser/core/neutron_mc.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/core/pof_combine.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/util/error.hpp"

namespace finser::core {
namespace {

using sram::ArrayLayout;
using sram::CellGeometry;
using sram::CellSoftErrorModel;
using sram::PofTable;

/// Threshold cell model (see test_core_array_mc.cpp for the full variant).
CellSoftErrorModel threshold_model(double vdd, double q_thresh_fc) {
  PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (auto& s : t.singles) {
    s.nominal_qcrit_fc = q_thresh_fc;
    s.total_samples = 2;
    s.qcrit_samples_fc = {0.9 * q_thresh_fc, 1.1 * q_thresh_fc};
  }
  const util::Axis axis({0.0, q_thresh_fc, 0.4});
  std::vector<double> v(9, 1.0);
  v[0] = 0.0;
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v);
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);
  CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

// ---------------------------------------------------------------------------
// Eqs. 4-6 combiner (shared kernel)
// ---------------------------------------------------------------------------

TEST(PofCombine, EmptyAndSingle) {
  const auto zero = combine_eqs_4_to_6({});
  EXPECT_DOUBLE_EQ(zero.tot, 0.0);
  const auto one = combine_eqs_4_to_6({0.3});
  EXPECT_DOUBLE_EQ(one.tot, 0.3);
  EXPECT_DOUBLE_EQ(one.seu, 0.3);
  EXPECT_NEAR(one.mbu, 0.0, 1e-15);
}

TEST(PofCombine, TwoCellsHandValues) {
  const auto r = combine_eqs_4_to_6({0.5, 0.5});
  EXPECT_DOUBLE_EQ(r.tot, 0.75);
  EXPECT_DOUBLE_EQ(r.seu, 0.5);   // 2 * 0.5 * 0.5.
  EXPECT_DOUBLE_EQ(r.mbu, 0.25);  // Both flip.
}

TEST(PofCombine, CertainFlipsHandledExactly) {
  const auto r = combine_eqs_4_to_6({1.0, 1.0});
  EXPECT_DOUBLE_EQ(r.tot, 1.0);
  EXPECT_DOUBLE_EQ(r.seu, 0.0);
  EXPECT_DOUBLE_EQ(r.mbu, 1.0);
  const auto s = combine_eqs_4_to_6({1.0, 0.0, 0.25});
  EXPECT_DOUBLE_EQ(s.tot, 1.0);
  EXPECT_DOUBLE_EQ(s.seu, 0.75);
  EXPECT_DOUBLE_EQ(s.mbu, 0.25);
}

TEST(PofCombine, MultiplicityDistributionHandValues) {
  const auto d = multiplicity_distribution({0.5, 0.5});
  EXPECT_DOUBLE_EQ(d[0], 0.25);
  EXPECT_DOUBLE_EQ(d[1], 0.5);
  EXPECT_DOUBLE_EQ(d[2], 0.25);
  EXPECT_DOUBLE_EQ(d[3], 0.0);
}

TEST(PofCombine, MultiplicityMatchesEqs4To6) {
  for (const std::vector<double>& p :
       {std::vector<double>{0.3}, {0.1, 0.9}, {0.2, 0.3, 0.4, 0.9},
        {1.0, 0.5, 0.25}}) {
    const auto c = combine_eqs_4_to_6(p);
    const auto d = multiplicity_distribution(p);
    double sum = 0.0, tail = 0.0;
    for (std::size_t n = 0; n < kMaxMultiplicity; ++n) sum += d[n];
    for (std::size_t n = 2; n < kMaxMultiplicity; ++n) tail += d[n];
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_NEAR(d[0], 1.0 - c.tot, 1e-12);
    EXPECT_NEAR(d[1], c.seu, 1e-12);
    EXPECT_NEAR(tail, c.mbu, 1e-12);
  }
}

TEST(PofCombine, MultiplicityOverflowBinAggregates) {
  // 12 cells at p = 1: all mass lands in the ">= kMax-1" bin.
  const std::vector<double> p(12, 1.0);
  const auto d = multiplicity_distribution(p);
  EXPECT_DOUBLE_EQ(d[kMaxMultiplicity - 1], 1.0);
}

TEST(PofCombine, IdentityTotEqualsSeuPlusMbu) {
  for (const std::vector<double>& p :
       {std::vector<double>{0.1}, {0.1, 0.9}, {0.2, 0.3, 0.4}, {1.0, 0.5, 0.5}}) {
    const auto r = combine_eqs_4_to_6(p);
    EXPECT_NEAR(r.tot, r.seu + r.mbu, 1e-12);
    EXPECT_GE(r.mbu, 0.0);
    EXPECT_LE(r.tot, 1.0);
  }
}

// ---------------------------------------------------------------------------
// NeutronArrayMc
// ---------------------------------------------------------------------------

NeutronMcConfig fast_config(std::size_t n = 20000) {
  NeutronMcConfig cfg;
  cfg.histories = n;
  cfg.source_margin_nm = 500.0;
  return cfg;
}

TEST(NeutronMc, ProducesWeightedPofEstimates) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  NeutronArrayMc mc(layout, model, fast_config());
  const auto res = mc.run(14.0, 1);
  const auto& e = res.est[0][kModeWithPv];
  // Forced-interaction weights make per-neutron POF tiny but nonzero.
  EXPECT_GT(e.tot, 0.0);
  EXPECT_LT(e.tot, 1e-3);
  EXPECT_NEAR(e.tot, e.seu + e.mbu, 1e-15);
  EXPECT_GT(e.hit_fraction, 0.0);
}

TEST(NeutronMc, ElasticOnlyEnergiesStillUpset) {
  // At 2 MeV only elastic recoils exist; they must still flip cells.
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  NeutronArrayMc mc(layout, model, fast_config());
  EXPECT_GT(mc.run(2.0, 2).est[0][kModeWithPv].tot, 0.0);
}

TEST(NeutronMc, HigherThresholdLowersPof) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel easy = threshold_model(0.8, 0.01);
  const CellSoftErrorModel hard = threshold_model(0.8, 0.35);
  NeutronArrayMc mc_e(layout, easy, fast_config());
  NeutronArrayMc mc_h(layout, hard, fast_config());
  EXPECT_GT(mc_e.run(5.0, 3).est[0][kModeWithPv].tot,
            mc_h.run(5.0, 3).est[0][kModeWithPv].tot);
}

TEST(NeutronMc, DeterministicGivenSeed) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  NeutronArrayMc mc(layout, model, fast_config(4000));
  EXPECT_DOUBLE_EQ(mc.run(14.0, 4).est[0][kModeWithPv].tot,
                   mc.run(14.0, 4).est[0][kModeWithPv].tot);
}

TEST(NeutronMc, RejectsBadConfig) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  NeutronMcConfig bad = fast_config(0);
  EXPECT_THROW(NeutronArrayMc(layout, model, bad), util::InvalidArgument);
  bad = fast_config();
  bad.interaction_depth_um = 0.0;
  EXPECT_THROW(NeutronArrayMc(layout, model, bad), util::InvalidArgument);
  NeutronArrayMc mc(layout, model, fast_config(100));
  EXPECT_THROW(mc.run(0.0, 5), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// SerFlow integration
// ---------------------------------------------------------------------------

TEST(NeutronFlow, SweepDispatchesToNeutronMc) {
  SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pv_samples_grid = 6;
  cfg.neutron_mc.histories = 4000;
  cfg.neutron_bins = 3;
  SerFlow flow(cfg);
  const auto res = flow.sweep(env::sea_level_neutrons());
  EXPECT_EQ(res.species, phys::Species::kNeutron);
  EXPECT_EQ(res.bins.size(), 3u);
  EXPECT_GE(res.fit[0][kModeWithPv].fit_tot, 0.0);
  // Spectrum anchor: ~13 n/(cm^2 h) above 10 MeV.
  EXPECT_NEAR(env::sea_level_neutrons().integral_flux(10.0, 1000.0) * 3600.0,
              13.0, 0.2);
}

/// A token that never fires changes no bit: fixed and CI-target budgets, at
/// 1 and 4 threads, give the result bytes of a run without a token.
TEST(NeutronMcCancel, IdleTokenIsByteIdentical) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  for (const double ci_target : {0.0, 0.5}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      NeutronMcConfig cfg = fast_config(8192);
      cfg.chunk = 128;
      cfg.threads = threads;
      cfg.ci.target = ci_target;
      cfg.ci.min_chunks = 4;
      const NeutronArrayMc mc(layout, model, cfg);
      const exec::CancelToken idle;
      const ArrayMcResult plain = mc.run(14.0, 6);
      EXPECT_EQ(plain.stopped_early, ci_target > 0.0);
      EXPECT_EQ(encode_result(plain),
                encode_result(mc.run(14.0, 6, {}, &idle)))
          << "ci_target " << ci_target << ", " << threads << " threads";
    }
  }
}

/// A token fired from the progress sink (on the first finished chunk) stops
/// the run at a chunk boundary with util::Cancelled.
TEST(NeutronMcCancel, TokenFiredFromProgressSinkThrows) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    NeutronMcConfig cfg = fast_config(8192);
    cfg.chunk = 128;
    cfg.threads = threads;
    const NeutronArrayMc mc(layout, model, cfg);
    exec::CancelToken token;
    const exec::ProgressSink fire(
        [&token](const std::string&) { token.cancel(); },
        std::chrono::milliseconds(0));
    EXPECT_THROW(mc.run(14.0, 6, fire, &token), util::Cancelled)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace finser::core
