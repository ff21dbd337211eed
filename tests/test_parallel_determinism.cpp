/// \file test_parallel_determinism.cpp
/// \brief The exec-layer contract, enforced: every Monte-Carlo engine must
/// produce bit-identical results for the same seed at 1 thread and at >= 4
/// threads. RNG streams are keyed by chunk index and partials merge in chunk
/// order, so the thread count is pure scheduling noise — any EXPECT_EQ
/// failure here means a schedule dependency leaked into the estimators.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "finser/core/array_mc.hpp"
#include "finser/core/neutron_mc.hpp"
#include "finser/core/ser_flow.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"

namespace finser::core {
namespace {

using sram::ArrayLayout;
using sram::CellGeometry;
using sram::CellSoftErrorModel;
using sram::PofTable;

/// Threshold cell model: deposits above q_thresh flip (see the array-MC
/// tests); keeps SPICE out of the array/neutron engine cases.
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

/// Bit-exact comparison of two estimates (EXPECT_EQ, not NEAR: the contract
/// is identity, not statistical agreement).
void expect_identical(const PofEstimate& a, const PofEstimate& b) {
  EXPECT_EQ(a.tot, b.tot);
  EXPECT_EQ(a.seu, b.seu);
  EXPECT_EQ(a.mbu, b.mbu);
  EXPECT_EQ(a.tot_se, b.tot_se);
  EXPECT_EQ(a.seu_se, b.seu_se);
  EXPECT_EQ(a.mbu_se, b.mbu_se);
  EXPECT_EQ(a.hit_fraction, b.hit_fraction);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.ess, b.ess);
  for (std::size_t n = 0; n < kMaxMultiplicity; ++n) {
    EXPECT_EQ(a.multiplicity[n], b.multiplicity[n]) << "multiplicity " << n;
  }
}

void expect_identical(const ArrayMcResult& a, const ArrayMcResult& b) {
  ASSERT_EQ(a.vdds, b.vdds);
  ASSERT_EQ(a.est.size(), b.est.size());
  for (std::size_t v = 0; v < a.est.size(); ++v) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      expect_identical(a.est[v][mode], b.est[v][mode]);
    }
  }
}

TEST(ParallelDeterminism, ArrayMcOneVsFourThreads) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  ArrayMcConfig serial;
  serial.strikes = 5000;
  serial.chunk = 256;  // Partial tail chunk: 5000 = 19*256 + 136.
  serial.threads = 1;
  ArrayMcConfig parallel = serial;
  parallel.threads = 4;
  ArrayMc mc1(layout, model, serial);
  ArrayMc mc4(layout, model, parallel);
  expect_identical(mc1.run(phys::Species::kAlpha, 1.5, 99),
                   mc4.run(phys::Species::kAlpha, 1.5, 99));
  // Importance sampling holds to the same contract: grazing direction
  // draws, zero-weight back-projections and weighted scoring all live in
  // the chunk, and 5000 = 13*384 + 8 leaves a ragged last chunk.
  serial.position = parallel.position = SourcePositionSampling::kImportance;
  serial.chunk = parallel.chunk = 384;
  ArrayMc mi1(layout, model, serial);
  ArrayMc mi4(layout, model, parallel);
  const ArrayMcResult weighted = mi1.run(phys::Species::kAlpha, 1.5, 100);
  expect_identical(weighted, mi4.run(phys::Species::kAlpha, 1.5, 100));
  // Witness that the weighted path ran: unequal weights put ESS below N.
  EXPECT_LT(weighted.est[0][1].ess,
            static_cast<double>(weighted.est[0][1].strikes));
}

TEST(ParallelDeterminism, NeutronMcOneVsFourThreads) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = threshold_model(0.8, 0.02);
  NeutronMcConfig serial;
  serial.histories = 6000;
  serial.chunk = 512;
  serial.source_margin_nm = 500.0;
  serial.threads = 1;
  NeutronMcConfig parallel = serial;
  parallel.threads = 4;
  NeutronArrayMc mc1(layout, model, serial);
  NeutronArrayMc mc4(layout, model, parallel);
  expect_identical(mc1.run(14.0, 7), mc4.run(14.0, 7));
}

TEST(ParallelDeterminism, CharacterizerOneVsFourThreads) {
  sram::CharacterizerConfig cfg;
  cfg.vdds = {0.8};
  cfg.pv_samples_single = 16;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 8;
  cfg.seed = 7;
  cfg.threads = 1;
  sram::CharacterizerConfig cfg4 = cfg;
  cfg4.threads = 4;
  // The thread count must not enter the LUT cache fingerprint: the tables
  // are interchangeable by contract.
  EXPECT_EQ(cfg.fingerprint(sram::CellDesign{}),
            cfg4.fingerprint(sram::CellDesign{}));

  sram::CellCharacterizer ch1(sram::CellDesign{}, cfg);
  sram::CellCharacterizer ch4(sram::CellDesign{}, cfg4);
  const PofTable a = ch1.characterize_at(0.8, 11);
  const PofTable b = ch4.characterize_at(0.8, 11);

  for (std::size_t s = 0; s < a.singles.size(); ++s) {
    EXPECT_EQ(a.singles[s].nominal_qcrit_fc, b.singles[s].nominal_qcrit_fc);
    ASSERT_EQ(a.singles[s].qcrit_samples_fc.size(),
              b.singles[s].qcrit_samples_fc.size());
    for (std::size_t i = 0; i < a.singles[s].qcrit_samples_fc.size(); ++i) {
      EXPECT_EQ(a.singles[s].qcrit_samples_fc[i],
                b.singles[s].qcrit_samples_fc[i]);
    }
  }
  // Pair/triple grids: probe the interpolants over the charge cube.
  for (double q1 : {0.0, 0.04, 0.11, 0.3}) {
    for (double q2 : {0.0, 0.07, 0.25}) {
      for (double q3 : {0.0, 0.15}) {
        const sram::StrikeCharges c{q1, q2, q3};
        EXPECT_EQ(a.pof(c, true), b.pof(c, true)) << q1 << " " << q2 << " " << q3;
        EXPECT_EQ(a.pof(c, false), b.pof(c, false));
      }
    }
  }
}

// Past the 32-sample prefix most PV bisections start from a predicted
// bracket: the fit, and with it every table byte, must not depend on the
// thread count either.
TEST(ParallelDeterminism, CharacterizerPredictedBracketsOneVsFourThreads) {
  sram::CharacterizerConfig cfg;
  cfg.vdds = {0.8};
  cfg.pv_samples_single = 40;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 10;
  cfg.seed = 7;
  const auto table_bytes = [&](std::size_t threads) {
    sram::CharacterizerConfig c = cfg;
    c.threads = threads;
    util::ByteWriter w;
    sram::CellCharacterizer(sram::CellDesign{}, c).characterize_at(0.9, 3).write(w);
    return w.take();
  };
  EXPECT_EQ(table_bytes(1), table_bytes(4));
}

TEST(ParallelDeterminism, SerFlowSweepOneVsFourThreads) {
  SerFlowConfig cfg;
  cfg.array_rows = 2;
  cfg.array_cols = 2;
  cfg.characterization.vdds = {0.8};
  cfg.characterization.pv_samples_single = 10;
  cfg.characterization.pair_grid_points = 6;
  cfg.characterization.triple_grid_points = 6;
  cfg.characterization.pv_samples_grid = 6;
  cfg.array_mc.strikes = 1500;
  cfg.array_mc.chunk = 128;
  cfg.proton_bins = 3;
  cfg.alpha_bins = 3;
  cfg.seed = 5;
  cfg.threads = 1;
  SerFlowConfig cfg4 = cfg;
  cfg4.threads = 4;

  SerFlow flow1(cfg);
  SerFlow flow4(cfg4);
  const EnergySweepResult r1 = flow1.sweep(env::package_alphas());
  const EnergySweepResult r4 = flow4.sweep(env::package_alphas());

  ASSERT_EQ(r1.bins.size(), r4.bins.size());
  ASSERT_EQ(r1.per_bin.size(), r4.per_bin.size());
  for (std::size_t b = 0; b < r1.per_bin.size(); ++b) {
    expect_identical(r1.per_bin[b], r4.per_bin[b]);
  }
  ASSERT_EQ(r1.fit.size(), r4.fit.size());
  for (std::size_t v = 0; v < r1.fit.size(); ++v) {
    for (std::size_t mode = 0; mode < 2; ++mode) {
      EXPECT_EQ(r1.fit[v][mode].fit_tot, r4.fit[v][mode].fit_tot);
      EXPECT_EQ(r1.fit[v][mode].fit_seu, r4.fit[v][mode].fit_seu);
      EXPECT_EQ(r1.fit[v][mode].fit_mbu, r4.fit[v][mode].fit_mbu);
    }
  }
}

}  // namespace
}  // namespace finser::core
