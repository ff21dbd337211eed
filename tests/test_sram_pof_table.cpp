#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "finser/sram/pof_table.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {
namespace {

/// Hand-built table with known values (no SPICE needed).
PofTable synthetic_table(double vdd) {
  PofTable t;
  t.vdd_v = vdd;
  t.q_max_fc = 0.4;
  for (int i = 0; i < 3; ++i) {
    SingleCdf s;
    s.nominal_qcrit_fc = 0.1 + 0.01 * i;
    s.total_samples = 4;
    s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
    t.singles[static_cast<std::size_t>(i)] = s;
  }
  const util::Axis axis({0.0, 0.1, 0.4});
  const std::vector<double> pv = {0.0, 0.0, 0.5,   // Row q_a = 0.
                                  0.0, 0.5, 1.0,   // Row q_a = 0.1.
                                  0.5, 1.0, 1.0};  // Row q_a = 0.4.
  const std::vector<double> nom = {0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, pv);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, nom);
  }
  std::vector<double> pv3(27, 0.0), nom3(27, 0.0);
  for (std::size_t i = 0; i < 27; ++i) {
    pv3[i] = (i == 26) ? 1.0 : 0.2;
    nom3[i] = (i >= 13) ? 1.0 : 0.0;
  }
  t.triple_pv = util::Grid3(axis, axis, axis, pv3);
  t.triple_nominal = util::Grid3(axis, axis, axis, nom3);
  return t;
}

// ---------------------------------------------------------------------------
// SingleCdf
// ---------------------------------------------------------------------------

TEST(SingleCdf, EmpiricalCdfSteps) {
  SingleCdf s;
  s.total_samples = 4;
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_DOUBLE_EQ(s.pof(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.pof(0.085), 0.25);
  EXPECT_DOUBLE_EQ(s.pof(0.10), 0.5);
  EXPECT_DOUBLE_EQ(s.pof(0.2), 1.0);
}

TEST(SingleCdf, NeverFlippedSamplesReducePof) {
  SingleCdf s;
  s.total_samples = 8;  // 4 of which never flipped (not in the list).
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_DOUBLE_EQ(s.pof(1.0), 0.5);
}

TEST(SingleCdf, EmptyIsZero) {
  SingleCdf s;
  EXPECT_DOUBLE_EQ(s.pof(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_qcrit_fc(), SingleCdf::kNeverFlips);
  EXPECT_DOUBLE_EQ(s.stddev_qcrit_fc(), 0.0);
}

TEST(SingleCdf, Moments) {
  SingleCdf s;
  s.total_samples = 4;
  s.qcrit_samples_fc = {0.08, 0.09, 0.11, 0.12};
  EXPECT_NEAR(s.mean_qcrit_fc(), 0.1, 1e-12);
  EXPECT_NEAR(s.stddev_qcrit_fc(), 0.0182574, 1e-6);
}

// ---------------------------------------------------------------------------
// PofTable dispatch
// ---------------------------------------------------------------------------

TEST(PofTableDispatch, NoChargeNoPof) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{}, true), 0.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{}, false), 0.0);
  // Sub-epsilon charges count as zero.
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{1e-7, 1e-7, 1e-7}, true), 0.0);
}

TEST(PofTableDispatch, SinglesUseCdf) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.10, 0, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0.10, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0, 0.10}, true), 0.5);
  // Nominal mode: thresholds differ per current (0.10, 0.11, 0.12).
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.105, 0, 0}, false), 1.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0, 0.105, 0}, false), 0.0);
}

TEST(PofTableDispatch, PairsInterpolate) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.1, 0.1, 0}, true), 0.5);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0}, true), 1.0);
  // Nominal pairs round the bilinear value to a binary decision.
  const double p = t.pof(StrikeCharges{0.1, 0.1, 0}, false);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
}

TEST(PofTableDispatch, TripleUsesGrid3) {
  const PofTable t = synthetic_table(0.8);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0.4}, true), 1.0);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.4, 0.4, 0.4}, false), 1.0);
  EXPECT_NEAR(t.pof(StrikeCharges{0.05, 0.05, 0.05}, true), 0.2, 0.15);
}

// ---------------------------------------------------------------------------
// CellSoftErrorModel
// ---------------------------------------------------------------------------

TEST(Model, VddLookup) {
  CellSoftErrorModel m;
  m.tables.push_back(synthetic_table(0.7));
  m.tables.push_back(synthetic_table(0.8));
  EXPECT_DOUBLE_EQ(m.at_vdd(0.8).vdd_v, 0.8);
  EXPECT_DOUBLE_EQ(m.at_vdd(0.7 + 5e-4).vdd_v, 0.7);  // 1 mV tolerance.
  EXPECT_THROW(m.at_vdd(0.9), util::DomainError);
  const auto vs = m.vdds();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_DOUBLE_EQ(vs[0], 0.7);
}

TEST(Model, SerializationRoundTrip) {
  CellSoftErrorModel m;
  m.config_fingerprint = 0xDEADBEEFCAFEull;
  m.tables.push_back(synthetic_table(0.7));
  m.tables.push_back(synthetic_table(1.1));

  // The cell-model artifact codec; the fingerprint travels as the key.
  const CellSoftErrorModel r =
      decode_cell_model(encode_cell_model(m), m.config_fingerprint);
  EXPECT_EQ(r.config_fingerprint, m.config_fingerprint);
  ASSERT_EQ(r.tables.size(), 2u);
  EXPECT_DOUBLE_EQ(r.tables[1].vdd_v, 1.1);
  EXPECT_DOUBLE_EQ(r.tables[0].q_max_fc, 0.4);

  // Behaviour identical after the round trip.
  for (const StrikeCharges c : {StrikeCharges{0.1, 0, 0}, StrikeCharges{0.1, 0.1, 0},
                                StrikeCharges{0.2, 0.2, 0.2}}) {
    EXPECT_DOUBLE_EQ(r.tables[0].pof(c, true), m.tables[0].pof(c, true));
    EXPECT_DOUBLE_EQ(r.tables[0].pof(c, false), m.tables[0].pof(c, false));
  }
}

TEST(Model, LoadRejectsTruncatedFile) {
  CellSoftErrorModel m;
  m.config_fingerprint = 7;
  m.tables.push_back(synthetic_table(0.8));
  const std::vector<std::uint8_t> full = encode_cell_model(m);

  // Truncate the payload at several points: every cut must throw, never
  // crash or silently return a partial model.
  for (const double frac : {0.3, 0.6, 0.9}) {
    const auto cut = static_cast<std::ptrdiff_t>(frac * static_cast<double>(full.size()));
    const std::vector<std::uint8_t> torn(full.begin(), full.begin() + cut);
    EXPECT_THROW(decode_cell_model(torn, m.config_fingerprint), util::Error) << frac;
  }
}

}  // namespace
}  // namespace finser::sram
