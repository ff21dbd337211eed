#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/obs/report.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/util/error.hpp"

namespace finser::sram {
namespace {

/// Small, fast configuration shared by the characterization tests.
CharacterizerConfig fast_config() {
  CharacterizerConfig cfg;
  cfg.vdds = {0.8};
  cfg.pv_samples_single = 24;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 10;
  cfg.seed = 7;
  return cfg;
}

// ---------------------------------------------------------------------------
// make_charge_axis
// ---------------------------------------------------------------------------

TEST(ChargeAxis, StartsAtZeroEndsAtMax) {
  const auto axis = make_charge_axis(0.08, 0.12, 9, 0.4);
  EXPECT_DOUBLE_EQ(axis.front(), 0.0);
  EXPECT_DOUBLE_EQ(axis.back(), 0.4);
  EXPECT_EQ(axis.size(), 9u);
}

TEST(ChargeAxis, DensifiesAroundCriticalBand) {
  const auto axis = make_charge_axis(0.08, 0.12, 10, 0.4);
  // Count points in [0.4*0.08, 1.7*0.12]: the dense band holds all interior
  // points by construction.
  int in_band = 0;
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (axis[i] >= 0.03 && axis[i] <= 0.21) ++in_band;
  }
  EXPECT_GE(in_band, 7);
}

TEST(ChargeAxis, FallsBackWhenCellNeverFlips) {
  const auto axis = make_charge_axis(0.0, 0.0, 8, 0.4);
  EXPECT_DOUBLE_EQ(axis.front(), 0.0);
  EXPECT_DOUBLE_EQ(axis.back(), 0.4);
  // Strictly increasing.
  for (std::size_t i = 1; i < axis.size(); ++i) EXPECT_GT(axis[i], axis[i - 1]);
}

TEST(ChargeAxis, RejectsTooFewPoints) {
  EXPECT_THROW(make_charge_axis(0.1, 0.1, 5, 0.4), util::InvalidArgument);
  EXPECT_THROW(make_charge_axis(0.1, 0.1, 8, 0.0), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bisection
// ---------------------------------------------------------------------------

TEST(Bisect, FindsThresholdWithinTolerance) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const double qc = bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{},
                                          0.4, 1e-3,
                                          spice::PulseShape::Kind::kRectangular);
  ASSERT_LT(qc, SingleCdf::kNeverFlips);
  // Verify the bracket: qc flips, qc - 2 tol does not.
  EXPECT_TRUE(sim.simulate(StrikeCharges{qc, 0, 0}).flipped);
  EXPECT_FALSE(sim.simulate(StrikeCharges{qc - 2e-3, 0, 0}).flipped);
}

TEST(Bisect, ReturnsSentinelWhenNoFlipPossible) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const double qc = bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{},
                                          0.01, 1e-3,  // Ceiling below Qcrit.
                                          spice::PulseShape::Kind::kRectangular);
  EXPECT_EQ(qc, SingleCdf::kNeverFlips);
}

TEST(Bisect, RejectsBadBracket) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  EXPECT_THROW(bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{}, 0.0,
                                     1e-3, spice::PulseShape::Kind::kRectangular),
               util::InvalidArgument);
  EXPECT_THROW(bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{}, 0.4,
                                     0.0, spice::PulseShape::Kind::kRectangular,
                                     ScaleBracket{0.1, 0.2}),
               util::InvalidArgument);
}

// A search started from a predicted bracket returns the plain search's bits
// whether the bracket is right (a hit, cheaper) or wrong on either side (a
// miss, which falls back). ΔVt drawn at Mahalanobis distance 1σ and 3σ,
// 6T and 8T cells, in retention and read.
TEST(Bisect, PredictedBracketMatchesPlainSearch) {
  constexpr double kMax = 0.4;
  constexpr double kTol = 2e-4;
  const auto kind = spice::PulseShape::Kind::kRectangular;
  stats::Rng rng(20260417);
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (CellTopology topology : {CellTopology::k6T, CellTopology::k8T}) {
    for (AccessMode mode : {AccessMode::kRetention, AccessMode::kRead}) {
      CellDesign design;
      design.topology = topology;
      StrikeSimulator sim(design, 0.8, mode);
      for (double sigmas : {1.0, 3.0}) {
        for (const StrikeCharges& dir :
             {StrikeCharges{1, 0, 0}, StrikeCharges{0, 1, 0}}) {
          // A random direction in ΔVt space at the given distance; a draw
          // the cell cannot hold its state at (read disturb) is redrawn.
          DeltaVt dvt{};
          for (int attempt = 0;; ++attempt) {
            ASSERT_LT(attempt, 50) << "no holdable ΔVt draw";
            double norm = 0.0;
            for (double& v : dvt) {
              v = rng.normal(0.0, 1.0);
              norm += v * v;
            }
            for (double& v : dvt) v *= sigmas * design.sigma_vt / std::sqrt(norm);
            try {
              sim.hold_state(dvt);
              break;
            } catch (const util::NumericalError&) {
            }
          }
          const std::string where =
              std::string(topology == CellTopology::k6T ? "6T" : "8T") +
              (mode == AccessMode::kRetention ? " hold " : " read ") +
              std::to_string(sigmas) + "σ I" + (dir.i1_fc > 0 ? "1" : "2");
          const double plain =
              bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind);
          ASSERT_LT(plain, SingleCdf::kNeverFlips) << where;
          // The root bracket is the plain search itself: its cost is the
          // plain search's.
          BisectCost root;
          EXPECT_EQ(bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind,
                                          ScaleBracket{0.0, kMax}, &root),
                    plain)
              << where;
          // Right, a point on the answer, and points far enough above and
          // below it that the leaf they walk to excludes it.
          const ScaleBracket right{plain - 2e-3, plain + 2e-3};
          const ScaleBracket point{plain, plain};
          const ScaleBracket high{plain + 0.01, plain + 0.01};
          const ScaleBracket low{plain - 0.01, plain - 0.01};
          for (const ScaleBracket& b : {right, point, high, low}) {
            BisectCost cost;
            EXPECT_EQ(bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind,
                                            b, &cost),
                      plain)
                << where << " bracket [" << b.lo << ", " << b.hi << "]";
            if (cost.hit) {
              ++hits;
              EXPECT_LT(cost.transients, root.transients) << where;
            } else {
              ++misses;
              EXPECT_GT(cost.transients, root.transients) << where;
            }
          }
          BisectCost cost;
          bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind, right, &cost);
          EXPECT_TRUE(cost.hit) << where;
          bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind, high, &cost);
          EXPECT_FALSE(cost.hit) << where;
          bisect_critical_scale(sim, dir, dvt, kMax, kTol, kind, low, &cost);
          EXPECT_FALSE(cost.hit) << where;
        }
      }
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

// A ceiling below the critical charge never flips: a bracket at the
// ceiling returns kNeverFlips from its one probe, a bracket below it misses
// and the plain search's first probe returns it too.
TEST(Bisect, PredictedBracketKeepsTheNeverFlipsSentinel) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const auto kind = spice::PulseShape::Kind::kRectangular;
  BisectCost cost;
  EXPECT_EQ(bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{}, 0.01,
                                  1e-4, kind, ScaleBracket{0.0098, 0.0099},
                                  &cost),
            SingleCdf::kNeverFlips);
  EXPECT_TRUE(cost.hit);
  EXPECT_EQ(cost.transients, 1u);
  EXPECT_EQ(bisect_critical_scale(sim, StrikeCharges{1, 0, 0}, DeltaVt{}, 0.01,
                                  1e-4, kind, ScaleBracket{0.002, 0.003},
                                  &cost),
            SingleCdf::kNeverFlips);
  EXPECT_FALSE(cost.hit);
  EXPECT_EQ(cost.transients, 2u);
}

// ---------------------------------------------------------------------------
// Full characterization at one voltage
// ---------------------------------------------------------------------------

class CharacterizeFixture : public ::testing::Test {
 protected:
  static const PofTable& table() {
    static const PofTable t = [] {
      CellCharacterizer ch(CellDesign{}, fast_config());
      return ch.characterize_at(0.8, fast_config().seed);
    }();
    return t;
  }
};

TEST_F(CharacterizeFixture, SinglesHaveConsistentStatistics) {
  for (const auto& s : table().singles) {
    ASSERT_GT(s.total_samples, 0u);
    EXPECT_EQ(s.total_samples, 24u);
    EXPECT_GT(s.qcrit_samples_fc.size(), 20u);  // Nearly all flip below 0.4 fC.
    EXPECT_LT(s.nominal_qcrit_fc, 0.4);
    EXPECT_GT(s.nominal_qcrit_fc, 0.01);
    // Mean within a few sigma of nominal.
    EXPECT_NEAR(s.mean_qcrit_fc(), s.nominal_qcrit_fc,
                4.0 * s.stddev_qcrit_fc() + 1e-3);
    // Samples sorted.
    for (std::size_t i = 1; i < s.qcrit_samples_fc.size(); ++i) {
      EXPECT_LE(s.qcrit_samples_fc[i - 1], s.qcrit_samples_fc[i]);
    }
  }
}

TEST_F(CharacterizeFixture, SingleCdfIsMonotoneFromZeroToOne) {
  const auto& s = table().singles[0];
  double prev = -1.0;
  for (double q = 0.0; q <= 0.45; q += 0.01) {
    const double p = s.pof(q);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(s.pof(0.0), 0.0);
  EXPECT_GT(s.pof(0.4), 0.9);
}

TEST_F(CharacterizeFixture, NominalPofIsStep) {
  const auto& s = table().singles[1];
  EXPECT_DOUBLE_EQ(s.pof_nominal(s.nominal_qcrit_fc - 1e-6), 0.0);
  EXPECT_DOUBLE_EQ(s.pof_nominal(s.nominal_qcrit_fc + 1e-6), 1.0);
}

TEST_F(CharacterizeFixture, PairGridsBracketZeroAndOne) {
  for (const auto& g : table().pairs_nominal) {
    EXPECT_DOUBLE_EQ(g(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(g(0.4, 0.4), 1.0);
  }
  for (const auto& g : table().pairs_pv) {
    EXPECT_LT(g(0.0, 0.0), 0.05);
    EXPECT_GT(g(0.4, 0.4), 0.95);
  }
}

TEST_F(CharacterizeFixture, TripleGridBracketsZeroAndOne) {
  EXPECT_DOUBLE_EQ(table().triple_nominal(0.0, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(table().triple_nominal(0.4, 0.4, 0.4), 1.0);
  EXPECT_LT(table().triple_pv(0.0, 0.0, 0.0), 0.05);
  EXPECT_GT(table().triple_pv(0.4, 0.4, 0.4), 0.95);
}

TEST_F(CharacterizeFixture, PofDispatchByChargePattern) {
  const PofTable& t = table();
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{}, true), 0.0);
  // A single huge charge uses the matching CDF.
  EXPECT_GT(t.pof(StrikeCharges{0.4, 0.0, 0.0}, true), 0.9);
  EXPECT_GT(t.pof(StrikeCharges{0.0, 0.4, 0.0}, true), 0.9);
  EXPECT_GT(t.pof(StrikeCharges{0.0, 0.0, 0.4}, true), 0.9);
  // Pairs and triple saturate too.
  EXPECT_GT(t.pof(StrikeCharges{0.4, 0.4, 0.0}, true), 0.9);
  EXPECT_GT(t.pof(StrikeCharges{0.4, 0.4, 0.4}, true), 0.9);
  // Nominal mode is binary.
  const double p = t.pof(StrikeCharges{0.4, 0.4, 0.0}, false);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
}

TEST_F(CharacterizeFixture, TinyChargesGiveNearZeroPof) {
  // This is the regression test for the uniform-axis interpolation artifact:
  // small multi-fin deposits must not inherit phantom POF from the first
  // grid cell.
  const PofTable& t = table();
  EXPECT_LT(t.pof(StrikeCharges{0.005, 0.005, 0.0}, true), 0.02);
  EXPECT_LT(t.pof(StrikeCharges{0.005, 0.005, 0.005}, true), 0.02);
  EXPECT_DOUBLE_EQ(t.pof(StrikeCharges{0.005, 0.005, 0.0}, false), 0.0);
}

TEST(Characterizer, DeterministicGivenSeed) {
  CellCharacterizer ch(CellDesign{}, fast_config());
  const PofTable a = ch.characterize_at(0.8, 11);
  const PofTable b = ch.characterize_at(0.8, 11);
  ASSERT_EQ(a.singles[0].qcrit_samples_fc.size(),
            b.singles[0].qcrit_samples_fc.size());
  for (std::size_t i = 0; i < a.singles[0].qcrit_samples_fc.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.singles[0].qcrit_samples_fc[i],
                     b.singles[0].qcrit_samples_fc[i]);
  }
}

TEST(Characterizer, FingerprintSensitivity) {
  const CellDesign design;
  CharacterizerConfig c1 = fast_config();
  CharacterizerConfig c2 = fast_config();
  EXPECT_EQ(c1.fingerprint(design), c2.fingerprint(design));
  c2.q_max_fc *= 1.01;
  EXPECT_NE(c1.fingerprint(design), c2.fingerprint(design));
  CellDesign d2;
  d2.cnode_f *= 1.01;
  EXPECT_NE(c1.fingerprint(design), c1.fingerprint(d2));
}

TEST(Characterizer, SampleDeltaVtMatchesSigma) {
  CellCharacterizer ch(CellDesign{}, fast_config());
  stats::Rng rng(3);
  double acc = 0.0, acc2 = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const DeltaVt d = ch.sample_delta_vt(rng);
    for (double v : d) {
      acc += v;
      acc2 += v * v;
    }
  }
  const double mean = acc / (6.0 * n);
  const double var = acc2 / (6.0 * n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(std::sqrt(var), CellDesign{}.sigma_vt, 0.003);
}

TEST(Characterizer, RejectsBadConfig) {
  CharacterizerConfig bad = fast_config();
  bad.vdds.clear();
  EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument);
  bad = fast_config();
  bad.pair_grid_points = 1;
  EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument);
  // make_charge_axis() needs six points per axis; the constructor must say
  // so before any transient runs.
  bad = fast_config();
  bad.pair_grid_points = 4;
  EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument);
  bad = fast_config();
  bad.triple_grid_points = 5;
  EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double tol : {0.0, -1e-4, nan, inf}) {
    bad = fast_config();
    bad.bisect_tol_fc = tol;
    EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument)
        << "bisect_tol_fc " << tol;
  }
  for (double q_max : {0.0, nan, inf}) {
    bad = fast_config();
    bad.q_max_fc = q_max;
    EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument)
        << "q_max_fc " << q_max;
  }
  // NaN would silently disable the failure gate (frac > NaN is false).
  for (double frac : {nan, -0.01, 1.5}) {
    bad = fast_config();
    bad.max_failure_fraction = frac;
    EXPECT_THROW(CellCharacterizer(CellDesign{}, bad), util::InvalidArgument)
        << "max_failure_fraction " << frac;
  }
  CharacterizerConfig edge = fast_config();
  edge.max_failure_fraction = 0.0;
  EXPECT_NO_THROW(CellCharacterizer(CellDesign{}, edge));
  edge.max_failure_fraction = 1.0;
  EXPECT_NO_THROW(CellCharacterizer(CellDesign{}, edge));
}

/// A configuration past the 32-sample prefix, so most PV bisections start
/// from a predicted bracket.
CharacterizerConfig predicted_config(std::size_t threads) {
  CharacterizerConfig cfg = fast_config();
  cfg.pv_samples_single = 48;
  cfg.pv_samples_grid = 6;
  cfg.threads = threads;
  return cfg;
}

std::uint64_t counter(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& row : snap.counters) {
    if (row.name == name) return row.total;
  }
  return 0;
}

// Every PV critical charge of a characterization equals
// bisect_critical_scale() on the same sample, whether its search was plain
// (the prefix) or predicted; the predicted searches hit and cost fewer
// transients than plain ones would.
TEST(Characterizer, PredictedSamplesMatchPlainBisection) {
  const CellDesign design;
  const CharacterizerConfig cfg = predicted_config(2);
  const CellCharacterizer ch(design, cfg);
  constexpr std::uint64_t kSeed = 41;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const PofTable table = ch.characterize_at(0.8, kSeed);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  obs::Registry::global().reset();

  StrikeSimulator sim(design, 0.8);
  for (std::size_t which = 0; which < 3; ++which) {
    StrikeCharges dir;
    (which == 0 ? dir.i1_fc : which == 1 ? dir.i2_fc : dir.i3_fc) = 1.0;
    // Sample k of current `which` draws from stream k of the current's
    // seed (derive_seed(seed, 1 + which)).
    const std::uint64_t seed = stats::Rng::derive_seed(kSeed, 1 + which);
    std::vector<double> want;
    for (std::size_t k = 0; k < cfg.pv_samples_single; ++k) {
      stats::Rng rng = stats::Rng::stream(seed, k);
      const double q = bisect_critical_scale(sim, dir, ch.sample_delta_vt(rng),
                                             cfg.q_max_fc, cfg.bisect_tol_fc,
                                             cfg.pulse_kind);
      if (q < SingleCdf::kNeverFlips) want.push_back(q);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(table.singles[which].qcrit_samples_fc, want) << "I" << which + 1;
  }

  const std::uint64_t predicted = 3 * (cfg.pv_samples_single - 32);
  const std::uint64_t hits = counter(snap, "sram.characterize.bracket_hits");
  EXPECT_EQ(hits + counter(snap, "sram.characterize.bracket_misses"),
            predicted);
  EXPECT_GT(hits, predicted * 9 / 10);
  // A plain search at these settings takes 12 transients (one probe, 11
  // halvings); the prefix pays that, the predicted samples less.
  const std::uint64_t single =
      counter(snap, "sram.characterize.transients.single");
  EXPECT_LT(single, 3 * cfg.pv_samples_single * 12);
  EXPECT_EQ(counter(snap, "sram.characterize.transients.nominal"), 3u * 12u);
  EXPECT_EQ(counter(snap, "sram.characterize.transients.grid"),
            table.attempted_samples - 3 * cfg.pv_samples_single);
  EXPECT_EQ(counter(snap, "sram.characterize.transients.nominal") + single +
                counter(snap, "sram.characterize.transients.boundary") +
                counter(snap, "sram.characterize.transients.grid"),
            counter(snap, "spice.tran.runs"));
}

// A cold characterization's metrics section is the same at 1, 2 and 4
// threads and on a repeated run, save the three counters that depend on
// which transients share a tick or how many workers compiled the cell.
TEST(Characterizer, MetricsAreThreadInvariant) {
  const auto metrics_at = [](std::size_t threads) {
    obs::Registry::global().reset();
    const CellCharacterizer ch(CellDesign{}, predicted_config(threads));
    const PofTable table = ch.characterize_at(0.8, 5);
    obs::Snapshot snap = obs::Registry::global().snapshot();
    const auto scheduled = [](const obs::Snapshot::CounterRow& row) {
      return row.total == 0 || row.name == "spice.batch.newton_ticks" ||
             row.name == "spice.batch.lane_iters_masked" ||
             row.name == "spice.compiled.compiles";
    };
    snap.counters.erase(std::remove_if(snap.counters.begin(),
                                       snap.counters.end(), scheduled),
                        snap.counters.end());
    snap.histograms.erase(
        std::remove_if(snap.histograms.begin(), snap.histograms.end(),
                       [](const auto& row) { return row.count == 0; }),
        snap.histograms.end());
    return obs::metrics_json(snap).dump(2);
  };
  obs::set_enabled(true);
  const std::string serial = metrics_at(1);
  const std::string two = metrics_at(2);
  const std::string four = metrics_at(4);
  const std::string again = metrics_at(1);
  obs::set_enabled(false);
  obs::Registry::global().reset();
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, again);
  for (const char* name :
       {"sram.strike.dc_reuse", "spice.dc.solves", "spice.mna.pivot_reuse",
        "sram.characterize.bracket_hits", "exec.chunks"}) {
    EXPECT_NE(serial.find(name), std::string::npos) << name;
  }
}

// POF is monotone in supply voltage: at any fixed charge, a cell at lower
// Vdd is at least as likely to flip (paper conclusion 1 at the LUT level).
class PofVsVdd : public ::testing::TestWithParam<double> {};

TEST_P(PofVsVdd, LowerVddNeverLessVulnerable) {
  static const std::pair<PofTable, PofTable> tables = [] {
    CellCharacterizer ch(CellDesign{}, fast_config());
    PofTable lo = ch.characterize_at(0.7, 31);
    PofTable hi = ch.characterize_at(1.1, 31);
    return std::make_pair(std::move(lo), std::move(hi));
  }();
  const double q = GetParam();
  const StrikeCharges c{q, 0.0, 0.0};
  // Nominal tables are noise-free: strict ordering must hold.
  EXPECT_GE(tables.first.pof(c, false), tables.second.pof(c, false)) << q;
  // PV tables carry MC noise; allow a small tolerance.
  EXPECT_GE(tables.first.pof(c, true), tables.second.pof(c, true) - 0.08) << q;
}

INSTANTIATE_TEST_SUITE_P(ChargeSweep, PofVsVdd,
                         ::testing::Values(0.05, 0.1, 0.13, 0.16, 0.2, 0.3));

// POF monotone in each charge coordinate (flip region is upward closed).
class PofMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PofMonotone, AlongEachAxis) {
  static const PofTable t = [] {
    CellCharacterizer c(CellDesign{}, fast_config());
    return c.characterize_at(0.8, fast_config().seed);
  }();
  const int axis = GetParam();
  for (double base : {0.0, 0.05, 0.15}) {
    double prev = -1.0;
    for (double q = 0.0; q <= 0.4; q += 0.02) {
      StrikeCharges c{base, base, base};
      if (axis == 0) c.i1_fc = q;
      if (axis == 1) c.i2_fc = q;
      if (axis == 2) c.i3_fc = q;
      const double p = t.pof(c, true);
      EXPECT_GE(p, prev - 0.06) << "axis " << axis << " base " << base
                                << " q " << q;  // MC noise tolerance.
      prev = std::max(prev, p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, PofMonotone, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace finser::sram
