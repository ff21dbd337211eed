/// \file test_cluster.cpp
/// \brief Correlated multi-node charge collection (docs/charge_sharing.md):
/// tile bookkeeping, the saturating multiplicity convolution, the per-cell
/// tile simulator and its verdict equivalence to the joint N-cell netlist
/// (tests/reference), the memoized cluster POF surface, and the
/// cluster-aware array engine — including the contract that `cluster = 1x1`
/// is byte-identical to the independent per-cell pipeline at every thread
/// count and lane width.

#include <gtest/gtest.h>

#include <barrier>
#include <cmath>
#include <functional>
#include <numbers>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster_reference.hpp"
#include "finser/core/array_mc.hpp"
#include "finser/core/pof_combine.hpp"
#include "finser/obs/obs.hpp"
#include "finser/obs/report.hpp"
#include "finser/spice/batch.hpp"
#include "finser/sram/cluster.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"
#include "finser/util/json.hpp"

namespace finser::sram {
namespace {

// --- tiling bookkeeping -----------------------------------------------------

TEST(ClusterMode, TileShapes) {
  EXPECT_EQ(cluster_rows(ClusterMode::k2x2), 2u);
  EXPECT_EQ(cluster_cols(ClusterMode::k2x2), 2u);
  EXPECT_EQ(cluster_rows(ClusterMode::k1x4), 1u);
  EXPECT_EQ(cluster_cols(ClusterMode::k1x4), 4u);
  EXPECT_FALSE(ClusterConfig{}.enabled());
}

TEST(ClusterTiling, RaggedTilesAtOddArraySizes) {
  // 5x5 array under 2x2 tiles: 3 ragged tile columns and rows. Cells agree
  // on a tile id iff they share (row/2, col/2); border cells (row or col 4)
  // land in smaller tiles of their own.
  const std::size_t cols = 5;
  for (std::uint32_t r1 = 0; r1 < 5; ++r1) {
    for (std::uint32_t c1 = 0; c1 < 5; ++c1) {
      for (std::uint32_t r2 = 0; r2 < 5; ++r2) {
        for (std::uint32_t c2 = 0; c2 < 5; ++c2) {
          const bool same_tile = (r1 / 2 == r2 / 2) && (c1 / 2 == c2 / 2);
          EXPECT_EQ(cluster_tile_id(r1, c1, cols, 2, 2) ==
                        cluster_tile_id(r2, c2, cols, 2, 2),
                    same_tile)
              << "(" << r1 << "," << c1 << ") vs (" << r2 << "," << c2 << ")";
        }
      }
    }
  }
  // Corner cell (4,4) is alone in its 1x1 ragged tile, at local index 0.
  EXPECT_EQ(cluster_local_index(4, 4, 2, 2), 0);
  // 1x4 tiles on a 7-wide row: tile breaks at column 4; the ragged tail
  // {4,5,6} keeps ascending locals 0,1,2.
  EXPECT_NE(cluster_tile_id(0, 3, 7, 1, 4), cluster_tile_id(0, 4, 7, 1, 4));
  EXPECT_EQ(cluster_local_index(0, 4, 1, 4), 0);
  EXPECT_EQ(cluster_local_index(0, 6, 1, 4), 2);
}

TEST(ClusterTiling, AscendingCellOrderGivesAscendingLocals) {
  // The engine sorts touched cells by (tile, flat cell index) and relies on
  // ascending cell index within one tile implying strictly ascending local
  // indices — the surface's canonical key order.
  for (const auto& [tr, tc] : {std::pair<std::size_t, std::size_t>{2, 2},
                               std::pair<std::size_t, std::size_t>{1, 4}}) {
    const std::size_t rows = 5, cols = 7;
    std::map<std::uint32_t, std::vector<std::uint8_t>> locals_by_tile;
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        // Flat cell index order is exactly this double loop's order.
        locals_by_tile[cluster_tile_id(r, c, cols, tr, tc)].push_back(
            cluster_local_index(r, c, tr, tc));
      }
    }
    for (const auto& [tile, locals] : locals_by_tile) {
      for (std::size_t i = 1; i < locals.size(); ++i) {
        EXPECT_LT(locals[i - 1], locals[i]) << "tile " << tile;
      }
    }
  }
}

TEST(ClusterTiling, AdjacentCellsAcrossTileBoundarySplit) {
  // A grazing track crossing columns 1 and 2 spans two 2x2 tiles — the
  // engine must price the two fragments independently.
  EXPECT_NE(cluster_tile_id(0, 1, 8, 2, 2), cluster_tile_id(0, 2, 8, 2, 2));
  EXPECT_NE(cluster_tile_id(1, 0, 8, 2, 2), cluster_tile_id(2, 0, 8, 2, 2));
  EXPECT_EQ(cluster_tile_id(0, 0, 8, 2, 2), cluster_tile_id(1, 1, 8, 2, 2));
}

TEST(ClusterTiling, InterleavingDistanceDecouplesCorrelation) {
  // ECC sizing: bits of one logical word placed >= tile_cols columns apart
  // (and >= tile_rows rows apart) can never share a cluster tile, so the
  // correlated model cannot couple them — the layout-level guarantee that
  // word-interleaving defeats intra-tile charge sharing (sram::ArrayLayout
  // cells are addressed by the same row/col grid the tiling uses).
  const std::size_t rows = 9, cols = 9;
  for (const auto& [tr, tc] : {std::pair<std::size_t, std::size_t>{2, 2},
                               std::pair<std::size_t, std::size_t>{1, 4}}) {
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        // Any cell >= one tile extent away in either axis is in a different
        // tile, so interleaved bits never couple.
        if (c + tc < cols) {
          EXPECT_NE(cluster_tile_id(r, c, cols, tr, tc),
                    cluster_tile_id(r, c + static_cast<std::uint32_t>(tc),
                                    cols, tr, tc));
        }
        if (r + tr < rows) {
          EXPECT_NE(cluster_tile_id(r, c, cols, tr, tc),
                    cluster_tile_id(r + static_cast<std::uint32_t>(tr), c,
                                    cols, tr, tc));
        }
      }
    }
  }
}

// --- saturating multiplicity convolution ------------------------------------

TEST(ConvolveMultiplicity, BaseDistributionIsIdentity) {
  std::array<double, core::kMaxMultiplicity> dist{};
  dist[0] = 0.25;
  dist[1] = 0.5;
  dist[3] = 0.25;
  const auto out = core::convolve_multiplicity(dist, {1.0});
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_DOUBLE_EQ(out[n], dist[n]);
  }
}

TEST(ConvolveMultiplicity, MatchesPoissonBinomialFactorization) {
  // Convolving the per-cell DP of {p1} with the law of an independent cell
  // {1-p2, p2} must equal the joint DP of {p1, p2}.
  const double p1 = 0.3, p2 = 0.2;
  const auto joint = core::multiplicity_distribution({p1, p2});
  const auto left = core::multiplicity_distribution({p1});
  const auto out = core::convolve_multiplicity(left, {1.0 - p2, p2});
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_NEAR(out[n], joint[n], 1e-15) << "bin " << n;
  }
}

TEST(ConvolveMultiplicity, SaturatesIntoLastBinAndCounts) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  std::array<double, core::kMaxMultiplicity> dist{};
  dist[core::kMaxMultiplicity - 1] = 1.0;  // already at "8 or more"
  const std::vector<double> q = {0.5, 0.25, 0.25};  // up to 2 more flips
  const auto out = core::convolve_multiplicity(dist, q);
  EXPECT_DOUBLE_EQ(out[core::kMaxMultiplicity - 1], 1.0);
  double sum = 0.0;
  for (double v : out) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-15);
  EXPECT_GE(obs::Registry::global()
                .counter("core.pof.multiplicity_saturated")
                .total(),
            1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

TEST(ConvolveMultiplicity, DeepPofListSaturationIsCounted) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  // 10 cells can flip 10 > kMaxMultiplicity-1 ways: the DP's absorbing last
  // bin keeps the output a distribution, and the truncation is counted.
  const std::vector<double> pofs(10, 0.5);
  const auto dist = core::multiplicity_distribution(pofs);
  double sum = 0.0;
  for (double v : dist) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GE(obs::Registry::global()
                .counter("core.pof.multiplicity_saturated")
                .total(),
            1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

// --- tile simulator ---------------------------------------------------------

constexpr double kVdd = 0.8;
// Comfortably above the ~0.136 fC cell Qcrit at 0.8 V / below it.
constexpr double kSuperFc = 0.4;
constexpr double kSubFc = 0.05;

TEST(ClusterSimulator, SingleStruckCellFlipsAloneInTile) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  ASSERT_EQ(sim.cell_count(), 4u);
  std::vector<ClusterSimulator::CellStrike> strikes(1);
  strikes[0].local = 2;
  strikes[0].charges.i1_fc = kSuperFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  ASSERT_EQ(out.flipped.size(), 4u);
  EXPECT_EQ(out.flip_count, 1u);
  EXPECT_TRUE(out.flipped[2]);
  EXPECT_FALSE(out.flipped[0]);
  EXPECT_FALSE(out.flipped[1]);
  EXPECT_FALSE(out.flipped[3]);
}

TEST(ClusterSimulator, SubCriticalChargeFlipsNothing) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 1, 4);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = kSubFc;
  strikes[1].local = 3;
  strikes[1].charges.i1_fc = kSubFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  EXPECT_EQ(out.flip_count, 0u);
}

TEST(ClusterSimulator, JointStrikeFlipsBothCells) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = kSuperFc;
  strikes[1].local = 1;
  strikes[1].charges.i1_fc = kSuperFc;
  const std::vector<DeltaVt> dvts(4);
  const auto out =
      sim.simulate(strikes, dvts, spice::PulseShape::Kind::kRectangular);
  ASSERT_FALSE(out.failed) << out.error;
  EXPECT_EQ(out.flip_count, 2u);
  EXPECT_TRUE(out.flipped[0]);
  EXPECT_TRUE(out.flipped[1]);
}

TEST(ClusterSimulator, BatchMatchesScalarPerSample) {
  const CellDesign design;
  ClusterSimulator sim(design, kVdd, 2, 2);
  std::vector<ClusterSimulator::CellStrike> strikes(2);
  strikes[0].local = 0;
  strikes[0].charges.i1_fc = 0.15;  // near-critical: PV decides
  strikes[1].local = 3;
  strikes[1].charges.i1_fc = 0.12;
  stats::Rng rng(42);
  std::vector<std::vector<DeltaVt>> samples(6, std::vector<DeltaVt>(4));
  for (auto& dvts : samples) {
    for (auto& d : dvts) {
      for (auto& dv : d) dv = rng.normal(0.0, 0.03);
    }
  }
  std::vector<ClusterSimulator::Outcome> batch;
  sim.simulate_batch(strikes, samples, spice::PulseShape::Kind::kRectangular,
                     batch);
  ASSERT_EQ(batch.size(), samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto scalar = sim.simulate(strikes, samples[s],
                                     spice::PulseShape::Kind::kRectangular);
    ASSERT_EQ(batch[s].failed, scalar.failed) << "sample " << s;
    EXPECT_EQ(batch[s].flipped, scalar.flipped) << "sample " << s;
    EXPECT_EQ(batch[s].flip_count, scalar.flip_count) << "sample " << s;
  }
}

// --- equivalence to the joint N-cell netlist -------------------------------

/// Nominal critical I1 charge [fC] at \p vdd, bisected on the single cell.
double nominal_qcrit_fc(const CellDesign& design, double vdd) {
  StrikeSimulator sim(design, vdd);
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 24; ++it) {
    const double mid = 0.5 * (lo + hi);
    StrikeCharges q;
    q.i1_fc = mid;
    (sim.simulate(q).flipped ? hi : lo) = mid;
  }
  return hi;
}

struct VerdictTally {
  std::size_t verdicts = 0;
  std::size_t flips = 0;
  std::size_t mismatches = 0;
};

/// Compare the struck cells' verdicts of one sample.
void tally(const std::vector<ClusterSimulator::CellStrike>& strikes,
           const ClusterSimulator::Outcome& joint,
           const ClusterSimulator::Outcome& cells, VerdictTally& t) {
  ASSERT_EQ(joint.failed, cells.failed) << joint.error << cells.error;
  if (joint.failed) return;
  for (const auto& s : strikes) {
    ++t.verdicts;
    t.flips += joint.flipped[s.local];
    if (joint.flipped[s.local] != cells.flipped[s.local]) ++t.mismatches;
  }
  EXPECT_EQ(joint.flip_count, cells.flip_count);
}

TEST(ClusterSimulator, VerdictsMatchJointNetlistOracle) {
  // Random struck-cell subsets of 2x2 and 1x4 tiles at two supplies, each
  // cell's I1 charge within ±30% of the nominal Qcrit (plus small I2/I3
  // companions), nominal and with ΔVt samples drawn as the surface draws
  // them: every struck cell's verdict from its own single-cell simulation
  // must equal the one the joint N-cell transient gives it.
  const CellDesign design;
  stats::Rng rng(20140601);
  VerdictTally nominal, pv;
  constexpr std::size_t kTrials = 16;
  constexpr std::size_t kPvSamples = 8;
  for (const auto& [tr, tc] : {std::pair<std::size_t, std::size_t>{2, 2},
                               std::pair<std::size_t, std::size_t>{1, 4}}) {
    for (const double vdd : {0.7, 0.9}) {
      const double qc = nominal_qcrit_fc(design, vdd);
      ClusterSimulator cells(design, vdd, tr, tc);
      JointClusterSimulator joint(design, vdd, tr, tc);
      const std::size_t n = cells.cell_count();
      const std::vector<DeltaVt> zero(n);
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        std::vector<ClusterSimulator::CellStrike> strikes;
        while (strikes.empty()) {
          for (std::size_t l = 0; l < n; ++l) {
            if (rng.uniform() >= 0.6) continue;
            ClusterSimulator::CellStrike s;
            s.local = static_cast<std::uint8_t>(l);
            s.charges.i1_fc = qc * rng.uniform(0.7, 1.3);
            s.charges.i2_fc = qc * rng.uniform(0.0, 0.1);
            s.charges.i3_fc = qc * rng.uniform(0.0, 0.1);
            strikes.push_back(s);
          }
        }
        const auto kind = spice::PulseShape::Kind::kRectangular;
        tally(strikes, joint.simulate(strikes, zero, kind),
              cells.simulate(strikes, zero, kind), nominal);

        std::vector<std::vector<DeltaVt>> samples(kPvSamples, zero);
        for (auto& sample : samples) {
          for (const auto& s : strikes) {
            for (double& dv : sample[s.local]) {
              dv = rng.normal(0.0, design.sigma_vt);
            }
          }
        }
        std::vector<ClusterSimulator::Outcome> joint_out, cell_out;
        joint.simulate_batch(strikes, samples, kind, joint_out);
        cells.simulate_batch(strikes, samples, kind, cell_out);
        ASSERT_EQ(joint_out.size(), kPvSamples);
        ASSERT_EQ(cell_out.size(), kPvSamples);
        for (std::size_t k = 0; k < kPvSamples; ++k) {
          tally(strikes, joint_out[k], cell_out[k], pv);
        }
      }
    }
  }
  for (const VerdictTally* t : {&nominal, &pv}) {
    EXPECT_EQ(t->mismatches, 0u) << "of " << t->verdicts << " verdicts";
    // The charges straddle Qcrit: both verdicts occur.
    EXPECT_GT(t->flips, 0u);
    EXPECT_LT(t->flips, t->verdicts);
  }
  EXPECT_GT(pv.verdicts, 500u);
}

// --- memoized POF surface ---------------------------------------------------

std::vector<ClusterPofSurface::CellCharge> two_cell_query(double qa,
                                                          double qb) {
  std::vector<ClusterPofSurface::CellCharge> cells(2);
  cells[0].local = 0;
  cells[0].charges.i1_fc = qa;
  cells[1].local = 1;
  cells[1].charges.i1_fc = qb;
  return cells;
}

TEST(ClusterPofSurface, MemoizesAndRepeatsExactly) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 3;
  ClusterPofSurface surf(design, cc);
  std::vector<double> first, second;
  surf.flip_count_distribution(kVdd, true, two_cell_query(0.2, 0.05), first);
  EXPECT_EQ(surf.size(), 1u);
  surf.flip_count_distribution(kVdd, true, two_cell_query(0.2, 0.05), second);
  EXPECT_EQ(surf.size(), 1u);
  EXPECT_EQ(first, second);  // bitwise: memo hit == fresh evaluation
  ASSERT_EQ(first.size(), 3u);
  double sum = 0.0;
  for (double v : first) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ClusterPofSurface, QuantizationSnapsNearbyQueries) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 1;
  cc.quantum_fc = 0.01;
  ClusterPofSurface surf(design, cc);
  std::vector<double> a, b;
  surf.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a);
  surf.flip_count_distribution(kVdd, false, two_cell_query(0.201, 0.049), b);
  EXPECT_EQ(surf.size(), 1u);  // same quantized key
  EXPECT_EQ(a, b);
}

TEST(ClusterPofSurface, ShareFractionCouplesAdjacentCells) {
  const CellDesign design;
  // Cell A super-critical, cell B sub-critical on its own. Without sharing
  // exactly one cell flips; with a large share fraction B also collects
  // 0.45 * 0.4 = 0.18 fC > Qcrit and the nominal outcome is a double flip.
  ClusterConfig off;
  off.mode = ClusterMode::k2x2;
  off.share_fraction = 0.0;
  off.pv_samples = 1;
  ClusterPofSurface surf_off(design, off);
  std::vector<double> d_off;
  surf_off.flip_count_distribution(kVdd, false, two_cell_query(kSuperFc, kSubFc),
                                   d_off);
  EXPECT_DOUBLE_EQ(d_off[1], 1.0);

  ClusterConfig on = off;
  on.share_fraction = 0.45;
  ClusterPofSurface surf_on(design, on);
  std::vector<double> d_on;
  surf_on.flip_count_distribution(kVdd, false, two_cell_query(kSuperFc, kSubFc),
                                  d_on);
  EXPECT_DOUBLE_EQ(d_on[2], 1.0);
}

TEST(ClusterPofSurface, EncodeDecodeMergeRoundTrips) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 2;
  ClusterPofSurface source(design, cc);
  std::vector<double> a, b;
  source.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a);
  source.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.15), b);
  EXPECT_EQ(source.size(), 2u);
  const auto blob = source.encode();

  ClusterPofSurface fresh(design, cc);
  EXPECT_EQ(fresh.decode_merge(blob), 2u);
  EXPECT_EQ(fresh.size(), 2u);
  // Preloaded entries answer queries without any new simulation, with the
  // exact cached values.
  std::vector<double> a2, b2;
  fresh.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), a2);
  fresh.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.15), b2);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  // Merging again absorbs nothing (first-in wins).
  EXPECT_EQ(fresh.decode_merge(blob), 0u);

  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 3);
  ClusterPofSurface victim(design, cc);
  EXPECT_THROW(victim.decode_merge(truncated), util::Error);
}

/// One cluster_surface entry in the codec's byte layout.
void put_entry(util::ByteWriter& w, const std::vector<std::int64_t>& key,
               const std::vector<double>& dist) {
  w.u64(key.size());
  for (const std::int64_t v : key) w.u64(static_cast<std::uint64_t>(v));
  w.f64_vec(dist);
}

TEST(ClusterPofSurface, DecodeRejectsWholePayloadOnAnyMalformedEntry) {
  // Key layout: {µV, with_pv, n, then (local, i1, i2, i3) per struck cell}.
  // Each blob holds one well-formed 2-cell entry, then one bad entry; the
  // surface must absorb neither.
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  const std::vector<std::int64_t> good = {800000, 0, 2, 0, 40, 0, 0, 1, 10, 0, 0};
  const std::vector<double> good_dist = {0.0, 1.0, 0.0};
  struct Case {
    const char* what;
    std::vector<std::int64_t> key;
    std::vector<double> dist;
  };
  const std::vector<Case> cases = {
      {"2-cell key with a 1-bin distribution",
       {800000, 1, 2, 0, 40, 0, 0, 1, 10, 0, 0}, {1.0}},
      {"key length disagrees with its cell count",
       {800000, 0, 2, 0, 40, 0, 0}, {1.0, 0.0, 0.0}},
      {"more cells than the tile holds",
       {800000, 0, 5, 0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 1, 0, 0},
       {1.0, 0.0, 0.0, 0.0, 0.0, 0.0}},
      {"zero cells", {800000, 0, 0}, {1.0}},
      {"PV flag outside {0, 1}", {800000, 2, 1, 0, 40, 0, 0}, {0.0, 1.0}},
      {"local index outside the tile", {800000, 0, 1, 4, 40, 0, 0}, {0.0, 1.0}},
      {"local indices not ascending",
       {800000, 0, 2, 1, 40, 0, 0, 0, 10, 0, 0}, {0.0, 1.0, 0.0}},
      {"probability above 1", {800000, 0, 1, 0, 40, 0, 0}, {-0.5, 1.5}},
      {"NaN probability",
       {800000, 0, 1, 0, 40, 0, 0}, {std::nan(""), 1.0}},
  };
  for (const Case& c : cases) {
    util::ByteWriter w;
    w.u64(2);
    put_entry(w, good, good_dist);
    put_entry(w, c.key, c.dist);
    ClusterPofSurface surf(design, cc);
    EXPECT_THROW(surf.decode_merge(w.take()), util::Error) << c.what;
    EXPECT_EQ(surf.size(), 0u) << c.what;
  }
  // Trailing bytes after the last entry are malformed too.
  util::ByteWriter trailing;
  trailing.u64(1);
  put_entry(trailing, good, good_dist);
  trailing.u64(0);
  ClusterPofSurface surf(design, cc);
  EXPECT_THROW(surf.decode_merge(trailing.take()), util::Error);
  EXPECT_EQ(surf.size(), 0u);
  // The well-formed entry alone is absorbed.
  util::ByteWriter ok;
  ok.u64(1);
  put_entry(ok, good, good_dist);
  EXPECT_EQ(surf.decode_merge(ok.take()), 1u);
}

TEST(ClusterPofSurface, ConcurrentQueriesOfOneKeySimulateItOnce) {
  // Eight threads released together onto one cold key: one query misses and
  // simulates it, the other seven wait for that entry and read it as hits.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 5;
  ClusterPofSurface surf(design, cc);
  constexpr std::size_t kThreads = 8;
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::vector<double>> outs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      surf.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.12),
                                   outs[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("sram.cluster.surface_miss").total(), 1u);
  EXPECT_EQ(reg.counter("sram.cluster.surface_hit").total(), kThreads - 1);
  EXPECT_EQ(reg.counter("sram.cluster.sims").total(), cc.pv_samples);
  obs::set_enabled(false);
  obs::Registry::global().reset();

  EXPECT_EQ(surf.size(), 1u);
  ClusterPofSurface serial(design, cc);
  std::vector<double> ref;
  serial.flip_count_distribution(kVdd, true, two_cell_query(0.15, 0.12), ref);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outs[t], ref) << "thread " << t;  // bitwise
  }
}

TEST(ClusterPofSurface, FailedEvaluationReleasesItsKey) {
  // A miss that throws (here the simulator rejects a non-positive supply)
  // leaves no entry and no key in flight: the next query of the same key
  // recomputes it, and throws again, instead of waiting forever.
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  cc.pv_samples = 1;
  ClusterPofSurface surf(design, cc);
  std::vector<double> out;
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW(surf.flip_count_distribution(-kVdd, false,
                                              two_cell_query(0.2, 0.05), out),
                 util::Error);
  }
  EXPECT_EQ(surf.size(), 0u);
  surf.flip_count_distribution(kVdd, false, two_cell_query(0.2, 0.05), out);
  EXPECT_EQ(surf.size(), 1u);
}

TEST(ClusterPofSurface, RejectsMalformedQueries) {
  const CellDesign design;
  ClusterConfig cc;
  cc.mode = ClusterMode::k2x2;
  ClusterPofSurface surf(design, cc);
  std::vector<double> out;
  std::vector<ClusterPofSurface::CellCharge> unsorted(2);
  unsorted[0].local = 2;
  unsorted[1].local = 1;
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, unsorted, out),
               util::Error);
  std::vector<ClusterPofSurface::CellCharge> oob(1);
  oob[0].local = 4;  // 2x2 tile has locals 0..3
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, oob, out),
               util::Error);
  EXPECT_THROW(surf.flip_count_distribution(kVdd, false, {}, out),
               util::Error);
}

TEST(ClusterPofSurface, FingerprintSeparatesConfigs) {
  const CellDesign design;
  ClusterConfig a;
  a.mode = ClusterMode::k2x2;
  ClusterConfig b = a;
  b.share_fraction = 0.2;
  ClusterConfig c = a;
  c.mode = ClusterMode::k1x4;
  const ClusterPofSurface sa(design, a), sb(design, b), sc(design, c);
  EXPECT_NE(sa.fingerprint(1), sb.fingerprint(1));
  EXPECT_NE(sa.fingerprint(1), sc.fingerprint(1));
  EXPECT_NE(sa.fingerprint(1), sa.fingerprint(2));
  EXPECT_EQ(sa.fingerprint(7), ClusterPofSurface(design, a).fingerprint(7));
}

}  // namespace
}  // namespace finser::sram

// --- cluster-aware array engine ---------------------------------------------

namespace finser::core {
namespace {

using sram::ArrayLayout;
using sram::CellGeometry;
using sram::CellSoftErrorModel;
using sram::PofTable;

/// Same synthetic cell model as test_core_array_mc.cpp: threshold LUTs, no
/// SPICE on the per-cell path (the cluster path runs the real simulator).
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
  std::vector<double> v2(9, 1.0);
  v2[0] = 0.0;
  for (int p = 0; p < 3; ++p) {
    t.pairs_pv[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
    t.pairs_nominal[static_cast<std::size_t>(p)] = util::Grid2(axis, axis, v2);
  }
  std::vector<double> v3(27, 1.0);
  v3[0] = 0.0;
  t.triple_pv = util::Grid3(axis, axis, axis, v3);
  t.triple_nominal = util::Grid3(axis, axis, axis, v3);
  CellSoftErrorModel m;
  m.tables.push_back(std::move(t));
  return m;
}

/// A near-grazing beam in cluster \p mode. The caller adds a surface built
/// for the config's cluster block; a fresh one per engine starts with an
/// empty memo, so its run simulates every key it needs.
ArrayMcConfig grazing_config(std::size_t strikes, sram::ClusterMode mode) {
  ArrayMcConfig cfg;
  cfg.strikes = strikes;
  cfg.angular = SourceAngularLaw::kBeam;
  const double tilt = 88.0 * std::numbers::pi / 180.0;
  cfg.beam_direction = {std::sin(tilt), 0.05, -std::cos(tilt)};
  cfg.cluster.mode = mode;
  cfg.cluster.pv_samples = 2;
  return cfg;
}

TEST(ClusterEngine, OneByOneIsByteIdenticalToDefaultAtAnyThreadCount) {
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig base;
  base.strikes = 2000;
  ArrayMc reference(layout, model, base);
  const auto ref =
      encode_result(reference.run(phys::Species::kAlpha, 1.0, 11));
  for (std::size_t threads : {1, 4}) {
    ArrayMcConfig cfg = base;
    cfg.threads = threads;
    cfg.cluster.mode = sram::ClusterMode::k1x1;  // explicit default
    ArrayMc mc(layout, model, cfg);
    const auto got = encode_result(mc.run(phys::Species::kAlpha, 1.0, 11));
    EXPECT_EQ(ref, got) << "threads=" << threads;
  }
}

TEST(ClusterEngine, CorrelatedRunIsThreadAndLaneInvariant) {
  // Odd-sized (3x3) array under 2x2 tiles: ragged border tiles, grazing
  // tracks spanning several tiles. The per-cell path uses the synthetic
  // LUT; multi-cell tiles run the real joint simulator from the design.
  // Small chunks spread the strikes over the workers, so the multi-thread
  // runs query the surface — and simulate its misses — concurrently.
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  const auto run_with = [&](std::size_t threads, std::size_t lanes) {
    const std::size_t restore = spice::lane_width();
    spice::set_lane_width(lanes);
    ArrayMcConfig cfg = grazing_config(300, sram::ClusterMode::k2x2);
    cfg.chunk = 32;
    cfg.threads = threads;
    sram::ClusterPofSurface surface(design, cfg.cluster);
    cfg.cluster_surface = &surface;
    ArrayMc mc(layout, model, cfg);
    const auto blob = encode_result(mc.run(phys::Species::kAlpha, 1.0, 12));
    spice::set_lane_width(restore);
    return blob;
  };
  const auto ref = run_with(1, 1);
  EXPECT_EQ(ref, run_with(4, 1)) << "thread count changed the result";
  EXPECT_EQ(ref, run_with(2, 4)) << "lane width changed the result";
}

TEST(ClusterEngine, MetricsAreThreadInvariant) {
  // Multi-chunk 2x2 grazing run at 1 and 4 threads: every counter and
  // histogram must match. Each surface miss builds a simulator of its own,
  // so compiles, pivot reuse and DC hold reuse depend on the missed key
  // alone, never on which thread ran it or what it ran before.
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  const auto metrics_at = [&](std::size_t threads) {
    obs::Registry::global().reset();
    ArrayMcConfig cfg = grazing_config(300, sram::ClusterMode::k2x2);
    cfg.chunk = 32;
    cfg.threads = threads;
    sram::ClusterPofSurface surface(design, cfg.cluster);
    cfg.cluster_surface = &surface;
    ArrayMc mc(layout, model, cfg);
    (void)mc.run(phys::Species::kAlpha, 1.0, 14);
    return obs::metrics_json(obs::Registry::global().snapshot()).dump(2);
  };
  obs::set_enabled(true);
  const std::string serial = metrics_at(1);
  const std::string parallel = metrics_at(4);
  obs::set_enabled(false);
  obs::Registry::global().reset();
  EXPECT_EQ(serial, parallel);
  // The fixture misses the surface many times over ten chunks, so the
  // 4-thread run simulates misses on several threads at once.
  const util::JsonValue counters =
      util::JsonValue::parse(serial).at("counters");
  EXPECT_GT(counters.at("sram.cluster.surface_miss").as_uint(), 8u);
  EXPECT_GT(counters.at("spice.mna.pivot_reuse").as_uint(), 0u);
}

TEST(ClusterEngine, SharedSurfaceReusesMemoAcrossRuns) {
  const sram::CellDesign design;
  const ArrayLayout layout(3, 3, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig cfg = grazing_config(200, sram::ClusterMode::k2x2);
  sram::ClusterPofSurface surface(design, cfg.cluster);
  cfg.cluster_surface = &surface;
  ArrayMc mc(layout, model, cfg);
  const auto first = encode_result(mc.run(phys::Species::kAlpha, 1.0, 13));
  const std::size_t entries = surface.size();
  EXPECT_GT(entries, 0u);  // the grazing fixture produced joint tiles
  // Second engine sharing the surface: pure memo hits, identical bytes.
  ArrayMc mc2(layout, model, cfg);
  const auto second = encode_result(mc2.run(phys::Species::kAlpha, 1.0, 13));
  EXPECT_EQ(first, second);
  EXPECT_EQ(surface.size(), entries);
}

/// Cluster mode prices tiles on a surface simulated from the cell design;
/// the engine takes no design of its own, so a config without a surface is
/// rejected.
TEST(ClusterEngine, ClusterModeNeedsDesign) {
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig cfg;
  cfg.cluster.mode = sram::ClusterMode::k2x2;
  EXPECT_THROW(ArrayMc(layout, model, cfg), util::InvalidArgument);
}

/// A shared surface must be built for the config's whole cluster block:
/// point_fingerprint hashes the config's knobs, so a surface simulated with
/// another share_fraction (or PV sample count, or key quantum) would store
/// `array_bin` artifacts under an identity their numbers do not have.
TEST(ClusterEngine, RejectsSurfaceOfAnotherConfig) {
  const sram::CellDesign design;
  const ArrayLayout layout(2, 2, CellGeometry{});
  const CellSoftErrorModel model = synthetic_model(0.8, 0.05);
  ArrayMcConfig cfg = grazing_config(100, sram::ClusterMode::k2x2);
  ASSERT_EQ(cfg.cluster.share_fraction, 0.12);
  sram::ClusterConfig other = cfg.cluster;
  other.share_fraction = 0.3;
  sram::ClusterPofSurface surface(design, other);
  cfg.cluster_surface = &surface;
  EXPECT_THROW(ArrayMc(layout, model, cfg), util::InvalidArgument);

  using Edit = std::function<void(sram::ClusterConfig&)>;
  for (const Edit& edit : std::vector<Edit>{
           [](sram::ClusterConfig& c) { c.mode = sram::ClusterMode::k1x4; },
           [](sram::ClusterConfig& c) { c.pv_samples = 3; },
           [](sram::ClusterConfig& c) { c.quantum_fc = 0.01; }}) {
    sram::ClusterConfig mismatched = cfg.cluster;
    edit(mismatched);
    sram::ClusterPofSurface wrong(design, mismatched);
    cfg.cluster_surface = &wrong;
    EXPECT_THROW(ArrayMc(layout, model, cfg), util::InvalidArgument);
  }
  sram::ClusterPofSurface matching(design, cfg.cluster);
  cfg.cluster_surface = &matching;
  EXPECT_NO_THROW(ArrayMc(layout, model, cfg));
}

}  // namespace
}  // namespace finser::core
