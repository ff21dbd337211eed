#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/transient.hpp"
#include "finser/sram/cell.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"
#include "spice_reference.hpp"

namespace finser::sram {
namespace {

// ---------------------------------------------------------------------------
// Hold state
// ---------------------------------------------------------------------------

TEST(SramCell, HoldStateIsFullSwing) {
  for (double vdd : {0.7, 0.9, 1.1}) {
    StrikeSimulator sim(CellDesign{}, vdd);
    const auto hs = sim.hold_state();
    EXPECT_NEAR(hs[0], vdd, 0.02) << vdd;   // Q at the rail.
    EXPECT_NEAR(hs[1], 0.0, 0.02) << vdd;   // QB at ground.
  }
}

TEST(SramCell, HoldStateSurvivesThresholdVariation) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  DeltaVt dvt{0.05, -0.05, 0.03, -0.04, 0.05, -0.02};
  const auto hs = sim.hold_state(dvt);
  EXPECT_GT(hs[0], 0.7);
  EXPECT_LT(hs[1], 0.1);
}

TEST(SramCell, NoStrikeNoFlip) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const auto out = sim.simulate(StrikeCharges{});
  EXPECT_FALSE(out.flipped);
  EXPECT_NEAR(out.final_q_v, 0.8, 0.02);
  EXPECT_NEAR(out.final_qb_v, 0.0, 0.02);
}

TEST(SramCell, RejectsNonPositiveVdd) {
  EXPECT_THROW(StrikeSimulator(CellDesign{}, 0.0), util::InvalidArgument);
  EXPECT_THROW(StrikeSimulator(CellDesign{}, -0.8), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Strike response
// ---------------------------------------------------------------------------

TEST(SramCell, LargeChargeFlipsThroughEachCurrent) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  EXPECT_TRUE(sim.simulate(StrikeCharges{1.0, 0.0, 0.0}).flipped);
  EXPECT_TRUE(sim.simulate(StrikeCharges{0.0, 1.0, 0.0}).flipped);
  EXPECT_TRUE(sim.simulate(StrikeCharges{0.0, 0.0, 1.0}).flipped);
}

TEST(SramCell, TinyChargeDoesNotFlip) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  EXPECT_FALSE(sim.simulate(StrikeCharges{0.001, 0.0, 0.0}).flipped);
  EXPECT_FALSE(sim.simulate(StrikeCharges{0.0, 0.001, 0.0}).flipped);
  EXPECT_FALSE(sim.simulate(StrikeCharges{0.0, 0.0, 0.001}).flipped);
}

TEST(SramCell, FlippedStateIsComplementary) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const auto out = sim.simulate(StrikeCharges{1.0, 0.0, 0.0});
  ASSERT_TRUE(out.flipped);
  EXPECT_LT(out.final_q_v, 0.05);
  EXPECT_GT(out.final_qb_v, 0.75);
}

TEST(SramCell, CombinedCurrentsAreAtLeastAsEffective) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  const double q = 0.2;
  EXPECT_TRUE(sim.simulate(StrikeCharges{q, 0.0, 0.0}).flipped);
  EXPECT_TRUE(sim.simulate(StrikeCharges{q, q, 0.0}).flipped);
  EXPECT_TRUE(sim.simulate(StrikeCharges{q, q, q}).flipped);
}

TEST(SramCell, WeakerCellFlipsMoreEasily) {
  StrikeSimulator sim(CellDesign{}, 0.8);
  // Find a charge that does NOT flip the nominal cell.
  double q = 0.2;
  while (sim.simulate(StrikeCharges{q, 0.0, 0.0}).flipped) q *= 0.8;
  // Strongly weaken the restoring devices.
  DeltaVt weak{};
  weak[static_cast<std::size_t>(Role::kPuL)] = 0.25;
  weak[static_cast<std::size_t>(Role::kPdR)] = 0.25;
  // Somewhere in the window above the nominal non-flip charge, the weak
  // cell must flip while the nominal one does not.
  bool separated = false;
  for (double scale = 1.0; scale <= 1.35; scale += 0.05) {
    const StrikeCharges c{q * scale, 0.0, 0.0};
    if (sim.simulate(c, weak).flipped && !sim.simulate(c).flipped) {
      separated = true;
    }
  }
  EXPECT_TRUE(separated);
}

TEST(SramCell, PulseShapeInsensitivityPaperClaim) {
  // Paper Sec. 4: POF depends on delivered charge, not pulse shape/width.
  StrikeSimulator sim(CellDesign{}, 0.8);
  for (double q : {0.05, 0.1, 0.2, 0.4}) {
    const bool rect = sim.simulate(StrikeCharges{q, 0.0, 0.0}, DeltaVt{},
                                   spice::PulseShape::Kind::kRectangular)
                          .flipped;
    const bool tri = sim.simulate(StrikeCharges{q, 0.0, 0.0}, DeltaVt{},
                                  spice::PulseShape::Kind::kTriangular)
                         .flipped;
    EXPECT_EQ(rect, tri) << "q = " << q;
  }
}

// Monotonicity sweep: once the cell flips at q, it flips at every q' > q.
class StrikeMonotone : public ::testing::TestWithParam<double> {};

TEST_P(StrikeMonotone, FlipIsMonotoneInCharge) {
  StrikeSimulator sim(CellDesign{}, GetParam());
  bool flipped_before = false;
  for (double q = 0.02; q <= 0.42; q += 0.04) {
    const bool f = sim.simulate(StrikeCharges{q, 0.0, 0.0}).flipped;
    if (flipped_before) {
      EXPECT_TRUE(f) << "q = " << q << " vdd = " << GetParam();
    }
    flipped_before = flipped_before || f;
  }
  EXPECT_TRUE(flipped_before);  // 0.42 fC must flip at any studied Vdd.
}

INSTANTIATE_TEST_SUITE_P(VddSweep, StrikeMonotone,
                         ::testing::Values(0.7, 0.8, 0.9, 1.0, 1.1));

TEST(SramCell, HotterCellFlipsMoreEasily) {
  // Temperature extension: at high junction temperature the restoring drive
  // weakens (mobility) and |Vt| drops, so the critical charge falls.
  CellDesign cold;
  cold.temp_k = 233.15;
  CellDesign hot;
  hot.temp_k = 398.15;
  auto qcrit = [](const CellDesign& d) {
    StrikeSimulator sim(d, 0.8);
    double lo = 0.0, hi = 0.5;
    for (int i = 0; i < 18; ++i) {
      const double mid = 0.5 * (lo + hi);
      (sim.simulate(StrikeCharges{mid, 0.0, 0.0}).flipped ? hi : lo) = mid;
    }
    return hi;
  };
  EXPECT_LT(qcrit(hot), qcrit(cold));
}

// Critical charge rises with Vdd (paper conclusion 1: SER higher at low Vdd).
TEST(SramCell, HigherVddNeedsMoreCharge) {
  double prev_flip_q = 0.0;
  for (double vdd : {0.7, 0.9, 1.1}) {
    StrikeSimulator sim(CellDesign{}, vdd);
    double lo = 0.0, hi = 0.5;
    for (int i = 0; i < 20; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (sim.simulate(StrikeCharges{mid, 0.0, 0.0}).flipped) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    EXPECT_GT(hi, prev_flip_q) << vdd;
    prev_flip_q = hi;
  }
}

// ---------------------------------------------------------------------------
// Latch stop (retention): the verdict must be the full window's
// ---------------------------------------------------------------------------

/// The interpreted engine replaying the sample \p sim simulated last, from
/// the same hold state: once with the simulator's own options (latch
/// included) and once over the whole window without the latch.
struct Replay {
  spice::Waveform latched;
  spice::Waveform full;
};

Replay replay(const StrikeSimulator& sim) {
  const spice::Circuit& c = sim.circuit();
  std::vector<double> guess(c.unknown_count(), 0.0);
  for (const char* node : {"q", "vdd", "bl", "blb"}) {
    guess[c.find_node(node)] = sim.vdd();
  }
  const std::vector<double> x0 = spice::solve_dc(c, guess);
  spice::TransientOptions full = sim.transient_options();
  full.latch.reset();
  return {spice::run_transient(c, x0, sim.transient_options(), {"q", "qb"}),
          spice::run_transient(c, x0, full, {"q", "qb"})};
}

bool flipped(const spice::Waveform& w, double vdd) {
  return w.final_value(0) < 0.5 * vdd && w.final_value(1) > 0.5 * vdd;
}

/// Trailing edge of the strike pulses \p sim simulated last.
double pulse_end(const StrikeSimulator& sim) {
  double end = 0.0;
  for (const auto& dev : sim.circuit().devices()) {
    if (const auto* src = dynamic_cast<const spice::PulseISource*>(dev.get())) {
      end = std::max(end, src->shape().delay_s + src->shape().width_s);
    }
  }
  return end;
}

/// Latch stops and the largest steps_per_run of the runs \p body performs.
template <class Body>
std::pair<std::uint64_t, std::uint64_t> latch_stops_of(Body&& body) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  obs::set_enabled(true);
  body();
  obs::set_enabled(false);
  const std::pair<std::uint64_t, std::uint64_t> got{
      reg.counter("spice.tran.latch_stops").total(),
      reg.int_histogram("spice.tran.steps_per_run").max()};
  reg.reset();
  return got;
}

// The soundness evidence for the latch stop. Near Qcrit the cell regenerates
// slowest, so that is where stopping early could misjudge a strike: for 6T
// and 8T cells, rectangular and triangular pulses, Vdd 0.7/0.9/1.1 V and
// ΔVt drawn at 1σ and 3σ, charges straddling each sample's Qcrit (along I1
// alone and along I1 = I2 = I3) must get the verdict of the interpreted
// engine integrating the whole 50 ps window without the latch.
TEST(LatchStop, VerdictMatchesFullWindowAroundQcrit) {
  using Kind = spice::PulseShape::Kind;
  stats::Rng rng(20140601);
  int cases = 0, flips = 0, early = 0, mismatches = 0, redrawn = 0;
  for (CellTopology topo : {CellTopology::k6T, CellTopology::k8T}) {
    CellDesign design;
    design.topology = topo;
    for (double vdd : {0.7, 0.9, 1.1}) {
      StrikeSimulator sim(design, vdd);
      for (double sigmas : {1.0, 3.0}) {
        for (Kind kind : {Kind::kRectangular, Kind::kTriangular}) {
          for (int draw = 0; draw < 2; ++draw) {
            // A 3σ draw can leave the cell without a hold state (its DC
            // solve fails; characterization counts such samples as
            // failures), so draw until the cell holds its '1'.
            DeltaVt dvt{};
            for (bool holds = false; !holds;) {
              for (double& v : dvt) v = rng.normal(0.0, sigmas * design.sigma_vt);
              try {
                const auto hs = sim.hold_state(dvt);
                holds = hs[0] > 0.5 * vdd && hs[1] < 0.5 * vdd;
              } catch (const util::NumericalError&) {
              }
              redrawn += holds ? 0 : 1;
            }
            for (const double i23 : {0.0, 1.0}) {
              const auto at = [i23](double q) {
                return StrikeCharges{q, i23 * q, i23 * q};
              };
              // Qcrit in (lo, hi], bisected on the retention verdict.
              double lo = 0.0, hi = 2.0;
              ASSERT_FALSE(sim.simulate(at(lo), dvt, kind).flipped);
              ASSERT_TRUE(sim.simulate(at(hi), dvt, kind).flipped);
              for (int i = 0; i < 30; ++i) {
                const double mid = 0.5 * (lo + hi);
                (sim.simulate(at(mid), dvt, kind).flipped ? hi : lo) = mid;
              }
              for (double q : {0.9 * lo, 0.99 * lo, lo, hi, 1.01 * hi, 1.1 * hi}) {
                const StrikeOutcome out = sim.simulate(at(q), dvt, kind);
                const Replay r = replay(sim);
                ++cases;
                flips += out.flipped ? 1 : 0;
                early += r.latched.times().back() < r.full.times().back() ? 1 : 0;
                if (out.flipped != flipped(r.full, vdd)) {
                  ++mismatches;
                  ADD_FAILURE() << "verdict moved: topology "
                                << static_cast<int>(topo) << ", vdd " << vdd
                                << ", " << sigmas << " sigma, kind "
                                << static_cast<int>(kind) << ", q " << q;
                }
                // simulate() stopped where the interpreted loop stops.
                EXPECT_EQ(out.final_q_v, r.latched.final_value(0));
                EXPECT_EQ(out.final_qb_v, r.latched.final_value(1));
              }
            }
          }
        }
      }
    }
  }
  std::printf("[latch] %d strikes straddling Qcrit: %d flips, %d stopped "
              "early, %d verdicts moved (%d ΔVt draws without a hold state "
              "redrawn)\n",
              cases, flips, early, mismatches, redrawn);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(flips, cases / 2);          // Each ladder straddles Qcrit.
  EXPECT_GT(early, cases * 9 / 10);     // The rule fires, not vacuous.
}

// Trap 1: before the pulse the cell sits in its hold state, which is inside
// the band. A rule armed at a fixed time would stop there and call every
// strike harmless; armed at the sources' last edge, it waits for the pulse.
// A source still on at t_end (here a pulse stretched past the window) never
// arms it.
TEST(LatchStop, HoldStateBeforeThePulseDoesNotStop) {
  constexpr double kVdd = 0.8;
  StrikeSimulator sim(CellDesign{}, kVdd);
  const spice::TransientOptions& opt = sim.transient_options();
  ASSERT_TRUE(opt.latch.has_value());

  const StrikeOutcome out = sim.simulate(StrikeCharges{1.0, 0.0, 0.0});
  const Replay r = replay(sim);
  const std::vector<double>& t = r.latched.times();
  ASSERT_GT(t.size(), 2u);
  EXPECT_LT(t[1], pulse_end(sim));
  EXPECT_TRUE(opt.latch->holds(r.latched.value(0, 1), r.latched.value(1, 1)));
  EXPECT_GT(t.back(), pulse_end(sim));
  EXPECT_LT(t.back(), opt.t_end);
  EXPECT_TRUE(out.flipped);
  EXPECT_TRUE(flipped(r.full, kVdd));

  sim.set_pulse_width_scale(1e5);
  const auto stops = latch_stops_of(
      [&] { EXPECT_FALSE(sim.simulate(StrikeCharges{}).flipped); });
  ASSERT_GT(pulse_end(sim), opt.t_end);
  const Replay held = replay(sim);
  EXPECT_EQ(held.latched.times().back(), opt.t_end);
  EXPECT_EQ(stops.first, 0u);
  EXPECT_EQ(stops.second, held.full.sample_count() - 1);
}

// Trap 2: right after a large strike the struck nodes overshoot past their
// rails (here q dips below -1 V and qb rises above 2 V). A one-sided band,
// "q at most 2% of Vdd and qb at least Vdd less 2%", already holds there;
// the two-sided band waits until both nodes are back within 2% of a rail.
TEST(LatchStop, RailOvershootIsNotLatched) {
  constexpr double kVdd = 0.7;
  const double m = spice::kLatchMargin * kVdd;
  const spice::LatchStop band{0, 1, kVdd};
  EXPECT_TRUE(band.holds(kVdd, 0.0));
  EXPECT_TRUE(band.holds(0.0, kVdd));
  EXPECT_TRUE(band.holds(kVdd - 0.5 * m, 0.5 * m));
  EXPECT_TRUE(band.holds(-0.5 * m, kVdd + 0.5 * m));
  EXPECT_FALSE(band.holds(-0.9, kVdd));
  EXPECT_FALSE(band.holds(0.0, 2.0));
  EXPECT_FALSE(band.holds(kVdd + 2.0 * m, 0.0));
  EXPECT_FALSE(band.holds(0.5 * kVdd, 0.5 * kVdd));
  EXPECT_FALSE(band.holds(kVdd, kVdd));

  StrikeSimulator sim(CellDesign{}, kVdd);
  const StrikeOutcome out = sim.simulate(StrikeCharges{0.5, 0.0, 0.5});
  const Replay r = replay(sim);
  std::size_t one_sided = 0;  // First post-pulse sample a one-sided band takes.
  for (std::size_t i = 0; i < r.full.sample_count() && one_sided == 0; ++i) {
    if (r.full.times()[i] > pulse_end(sim) && r.full.value(0, i) <= m &&
        r.full.value(1, i) >= kVdd - m) {
      one_sided = i;
    }
  }
  ASSERT_GT(one_sided, 0u);
  const double q = r.full.value(0, one_sided);
  const double qb = r.full.value(1, one_sided);
  EXPECT_TRUE(q < -m || qb > kVdd + m) << q << " " << qb;
  EXPECT_FALSE(band.holds(q, qb));
  // The run goes on past the overshoot and stops inside the band.
  EXPECT_GT(r.latched.sample_count(), one_sided + 1);
  EXPECT_LT(r.latched.times().back(), sim.transient_options().t_end);
  EXPECT_TRUE(band.holds(out.final_q_v, out.final_qb_v));
  EXPECT_TRUE(out.flipped);
  EXPECT_TRUE(flipped(r.full, kVdd));
}

// Read mode keeps the whole window: with the wordline high the '0' node is
// held off its rail, and a read-mode transient can pass through the band and
// still recover. The same strike in retention stops early.
TEST(LatchStop, ReadModeRunsTheWholeWindow) {
  constexpr double kVdd = 0.8;
  const StrikeCharges strike{0.05, 0.0, 0.0};
  for (CellTopology topo : {CellTopology::k6T, CellTopology::k8T}) {
    CellDesign design;
    design.topology = topo;
    StrikeSimulator read(design, kVdd, AccessMode::kRead);
    EXPECT_FALSE(read.transient_options().latch.has_value());
    StrikeOutcome out;
    const auto stops = latch_stops_of([&] { out = read.simulate(strike); });
    const Replay r = replay(read);
    EXPECT_EQ(r.full.times().back(), read.transient_options().t_end);
    EXPECT_EQ(stops.first, 0u);
    EXPECT_EQ(stops.second, r.full.sample_count() - 1);
    EXPECT_EQ(out.final_q_v, r.full.final_value(0));
    EXPECT_EQ(out.final_qb_v, r.full.final_value(1));

    StrikeSimulator retention(design, kVdd);
    const auto ret_stops = latch_stops_of([&] { retention.simulate(strike); });
    EXPECT_EQ(ret_stops.first, 1u);
    EXPECT_LT(ret_stops.second, r.full.sample_count() - 1);
  }
}

}  // namespace
}  // namespace finser::sram
