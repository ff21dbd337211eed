#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "finser/logic/set_chain.hpp"
#include "finser/util/error.hpp"
#include "spice_reference.hpp"

namespace finser::logic {
namespace {

TEST(SetChain, NoChargeNoGlitch) {
  SetChainSimulator sim(ChainDesign{}, 0.8);
  const auto out = sim.inject(0.0);
  EXPECT_FALSE(out.propagated);
  EXPECT_DOUBLE_EQ(out.width_out_s, 0.0);
  EXPECT_LT(out.peak_excursion_v, 0.05);
}

TEST(SetChain, LargeChargePropagates) {
  SetChainSimulator sim(ChainDesign{}, 0.8);
  const auto out = sim.inject(0.5);
  EXPECT_TRUE(out.propagated);
  EXPECT_GT(out.width_out_s, 1e-13);
  EXPECT_GT(out.peak_excursion_v, 0.4);
}

TEST(SetChain, CriticalChargeBracketsPropagation) {
  SetChainSimulator sim(ChainDesign{}, 0.8);
  const double qc = sim.critical_charge_fc(1.0, 5e-4);
  ASSERT_LT(qc, 1e29);
  EXPECT_TRUE(sim.inject(qc + 1e-3).propagated);
  EXPECT_FALSE(sim.inject(qc - 2e-3).propagated);
}

TEST(SetChain, GlitchWidthGrowsWithCharge) {
  SetChainSimulator sim(ChainDesign{}, 0.8);
  const double qc = sim.critical_charge_fc();
  double prev = 0.0;
  for (double scale : {1.2, 2.0, 3.0, 5.0}) {
    const auto out = sim.inject(scale * qc);
    ASSERT_TRUE(out.propagated) << scale;
    EXPECT_GE(out.width_out_s, prev - 1e-13) << scale;
    prev = out.width_out_s;
  }
}

TEST(SetChain, ElectricalMaskingRaisesQcritWithDepth) {
  // Narrow glitches attenuate stage by stage ([15]'s electrical masking):
  // a longer chain needs more injected charge to disturb its output.
  double prev = 0.0;
  for (std::size_t stages : {2u, 4u, 8u, 16u}) {
    ChainDesign d;
    d.stages = stages;
    SetChainSimulator sim(d, 0.8);
    const double qc = sim.critical_charge_fc();
    EXPECT_GT(qc, prev) << stages;
    prev = qc;
  }
}

TEST(SetChain, QcritGrowsWithVdd) {
  double prev = 0.0;
  for (double vdd : {0.7, 0.9, 1.1}) {
    SetChainSimulator sim(ChainDesign{}, vdd);
    const double qc = sim.critical_charge_fc();
    EXPECT_GT(qc, prev) << vdd;
    prev = qc;
  }
}

TEST(SetChain, HeavierLoadRaisesQcrit) {
  ChainDesign light;
  ChainDesign heavy;
  heavy.cload_f = 4.0 * light.cload_f;
  SetChainSimulator sim_l(light, 0.8);
  SetChainSimulator sim_h(heavy, 0.8);
  EXPECT_GT(sim_h.critical_charge_fc(), sim_l.critical_charge_fc());
}

TEST(SetChain, NeverPropagatesReturnsSentinel) {
  SetChainSimulator sim(ChainDesign{}, 0.8);
  EXPECT_GT(sim.critical_charge_fc(1e-4, 1e-5), 1e29);  // Ceiling too low.
}

TEST(SetChain, RejectsBadInputs) {
  EXPECT_THROW(SetChainSimulator(ChainDesign{}, 0.0), util::InvalidArgument);
  ChainDesign d;
  d.stages = 0;
  EXPECT_THROW(SetChainSimulator(d, 0.8), util::InvalidArgument);
  SetChainSimulator sim(ChainDesign{}, 0.8);
  EXPECT_THROW(sim.inject(-1.0), util::InvalidArgument);
  EXPECT_THROW(sim.critical_charge_fc(0.0), util::InvalidArgument);
}

// inject() runs on the compiled engine; replaying each injection on the
// chain's own netlist through the interpreted reference engine must give
// the same output waveform bit for bit, and the outcome inject() reports
// must be the one that waveform defines.
TEST(SetChain, CompiledMatchesReferenceEngine) {
  const auto node_name = [](std::size_t s) {
    std::string name = "n";
    name += std::to_string(s);
    return name;
  };
  for (std::size_t stages : {2u, 7u}) {
    ChainDesign d;
    d.stages = stages;
    SetChainSimulator sim(d, 0.8);
    const double qc = sim.critical_charge_fc();
    ASSERT_LT(qc, 1e29) << stages;
    const spice::Circuit& c = sim.circuit();
    std::vector<double> guess(c.unknown_count(), 0.0);
    guess[c.find_node("vdd")] = sim.vdd();
    for (std::size_t s = 0; s <= stages; ++s) {
      guess[c.find_node(node_name(s))] = s % 2 == 0 ? sim.vdd() : 0.0;
    }
    const std::string out = node_name(stages);

    for (double scale : {0.5, 0.9, 1.1, 2.0}) {
      const SetOutcome got = sim.inject(scale * qc);
      const std::vector<double> x0 = spice::solve_dc(c, guess);
      const spice::Waveform want =
          spice::run_transient(c, x0, sim.transient_options(), {out});
      const spice::Waveform& have = sim.last_output();
      ASSERT_EQ(have.sample_count(), want.sample_count())
          << stages << " stages, " << scale << " Qcrit";
      for (std::size_t i = 0; i < want.sample_count(); ++i) {
        ASSERT_EQ(have.times()[i], want.times()[i]) << "sample " << i;
        ASSERT_EQ(have.value(0, i), want.value(0, i)) << "sample " << i;
      }

      // The outcome of the reference waveform, by inject()'s definition.
      const double vdd = sim.vdd();
      const bool high = x0[c.find_node(out)] > 0.5 * vdd;
      const double quiescent = high ? vdd : 0.0;
      double peak = 0.0;
      double t_first = -1.0;
      double t_last = -1.0;
      for (std::size_t i = 0; i < want.sample_count(); ++i) {
        const double v = want.value(0, i);
        peak = std::max(peak, std::abs(v - quiescent));
        if (high ? v < 0.5 * vdd : v > 0.5 * vdd) {
          if (t_first < 0.0) t_first = want.times()[i];
          t_last = want.times()[i];
        }
      }
      EXPECT_EQ(got.propagated, scale > 1.0) << stages << " stages";
      EXPECT_EQ(got.propagated, t_first >= 0.0);
      EXPECT_EQ(got.width_out_s,
                got.propagated ? std::max(t_last - t_first, 0.0) : 0.0);
      EXPECT_EQ(got.peak_excursion_v, peak);
    }
  }
}

TEST(LatchWindow, CaptureProbability) {
  EXPECT_DOUBLE_EQ(latch_capture_probability(0.0, 1e-9, 10e-12), 0.0);
  // 20 ps pulse + 10 ps window over a 1 ns period: 3 %.
  EXPECT_NEAR(latch_capture_probability(20e-12, 1e-9, 10e-12), 0.03, 1e-12);
  // Pulse longer than the period: always captured.
  EXPECT_DOUBLE_EQ(latch_capture_probability(2e-9, 1e-9, 10e-12), 1.0);
  EXPECT_THROW(latch_capture_probability(1e-12, 0.0, 0.0), util::InvalidArgument);
}

TEST(LatchWindow, FasterClockCapturesMore) {
  const double w = 5e-12;
  EXPECT_GT(latch_capture_probability(w, 0.5e-9, 5e-12),
            latch_capture_probability(w, 2e-9, 5e-12));
}

}  // namespace
}  // namespace finser::logic
