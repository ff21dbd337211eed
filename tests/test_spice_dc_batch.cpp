/// \file test_spice_dc_batch.cpp
/// \brief The lane-batched DC solve against the one-lane solve and the oracle.
///
/// solve_dc_batch() runs W hold-state solves through one vectorized Newton
/// tick at a time, each lane with its own gmin continuation and retry
/// ladder. Per lane it must return what solve_dc() — its W = 1 case — and
/// the interpreted oracle return for the lane's binding, bit for bit: the
/// solution, the failure text and every per-lane counter. The sram layer
/// solves a grid task's ΔVt draws in one such batch, so a cold
/// characterization's DC counts are pinned here too.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"
#include "spice_reference.hpp"

namespace finser::spice {
namespace {

using sram::AccessMode;
using sram::CellDesign;
using sram::CellTopology;
using sram::DeltaVt;
using sram::StrikeSimulator;

/// The StrikeSimulator's hold guess: Q = 1 / QB = 0, supplies and bitlines
/// at their rails.
std::vector<double> hold_guess(const Circuit& c, double vdd) {
  std::vector<double> g(c.unknown_count(), 0.0);
  for (const char* node : {"q", "vdd", "bl", "blb"}) g[c.find_node(node)] = vdd;
  return g;
}

/// ΔVt draws uniform in ±4σ per transistor.
std::vector<DeltaVt> draws(stats::Rng& rng, std::size_t count, double sigma) {
  std::vector<DeltaVt> out(count);
  for (DeltaVt& d : out) {
    for (double& v : d) v = sigma * rng.uniform(-4.0, 4.0);
  }
  return out;
}

/// One solve's outcome: the solution bits or the failure text.
struct Solved {
  std::vector<double> x;
  std::string error;
};

/// Counters and the iterations histogram of the DC and LU work.
using Counts = std::map<std::string, std::uint64_t>;

Counts dc_counts() {
  Counts out;
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for (const auto& row : snap.counters) {
    const bool dc = row.name.rfind("spice.dc.", 0) == 0 ||
                    row.name.rfind("spice.mna.", 0) == 0;
    if (dc && row.name != "spice.dc.batch_ticks") out[row.name] = row.total;
  }
  for (const auto& row : snap.histograms) {
    if (row.name != "spice.dc.iters_per_stage") continue;
    out[row.name + ".count"] = row.count;
    out[row.name + ".sum"] = row.sum;
    out[row.name + ".min"] = row.min;
    out[row.name + ".max"] = row.max;
  }
  return out;
}

/// A cell whose devices tests rebind: a StrikeSimulator sets the shifts
/// (hold_state() applies them before it solves), a compiled circuit of its
/// netlist solves them.
struct Cell {
  Cell(CellTopology topology, AccessMode mode, double vdd)
      : sim(design(topology), vdd, mode),
        cc(sim.circuit()),
        guess(hold_guess(sim.circuit(), vdd)) {}

  static CellDesign design(CellTopology topology) {
    CellDesign d;
    d.topology = topology;
    return d;
  }

  /// Bind \p dvt into the devices and the compiled plan. The simulator's
  /// own solve is not counted.
  void bind(const DeltaVt& dvt) {
    const bool counting = obs::enabled();
    obs::set_enabled(false);
    try {
      sim.hold_state(dvt);
    } catch (const util::NumericalError&) {
      // A shift the cell cannot hold is still bound: the test solves it.
    }
    obs::set_enabled(counting);
    cc.rebind();
  }

  StrikeSimulator sim;
  CompiledCircuit cc;
  std::vector<double> guess;
};

/// Per lane: solve_dc() on the compiled circuit and the interpreted oracle.
/// The two must agree; returns the one-lane results and, in \p counts, the
/// DC and LU counters of the one-lane solves alone.
std::vector<Solved> solve_each(Cell& cell, const std::vector<DeltaVt>& dvts,
                               const DcOptions& opt, Counts& counts) {
  std::vector<Solved> out(dvts.size());
  obs::Registry::global().reset();
  SolveWorkspace ws;
  for (std::size_t k = 0; k < dvts.size(); ++k) {
    cell.bind(dvts[k]);
    try {
      out[k].x = solve_dc(cell.cc, ws, cell.guess, opt);
    } catch (const util::NumericalError& e) {
      out[k].error = e.what();
    }
  }
  counts = dc_counts();
  for (std::size_t k = 0; k < dvts.size(); ++k) {
    cell.bind(dvts[k]);
    Solved oracle;
    try {
      oracle.x = solve_dc(cell.sim.circuit(), cell.guess, opt);
    } catch (const util::NumericalError& e) {
      oracle.error = e.what();
    }
    EXPECT_EQ(oracle.error, out[k].error) << "oracle, draw " << k;
    EXPECT_EQ(oracle.x.size(), out[k].x.size()) << "oracle, draw " << k;
    for (std::size_t i = 0; i < oracle.x.size() && i < out[k].x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(oracle.x[i]),
                std::bit_cast<std::uint64_t>(out[k].x[i]))
          << "oracle, draw " << k << ", unknown " << i;
    }
  }
  return out;
}

/// solve_dc_batch() of \p dvts in groups of \p count lanes at width \p W
/// (count ≤ W: lanes past it ride masked) must match \p ref lane by lane,
/// bit for bit, and count what the one-lane solves counted.
void expect_batches_match(Cell& cell, const std::vector<DeltaVt>& dvts,
                          const DcOptions& opt, std::size_t width,
                          std::size_t count, const std::vector<Solved>& ref,
                          const Counts& ref_counts, const std::string& what) {
  obs::Registry::global().reset();
  SolveWorkspace ws;  // Reused across every group: a warm workspace.
  cell.cc.batch_configure(ws.lu, width);
  DcBatchResult res;
  for (std::size_t first = 0; first < dvts.size(); first += count) {
    const std::size_t group = std::min(count, dvts.size() - first);
    for (std::size_t k = 0; k < group; ++k) {
      cell.bind(dvts[first + k]);
      cell.cc.batch_rebind_lane(ws.lu, k);
    }
    solve_dc_batch(cell.cc, ws, group, cell.guess, res, opt);
    ASSERT_EQ(res.x.size(), group) << what;
    for (std::size_t k = 0; k < group; ++k) {
      const Solved& want = ref[first + k];
      const std::string where = what + ", width " + std::to_string(width) +
                                ", draw " + std::to_string(first + k);
      ASSERT_EQ(res.failed[k] != 0, !want.error.empty()) << where;
      EXPECT_EQ(res.errors[k], want.error) << where;
      ASSERT_EQ(res.x[k].size(), want.x.size()) << where;
      for (std::size_t i = 0; i < want.x.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(res.x[k][i]),
                  std::bit_cast<std::uint64_t>(want.x[i]))
            << where << ", unknown " << i;
      }
    }
  }
  EXPECT_EQ(dc_counts(), ref_counts) << what << ", width " << width;
}

struct LaneWidthGuard {
  explicit LaneWidthGuard(std::size_t w) { set_lane_width(w); }
  ~LaneWidthGuard() { set_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

struct ObsOn {
  ObsOn() {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  ~ObsOn() {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

/// Every width, full and ragged groups.
void expect_all_widths_match(Cell& cell, const std::vector<DeltaVt>& dvts,
                             const DcOptions& opt, const std::string& what) {
  Counts ref_counts;
  const std::vector<Solved> ref = solve_each(cell, dvts, opt, ref_counts);
  for (const std::size_t width : kLaneWidths) {
    expect_batches_match(cell, dvts, opt, width, width, ref, ref_counts, what);
    if (width > 1) {
      expect_batches_match(cell, dvts, opt, width, width - 1, ref, ref_counts,
                           what + " (ragged)");
    }
  }
}

// Random draws up to ±4σ on the 6T and 8T cells, in retention and read
// mode: every lane of every width equals solve_dc() and the oracle.
TEST(SpiceDcBatch, LanesMatchSolveDcAndOracle) {
  const ObsOn obs_on;
  stats::Rng rng(20260419);
  for (const CellTopology topo : {CellTopology::k6T, CellTopology::k8T}) {
    for (const AccessMode mode : {AccessMode::kRetention, AccessMode::kRead}) {
      const double vdd = rng.uniform(0.7, 1.1);
      Cell cell(topo, mode, vdd);
      const std::vector<DeltaVt> dvts =
          draws(rng, 37, cell.sim.design().sigma_vt);
      const std::string what =
          std::string(topo == CellTopology::k6T ? "6T" : "8T") +
          (mode == AccessMode::kRetention ? " retention" : " read");
      expect_all_widths_match(cell, dvts, DcOptions{}, what);
    }
  }
}

// Two Newton iterations per stage are too few for some stages: lanes walk
// the gmin retry ladder (some rescued, some drained) on their own, while
// their neighbours continue, and each matches the one-lane solve.
TEST(SpiceDcBatch, RetryLadderLanesMatchSolveDc) {
  const ObsOn obs_on;
  stats::Rng rng(4);
  Cell cell(CellTopology::k6T, AccessMode::kRetention, 0.8);
  const std::vector<DeltaVt> dvts = draws(rng, 24, cell.sim.design().sigma_vt);
  DcOptions opt;
  opt.max_iterations = 2;
  opt.max_gmin_extensions = 4;
  Counts counts;
  const std::vector<Solved> ref = solve_each(cell, dvts, opt, counts);
  ASSERT_GT(counts["spice.dc.gmin_extensions"], 0u);
  std::size_t rescued = 0;
  std::size_t drained = 0;
  for (const Solved& s : ref) ++(s.error.empty() ? rescued : drained);
  EXPECT_GT(rescued, 0u);
  EXPECT_GT(drained, 0u);
  expect_all_widths_match(cell, dvts, opt, "ladder");

  // A stage that allows no iteration at all fails at once, ladder included.
  opt.max_iterations = 0;
  expect_all_widths_match(cell, dvts, opt, "no iterations");
}

// A lane whose shifts the cell cannot hold (a NaN ΔVt) fails with the
// one-lane solve's text and leaves its neighbours' solutions untouched.
TEST(SpiceDcBatch, FailingLaneKeepsScalarErrorText) {
  const ObsOn obs_on;
  stats::Rng rng(99);
  Cell cell(CellTopology::k6T, AccessMode::kRetention, 0.9);
  std::vector<DeltaVt> dvts = draws(rng, 12, cell.sim.design().sigma_vt);
  dvts[5][0] = std::numeric_limits<double>::quiet_NaN();
  Counts counts;
  const std::vector<Solved> ref = solve_each(cell, dvts, DcOptions{}, counts);
  ASSERT_FALSE(ref[5].error.empty());
  EXPECT_EQ(counts["spice.dc.failures"], 1u);
  expect_all_widths_match(cell, dvts, DcOptions{}, "NaN lane");
}

// A workspace handed another circuit with as many unknowns but other
// devices is resized for it, not reused with the first circuit's layout.
TEST(SpiceDcBatch, WorkspaceFollowsItsCircuit) {
  Circuit a;
  const std::size_t a1 = a.node("n1");
  const std::size_t a2 = a.node("n2");
  a.add<VSource>(a, a1, kGround, 0.8);
  a.add<Resistor>(a1, a2, 1e4);
  a.add<Resistor>(a2, kGround, 2e4);
  Circuit b;
  const std::size_t b1 = b.node("vdd");
  const std::size_t b2 = b.node("out");
  b.add<VSource>(b, b1, kGround, 0.9);
  b.add<Mosfet>(b2, b1, kGround, default_nfet(), 1.0);
  b.add<Mosfet>(b2, kGround, b1, default_pfet(), 2.0);
  b.add<Resistor>(b2, kGround, 1e6);
  b.add<Capacitor>(b2, kGround, 1e-16);
  CompiledCircuit ca(a);
  CompiledCircuit cb(b);
  ASSERT_EQ(ca.unknown_count(), cb.unknown_count());
  SolveWorkspace shared;
  for (int pass = 0; pass < 2; ++pass) {
    for (CompiledCircuit* cc : {&ca, &cb}) {
      SolveWorkspace own;
      EXPECT_EQ(solve_dc(*cc, shared), solve_dc(*cc, own)) << pass;
      EXPECT_EQ(solve_dc(*cc, own), solve_dc(cc->source())) << pass;
    }
  }
}

// StrikeSimulator::solve_holds() batches through solve_dc_batch() at the
// build's lane width: each hold state equals hold_state()'s solve.
TEST(SpiceDcBatch, SolveHoldsMatchesHoldState) {
  stats::Rng rng(11);
  StrikeSimulator sim(CellDesign{}, 0.8);
  std::vector<DeltaVt> dvts = draws(rng, 41, sim.design().sigma_vt);
  dvts[7][3] = std::numeric_limits<double>::quiet_NaN();
  std::vector<StrikeSimulator::HoldState> holds(dvts.size());
  sim.solve_holds(dvts.data(), dvts.size(), holds.data());
  for (std::size_t k = 0; k < dvts.size(); ++k) {
    StrikeSimulator fresh(CellDesign{}, 0.8);
    try {
      const std::array<double, 2> qqb = fresh.hold_state(dvts[k]);
      ASSERT_FALSE(holds[k].failed) << k << ": " << holds[k].error;
      EXPECT_EQ(holds[k].x[fresh.circuit().find_node("q")], qqb[0]) << k;
      EXPECT_EQ(holds[k].x[fresh.circuit().find_node("qb")], qqb[1]) << k;
    } catch (const util::NumericalError& e) {
      EXPECT_TRUE(holds[k].failed) << k;
      EXPECT_EQ(holds[k].error, e.what()) << k;
    }
  }
}

// simulate_batch() solves the hold states no lane cache can serve ahead, in
// one batch, and keeps the lanes' caches across repeated lists: a list
// repeated over a charge ladder solves each sample once.
TEST(SpiceDcBatch, SimulateBatchKeepsHoldReuseAcrossLists) {
  stats::Rng rng(5);
  const std::size_t lanes = lane_width();
  const std::vector<DeltaVt> dvts = draws(rng, lanes, 0.05);
  const std::vector<std::uint8_t> active(lanes, 1);
  constexpr std::size_t kCharges = 4;
  const auto charges = [lanes](std::size_t c) {
    return std::vector<sram::StrikeCharges>(
        lanes,
        sram::StrikeCharges{0.05 + 0.04 * static_cast<double>(c), 0.0, 0.0});
  };
  std::vector<sram::StrikeOutcome> want;
  {
    StrikeSimulator ref(CellDesign{}, 0.8);
    for (std::size_t c = 0; c < kCharges; ++c) {
      for (std::size_t k = 0; k < lanes; ++k) {
        want.push_back(ref.simulate(charges(c)[k], dvts[k],
                                    PulseShape::Kind::kRectangular));
      }
    }
  }
  const ObsOn obs_on;
  StrikeSimulator sim(CellDesign{}, 0.8);
  std::vector<StrikeSimulator::LaneOutcome> out;
  for (std::size_t c = 0; c < kCharges; ++c) {
    sim.simulate_batch(charges(c), dvts, PulseShape::Kind::kRectangular,
                       active, out);
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::string where = std::to_string(c) + "/" + std::to_string(k);
      ASSERT_FALSE(out[k].failed) << where << ": " << out[k].error;
      const sram::StrikeOutcome& w = want[c * lanes + k];
      EXPECT_EQ(out[k].outcome.flipped, w.flipped) << where;
      EXPECT_EQ(out[k].outcome.final_q_v, w.final_q_v) << where;
      EXPECT_EQ(out[k].outcome.final_qb_v, w.final_qb_v) << where;
    }
  }
  const auto total = [](const char* name) {
    return obs::Registry::global().counter(name).total();
  };
  EXPECT_EQ(total("spice.dc.solves"), lanes);
  EXPECT_EQ(total("sram.strike.dc_reuse"), lanes * (kCharges - 1));
  if (lanes > 1) {
    EXPECT_LT(total("spice.dc.batch_ticks"), total("spice.dc.newton_iters"));
  }
}

/// simulate_stream() over a list with no hold state solved ahead: what
/// simulate_batch() did before it batched its hold solves.
class PlainListFeed final : public sram::StrikeFeed {
 public:
  PlainListFeed(const std::vector<sram::StrikeCharges>& charges,
                const std::vector<DeltaVt>& dvts)
      : charges_(charges), dvts_(dvts), out(charges.size()) {}

  bool next(std::size_t lane, StrikeSimulator::Strike& strike) override {
    if (next_ == charges_.size()) return false;
    entry_[lane] = next_;
    strike.charges = charges_[next_];
    strike.delta_vt = dvts_[next_];
    ++next_;
    return true;
  }
  void done(std::size_t lane,
            const StrikeSimulator::LaneOutcome& outcome) override {
    out[entry_[lane]] = outcome;
  }

 private:
  const std::vector<sram::StrikeCharges>& charges_;
  const std::vector<DeltaVt>& dvts_;
  std::size_t next_ = 0;
  std::array<std::size_t, kMaxLaneWidth> entry_{};

 public:
  std::vector<StrikeSimulator::LaneOutcome> out;
};

/// The counters of a strike run that must not depend on which hold states
/// were solved ahead.
Counts strike_counts() {
  Counts out = dc_counts();
  for (const char* name : {"sram.strike.dc_reuse", "spice.tran.runs"}) {
    out[name] = obs::Registry::global().counter(name).total();
  }
  return out;
}

// A list longer than the lane width, with repeated ΔVt vectors (so some
// entries may hit a lane's cache) and a NaN entry whose hold solve fails,
// run twice on one simulator (the second time against warm lane caches):
// simulate_batch() reports and counts exactly what a stream over the list
// without solved-ahead hold states does, at every lane width.
TEST(SpiceDcBatch, SimulateBatchCountsWhatTheStreamCounts) {
  stats::Rng rng(21);
  std::vector<DeltaVt> dvts = draws(rng, 45, 0.05);
  for (std::size_t k = 9; k < dvts.size(); k += 7) dvts[k] = dvts[k - 9];
  dvts[17][2] = std::numeric_limits<double>::quiet_NaN();
  std::vector<sram::StrikeCharges> charges;
  for (std::size_t k = 0; k < dvts.size(); ++k) {
    charges.push_back(sram::StrikeCharges{rng.uniform(0.05, 0.25), 0.0, 0.0});
  }
  const std::vector<std::uint8_t> active(dvts.size(), 1);
  for (const std::size_t width : kLaneWidths) {
    const LaneWidthGuard guard(width);
    const ObsOn obs_on;
    std::vector<std::vector<StrikeSimulator::LaneOutcome>> want;
    StrikeSimulator ref(CellDesign{}, 0.8);
    for (int pass = 0; pass < 2; ++pass) {
      PlainListFeed feed(charges, dvts);
      ref.simulate_stream(feed, PulseShape::Kind::kRectangular);
      want.push_back(feed.out);
    }
    const Counts want_counts = strike_counts();
    obs::Registry::global().reset();
    StrikeSimulator sim(CellDesign{}, 0.8);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<StrikeSimulator::LaneOutcome> out;
      sim.simulate_batch(charges, dvts, PulseShape::Kind::kRectangular, active,
                         out);
      for (std::size_t k = 0; k < dvts.size(); ++k) {
        const std::string where = "width " + std::to_string(width) + ", pass " +
                                  std::to_string(pass) + ", entry " +
                                  std::to_string(k);
        const StrikeSimulator::LaneOutcome& w = want[pass][k];
        ASSERT_EQ(out[k].failed, w.failed) << where;
        EXPECT_EQ(out[k].error, w.error) << where;
        EXPECT_EQ(out[k].outcome.flipped, w.outcome.flipped) << where;
        EXPECT_EQ(out[k].outcome.final_q_v, w.outcome.final_q_v) << where;
        EXPECT_EQ(out[k].outcome.final_qb_v, w.outcome.final_qb_v) << where;
      }
    }
    EXPECT_EQ(strike_counts(), want_counts) << "width " << width;
  }
}

// The cold benchmark's cell (0.9 V, the paper's 200 PV samples) counts the
// DC work one-lane hold solves count: a grid task's batch only moves its
// solves. The pinned values are those of strike-by-strike one-lane solves,
// and the same at every lane width, except that the nominal (ΔVt = 0) hold
// state is solved once per voltage: 10,825 solves, where a solve per
// nominal task made 10,890.
TEST(SpiceDcBatch, ColdCharacterizationCountsUnchanged) {
  const ObsOn obs_on;
  sram::CharacterizerConfig cfg;
  cfg.vdds = {0.9};
  cfg.pv_samples_single = 200;
  cfg.threads = 2;
  const sram::CellCharacterizer ch(CellDesign{}, cfg);
  ch.characterize_voltage(0);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::map<std::string, std::uint64_t> got;
  for (const auto& row : snap.counters) got[row.name] = row.total;
  EXPECT_EQ(got["spice.dc.solves"], 10825u);
  EXPECT_EQ(got["spice.dc.newton_iters"], 101176u);
  EXPECT_EQ(got["spice.dc.gmin_stages"], 54125u);
  EXPECT_EQ(got["spice.dc.gmin_extensions"], 0u);
  EXPECT_EQ(got["spice.dc.failures"], 0u);
  EXPECT_EQ(got["spice.tran.runs"], 15609u);
  EXPECT_EQ(got["sram.strike.dc_reuse"], 4719u);
  bool found = false;
  for (const auto& row : snap.histograms) {
    if (row.name != "spice.dc.iters_per_stage") continue;
    found = true;
    EXPECT_EQ(row.count, 54125u);
    EXPECT_EQ(row.sum, 101176u);
    EXPECT_EQ(row.min, 1u);
    EXPECT_EQ(row.max, 3u);
    EXPECT_EQ(row.buckets[1], 10734u);
    EXPECT_EQ(row.buckets[2], 43391u);
  }
  EXPECT_TRUE(found);
  // Past width 1, most hold states came out of lane-batched ticks.
  if (lane_width() == 1) {
    EXPECT_EQ(got["spice.dc.batch_ticks"], got["spice.dc.newton_iters"]);
  } else {
    EXPECT_LT(got["spice.dc.batch_ticks"], got["spice.dc.newton_iters"] / 2);
  }
}

}  // namespace
}  // namespace finser::spice
