/// \file test_spice_compiled.cpp
/// \brief Equivalence contract of the compiled SPICE path.
///
/// The compiled (devirtualized, rebindable) engine — DC through the fused
/// stamp and the one-lane LU, transients through the lane-batched engine at
/// every width, W = 1 included — must be *byte-identical* to the interpreted
/// reference engine (spice_reference.hpp): same MNA matrices, same
/// solutions, same waveforms, same strike outcomes, on randomized device
/// soups as well as on the real SRAM cell, including across parameter
/// rebinds, warm solver workspaces and a kill-and-resume characterization
/// run. These tests are the license for the compiled engine to be the only
/// engine outside the tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "finser/core/ser_flow.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/obs/obs.hpp"
#include "finser/pipeline/artifact_store.hpp"
#include "finser/pipeline/campaign.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/spice/transient.hpp"
#include "finser/spice/vecmath.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/characterize.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"
#include "spice_reference.hpp"

namespace finser::spice {
namespace {

// ---------------------------------------------------------------------------
// Random device soups
// ---------------------------------------------------------------------------

/// A random mixed-kind netlist. Electrical sanity is irrelevant here — the
/// stamping contract must hold for any topology the Circuit API accepts.
Circuit make_soup(stats::Rng& rng) {
  Circuit c;
  const std::size_t n_nodes = 3 + rng.uniform_index(6);
  std::vector<std::size_t> nodes{kGround};
  for (std::size_t i = 0; i < n_nodes; ++i) {
    // Appended, not `"n" + to_string(i)`: GCC 12 raises a false -Wrestrict
    // on that form in some inlining contexts.
    std::string name = "n";
    name += std::to_string(i);
    nodes.push_back(c.node(name));
  }
  const auto pick = [&] { return nodes[rng.uniform_index(nodes.size())]; };
  const auto pick_pair = [&] {
    std::size_t a = pick();
    std::size_t b = pick();
    while (b == a) b = pick();
    return std::pair<std::size_t, std::size_t>{a, b};
  };

  const std::size_t n_devices = 8 + rng.uniform_index(13);
  for (std::size_t d = 0; d < n_devices; ++d) {
    switch (rng.uniform_index(6)) {
      case 0: {
        const auto [a, b] = pick_pair();
        c.add<Resistor>(a, b, rng.uniform(10.0, 1e6));
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        c.add<Capacitor>(a, b, rng.uniform(1e-16, 1e-14));
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        c.add<VSource>(c, a, b, rng.uniform(-1.0, 1.0));
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        const double t0 = rng.uniform(0.0, 4e-12);
        c.add<PwlVSource>(
            c, a, b,
            std::vector<std::pair<double, double>>{
                {t0, rng.uniform(-1.0, 1.0)},
                {t0 + rng.uniform(1e-13, 5e-12), rng.uniform(-1.0, 1.0)}});
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        const double q = rng.uniform(0.01e-15, 0.5e-15);
        const double w = rng.uniform(1e-15, 1e-13);
        const double delay = rng.uniform(0.0, 5e-12);
        c.add<PulseISource>(
            a, b,
            rng.uniform() < 0.5
                ? PulseShape::rectangular_for_charge(q, w, delay)
                : PulseShape::triangular_for_charge(q, w, delay));
        break;
      }
      default: {
        const FinFetModel& model =
            rng.uniform() < 0.5 ? default_nfet() : default_pfet();
        auto& m = c.add<Mosfet>(pick(), pick(), pick(), model,
                                1.0 + static_cast<double>(rng.uniform_index(3)));
        m.set_delta_vt(rng.normal(0.0, 0.05));
        break;
      }
    }
  }
  return c;
}

std::vector<double> random_iterate(stats::Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

/// The fused DC stamp of \p cc at widths 1, 4, 8 and 32, each lane at an
/// iterate of its own, must equal per lane the Mna the polymorphic devices
/// of \p c assemble there, entry for entry, with every ground contribution
/// absorbed by the trailing scratch slots.
void expect_dc_stamp_matches(const Circuit& c, const CompiledCircuit& cc,
                             stats::Rng& rng) {
  const std::size_t n = c.unknown_count();
  Mna ref(n);
  BatchWorkspace bw;
  for (const std::size_t width : kLaneWidths) {
    cc.batch_configure(bw, width);
    std::vector<std::vector<double>> xs;
    for (std::size_t w = 0; w < width; ++w) {
      xs.push_back(random_iterate(rng, n));
      for (std::size_t i = 0; i < n; ++i) bw.x_try[i * width + w] = xs[w][i];
    }
    std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
    std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
    switch (width) {
      case 1: cc.batch_stamp_dc<1>(bw); break;
      case 4: cc.batch_stamp_dc<4>(bw); break;
      case 8: cc.batch_stamp_dc<8>(bw); break;
      default: cc.batch_stamp_dc<32>(bw); break;
    }
    for (std::size_t w = 0; w < width; ++w) {
      StampContext ctx;
      ctx.branch_offset = c.node_count();
      ctx.x = &xs[w];
      ref.clear();
      for (const auto& dev : c.devices()) dev->stamp(ref, ctx);
      const std::string where =
          "dc, width " + std::to_string(width) + ", lane " + std::to_string(w);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bw.fb[i * width + w], ref.rhs_at(i))
            << where << ": rhs row " << i;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(bw.fa[(i * n + j) * width + w], ref.matrix_at(i, j))
              << where << ": entry (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(SpiceCompiled, RandomSoupStampsAreByteIdentical) {
  stats::Rng rng(20140604);
  for (int trial = 0; trial < 40; ++trial) {
    const Circuit c = make_soup(rng);
    CompiledCircuit cc(c);
    ASSERT_EQ(cc.device_count(), c.devices().size());
    const std::size_t n = c.unknown_count();
    Mna ref(n);

    // DC stamp at random iterates.
    expect_dc_stamp_matches(c, cc, rng);
    StampContext ctx;
    ctx.branch_offset = c.node_count();

    // Transient stamp: compiled transients stamp through the lane-batched
    // hooks, here at width 1. Fresh state from a random operating point,
    // then two accepted steps so the capacitor histories (kept by the
    // devices and by the lane) must evolve in lockstep.
    const std::vector<double> x0 = random_iterate(rng, n);
    for (const auto& dev : c.devices()) dev->initialize_state(x0);
    BatchWorkspace bw;
    cc.batch_configure(bw, 1);
    cc.batch_initialize_state(bw, 0, x0);
    ctx.transient = true;
    ctx.method = rng.uniform() < 0.5 ? Integrator::kBackwardEuler
                                     : Integrator::kTrapezoidal;
    double t = 0.0;
    for (int step = 0; step < 2; ++step) {
      ctx.dt = rng.uniform(1e-15, 1e-12);
      t += ctx.dt;
      ctx.time = t;
      const std::vector<double> x_step = random_iterate(rng, n);
      ctx.x = &x_step;
      ref.clear();
      for (const auto& dev : c.devices()) dev->stamp(ref, ctx);
      bw.x_try = x_step;
      std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
      std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
      cc.batch_stamp_fused<1>(bw, &ctx.time, &ctx.dt, ctx.method);
      const char* where = step == 0 ? "tran step 0" : "tran step 1";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bw.fb[i], ref.rhs_at(i)) << where << ": rhs row " << i;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(bw.fa[i * n + j], ref.matrix_at(i, j))
              << where << ": entry (" << i << ", " << j << ")";
        }
      }
      for (const auto& dev : c.devices()) dev->commit(ctx);
      bw.x = x_step;
      cc.batch_commit(bw, 0, ctx.time, ctx.dt, ctx.method);
    }

    // Breakpoints (order-insensitive by contract: the engine sorts them).
    std::vector<double> b_ref;
    std::vector<double> b_cmp;
    for (const auto& dev : c.devices()) dev->add_breakpoints(1e-11, b_ref);
    cc.batch_add_breakpoints(bw, 0, 1e-11, b_cmp);
    std::sort(b_ref.begin(), b_ref.end());
    std::sort(b_cmp.begin(), b_cmp.end());
    ASSERT_EQ(b_ref, b_cmp);
  }
}

// The fused DC stamp (raw AoSoA arrays + precomputed slot indices, used by
// the compiled DC Newton at every width) must produce per lane the same
// dense system as the polymorphic devices' Device::stamp(), entry for entry,
// with every ground contribution absorbed by the trailing scratch slots.
TEST(SpiceCompiled, FusedStampMatchesMnaOnSoups) {
  stats::Rng rng(19830426);
  for (int trial = 0; trial < 40; ++trial) {
    const Circuit c = make_soup(rng);
    CompiledCircuit cc(c);
    expect_dc_stamp_matches(c, cc, rng);
  }
}

// The baked per-device plan (bake_finfet + evaluate_finfet_planned) must
// reproduce the reference model evaluation bit for bit over the whole bias
// space, for both polarities and off-nominal ΔVt / fin count / temperature.
TEST(SpiceCompiled, PlannedFinfetEvalIsByteIdentical) {
  stats::Rng rng(65537);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool pmos = rng.uniform() < 0.5;
    const FinFetModel& m = pmos ? default_pfet() : default_nfet();
    const double delta_vt = rng.normal(0.0, 0.06);
    const double nfin = 1.0 + static_cast<double>(rng.uniform_index(3));
    const double temp_k = rng.uniform(250.0, 400.0);
    const FinFetPlan plan = bake_finfet(m, delta_vt, nfin, temp_k);

    const double vd = rng.uniform(-1.2, 1.2);
    const double vg = rng.uniform(-1.2, 1.2);
    const double vs = rng.uniform(-1.2, 1.2);
    const MosOp ref = evaluate_finfet(m, vd, vg, vs, delta_vt, nfin, temp_k);
    const MosOp got = evaluate_finfet_planned(plan, vd, vg, vs);
    ASSERT_EQ(ref.ids, got.ids) << (pmos ? "pfet" : "nfet") << " trial "
                                << trial;
    ASSERT_EQ(ref.gm, got.gm);
    ASSERT_EQ(ref.gds, got.gds);
  }
}

// ---------------------------------------------------------------------------
// Solution-level equivalence on a solvable circuit, across rebinds
// ---------------------------------------------------------------------------

/// A randomized but well-posed circuit: a supply-driven FinFET inverter
/// chain with storage caps and a strike-style current pulse — every node has
/// a DC path, so both DC and transient solves converge.
struct SolvableCircuit {
  Circuit c;
  VSource* supply = nullptr;
  Mosfet* nfet = nullptr;
  PulseISource* pulse = nullptr;
};

SolvableCircuit make_solvable(stats::Rng& rng) {
  SolvableCircuit s;
  const auto vdd = s.c.node("vdd");
  const auto in = s.c.node("in");
  const auto out = s.c.node("out");
  const auto out2 = s.c.node("out2");
  const double vdd_v = rng.uniform(0.6, 1.0);
  s.supply = &s.c.add<VSource>(s.c, vdd, kGround, vdd_v);
  s.c.add<VSource>(s.c, in, kGround, rng.uniform(0.0, 0.2));
  s.nfet = &s.c.add<Mosfet>(out, in, kGround, default_nfet(), 1.0);
  s.c.add<Mosfet>(out, in, vdd, default_pfet(), 1.0);
  s.c.add<Mosfet>(out2, out, kGround, default_nfet(), 1.0);
  s.c.add<Mosfet>(out2, out, vdd, default_pfet(), 1.0);
  s.c.add<Resistor>(out, out2, rng.uniform(1e4, 1e6));
  s.c.add<Capacitor>(out, kGround, rng.uniform(0.05e-15, 0.3e-15));
  s.c.add<Capacitor>(out2, kGround, rng.uniform(0.05e-15, 0.3e-15));
  s.pulse = &s.c.add<PulseISource>(
      out, kGround,
      PulseShape::rectangular_for_charge(rng.uniform(0.01e-15, 0.2e-15),
                                         rng.uniform(5e-15, 5e-14), 1e-12));
  return s;
}

void expect_same_vector(const std::vector<double>& a,
                        const std::vector<double>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << where << ": component " << i;
  }
}

void expect_same_waveform(const Waveform& a, const Waveform& b,
                          const char* where) {
  ASSERT_EQ(a.sample_count(), b.sample_count()) << where;
  ASSERT_EQ(a.probe_count(), b.probe_count()) << where;
  for (std::size_t i = 0; i < a.sample_count(); ++i) {
    ASSERT_EQ(a.times()[i], b.times()[i]) << where << ": time " << i;
    for (std::size_t p = 0; p < a.probe_count(); ++p) {
      ASSERT_EQ(a.value(p, i), b.value(p, i))
          << where << ": probe " << p << ", sample " << i;
    }
  }
}

// DC through the compiled kernel and transients through the batched engine
// at widths 1, 4, 8 and 32 must match the interpreted engine across rebinds,
// with every workspace warm from the previous pass. Each pass runs its one
// binding in a different lane, the lanes before it masked off.
TEST(SpiceCompiled, SolutionsMatchAcrossRebindsAndWarmWorkspace) {
  stats::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    SolvableCircuit s = make_solvable(rng);
    CompiledCircuit cc(s.c);
    SolveWorkspace ws;  // Deliberately reused across every solve below.
    std::array<BatchWorkspace, 4> bws;  // Likewise, one per width.
    const std::array<std::size_t, 4> widths{1, 4, 8, 32};
    for (std::size_t k = 0; k < bws.size(); ++k) {
      cc.batch_configure(bws[k], widths[k]);
    }

    TransientOptions topt;
    topt.t_end = 20e-12;

    for (int pass = 0; pass < 3; ++pass) {
      // Mutate every rebindable parameter, then rebind the plan.
      s.supply->set_voltage(rng.uniform(0.6, 1.0));
      s.nfet->set_delta_vt(rng.normal(0.0, 0.05));
      s.pulse->set_shape(PulseShape::triangular_for_charge(
          rng.uniform(0.01e-15, 0.3e-15), rng.uniform(5e-15, 5e-14), 1e-12));
      cc.rebind();

      const std::vector<double> x_ref = solve_dc(s.c);
      const std::vector<double> x_cmp = solve_dc(cc, ws);
      expect_same_vector(x_ref, x_cmp, "dc");

      const Waveform w_ref = run_transient(s.c, x_ref, topt, {"out", "out2"});
      for (BatchWorkspace& bw : bws) {
        const std::size_t lane = static_cast<std::size_t>(pass) % bw.lanes;
        cc.batch_rebind_lane(bw, lane);
        std::vector<std::vector<double>> x0(lane + 1);
        x0[lane] = x_cmp;
        const BatchTransientResult res =
            run_transient_batch(cc, bw, x0, topt, {"out", "out2"});
        ASSERT_FALSE(res.failed[lane]) << res.errors[lane];
        expect_same_waveform(
            w_ref, res.waves[lane],
            ("transient, width " + std::to_string(bw.lanes)).c_str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The structural LU against Mna
// ---------------------------------------------------------------------------

/// One n×n row-major system and its rhs.
struct LuSystem {
  std::vector<double> a;
  std::vector<double> b;
};

/// The structural positions (i, j) of \p cc's lu_pattern(), row-major.
std::vector<std::pair<std::size_t, std::size_t>> structural_entries(
    const CompiledCircuit& cc) {
  const std::size_t n = cc.unknown_count();
  const std::size_t words = lu_mask_words(n);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if ((cc.lu_pattern()[i * words + j / 64] >> (j % 64)) & 1u) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

/// A system \p cc stamps at a random iterate: the DC stamp with a gmin
/// shunt, or a transient stamp from random capacitor histories.
LuSystem stamped_system(CompiledCircuit& cc, stats::Rng& rng) {
  const std::size_t n = cc.unknown_count();
  const std::vector<double> x = random_iterate(rng, n);
  LuSystem sys{std::vector<double>(n * n + 1, 0.0),
               std::vector<double>(n + 1, 0.0)};
  if (rng.uniform() < 0.5) {
    BatchWorkspace bw;
    cc.batch_configure(bw, 1);
    bw.x_try = x;
    cc.batch_stamp_dc<1>(bw);
    sys.a = bw.fa;
    sys.b = bw.fb;
    for (std::size_t i = 0; i < cc.node_count(); ++i) sys.a[i * n + i] += 1e-9;
  } else {
    BatchWorkspace bw;
    cc.batch_configure(bw, 1);
    cc.batch_initialize_state(bw, 0, random_iterate(rng, n));
    bw.x_try = x;
    const double t = rng.uniform(0.0, 5e-12);
    const double dt = rng.uniform(1e-15, 1e-12);
    cc.batch_stamp_fused<1>(bw, &t, &dt, Integrator::kTrapezoidal);
    sys.a = bw.fa;
    sys.b = bw.fb;
  }
  sys.a.resize(n * n);
  sys.b.resize(n);
  return sys;
}

constexpr std::size_t kLuVariants = 8;

/// Lane variant \p kind of \p base. Only structural entries change, so
/// every other entry stays +0 as the kernel requires.
LuSystem lu_variant(
    const LuSystem& base, std::size_t kind, std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& entries,
    stats::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LuSystem s = base;
  const auto pick = [&] { return entries[rng.uniform_index(entries.size())]; };
  switch (kind) {
    case 0:  // The stamped system.
      break;
    case 1:  // Every value perturbed.
      for (const auto& [i, j] : entries) {
        s.a[i * n + j] *= rng.uniform(0.5, 2.0);
      }
      break;
    case 2: {  // One row scaled up: it wins scans its neighbours' rows win.
      const std::size_t r = rng.uniform_index(n);
      for (std::size_t j = 0; j < n; ++j) s.a[r * n + j] *= 1e6;
      s.b[r] *= 1e6;
      break;
    }
    case 3: {  // Singular: one row of zeros.
      const std::size_t r = rng.uniform_index(n);
      for (std::size_t j = 0; j < n; ++j) s.a[r * n + j] = 0.0;
      break;
    }
    case 4: {  // An inf and a NaN entry.
      const auto [i, j] = pick();
      s.a[i * n + j] = rng.uniform() < 0.5 ? kInf : -kInf;
      const auto [k, l] = pick();
      s.a[k * n + l] = std::numeric_limits<double>::quiet_NaN();
      break;
    }
    case 5: {  // −0s: a row reduced to its diagonal over a −0 rhs (its sum
               // is a signed zero), and scattered −0 entries.
      const std::size_t r = rng.uniform_index(n);
      for (const auto& [i, j] : entries) {
        if (i == r && j != r) s.a[i * n + j] = rng.uniform() < 0.5 ? 0.0 : -0.0;
        if (rng.uniform() < 0.1) s.a[i * n + j] = -0.0;
      }
      s.b[r] = -0.0;
      for (double& v : s.b) {
        if (rng.uniform() < 0.2) v = -0.0;
      }
      break;
    }
    case 6:  // A zero rhs of mixed signs: the solution is all signed
             // zeros, so every sign the kernel computes shows.
      for (const auto& [i, j] : entries) {
        if (rng.uniform() < 0.3) s.a[i * n + j] = -0.0;
      }
      for (double& v : s.b) v = rng.uniform() < 0.5 ? 0.0 : -0.0;
      break;
    default:  // A non-finite rhs entry.
      s.b[rng.uniform_index(n)] =
          rng.uniform() < 0.5 ? kInf : std::numeric_limits<double>::quiet_NaN();
      break;
  }
  return s;
}

/// Mna::solve_with_cache on \p sys: the failure its throw reports, if any.
LaneLu oracle_solve(const LuSystem& sys, std::size_t n, Mna::PivotCache& cache,
                    std::vector<double>& x) {
  Mna m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m.set(i, j, sys.a[i * n + j]);
    m.set_rhs(i, sys.b[i]);
  }
  try {
    m.solve_with_cache(cache, x);
    return LaneLu::kOk;
  } catch (const util::NumericalError& e) {
    const std::string what = e.what();
    if (what.find("rhs") != std::string::npos) return LaneLu::kNonFiniteRhs;
    if (what.find("singular") != std::string::npos) return LaneLu::kSingular;
    return LaneLu::kNonFiniteSolution;
  }
}

/// Totals of the LU counters.
std::array<std::uint64_t, 3> lu_counters() {
  const auto total = [](const char* name) {
    return obs::Registry::global().counter(name).total();
  };
  return {total("spice.mna.solves"), total("spice.mna.pivot_reuse"),
          total("spice.mna.pivot_refactor")};
}

/// One batch_lu_solve() call on \p lanes (lane w of \p bw holds lanes[w]):
/// every lane's status, solution bits and pivot cache, and the call's
/// counters, must equal Mna::solve_with_cache()'s with the lane's cache in
/// \p caches.
void expect_call_matches_oracle(CompiledCircuit& cc, BatchWorkspace& bw,
                                std::vector<Mna::PivotCache>& caches,
                                const std::vector<LuSystem>& lanes,
                                const std::string& where) {
  const std::size_t n = cc.unknown_count();
  const std::size_t width = bw.lanes;
  std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
  std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
  for (std::size_t w = 0; w < width; ++w) {
    for (std::size_t k = 0; k < n * n; ++k) {
      bw.fa[k * width + w] = lanes[w].a[k];
    }
    for (std::size_t i = 0; i < n; ++i) bw.fb[i * width + w] = lanes[w].b[i];
  }
  const std::vector<std::uint8_t> active(width, 1);
  std::vector<LaneLu> status(width);
  std::vector<double> x;

  obs::set_enabled(true);
  const auto before = lu_counters();
  batch_lu_solve(cc, bw, active.data(), status.data());
  const auto mid = lu_counters();
  for (std::size_t w = 0; w < width; ++w) {
    const std::string at = where + " lane " + std::to_string(w);
    const LaneLu want = oracle_solve(lanes[w], n, caches[w], x);
    ASSERT_EQ(static_cast<int>(status[w]), static_cast<int>(want)) << at;
    ASSERT_EQ(bw.pivot_valid[w] != 0, caches[w].valid) << at;
    for (std::size_t i = 0; caches[w].valid && i < n; ++i) {
      ASSERT_EQ(bw.pivot_perm[i * width + w], caches[w].perm[i]) << at;
    }
    if (want != LaneLu::kOk) continue;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bw.x_new[i * width + w]),
                std::bit_cast<std::uint64_t>(x[i]))
          << at << ": x[" << i << "] " << bw.x_new[i * width + w] << " vs "
          << x[i];
    }
  }
  const auto after = lu_counters();
  obs::set_enabled(false);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(mid[k] - before[k], after[k] - mid[k])
        << where << ": counter " << k;
  }
}

/// kLuVariants calls on a fresh width-\p width workspace of \p cc, lane w
/// holding variant (w + round) % kLuVariants of the round's stamped system,
/// each checked by expect_call_matches_oracle() with one cache per lane.
void expect_lu_matches_oracle(CompiledCircuit& cc, std::size_t width,
                              stats::Rng& rng, const std::string& where) {
  const std::size_t n = cc.unknown_count();
  const auto entries = structural_entries(cc);
  BatchWorkspace bw;
  cc.batch_configure(bw, width);
  std::vector<Mna::PivotCache> caches(width);
  for (std::size_t round = 0; round < kLuVariants; ++round) {
    const LuSystem base = stamped_system(cc, rng);
    std::vector<LuSystem> lanes;
    for (std::size_t w = 0; w < width; ++w) {
      lanes.push_back(
          lu_variant(base, (w + round) % kLuVariants, n, entries, rng));
    }
    expect_call_matches_oracle(cc, bw, caches, lanes,
                               where + " width " + std::to_string(width) +
                                   " round " + std::to_string(round));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// A netlist of 71 unknowns, so its row masks take two words: a resistor
/// chain through 70 nodes from one supply, plus resistors, capacitors and
/// FinFETs between random nodes.
Circuit make_wide_soup(stats::Rng& rng) {
  Circuit c;
  std::vector<std::size_t> nodes;
  for (int i = 0; i < 70; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    nodes.push_back(c.node(name));
  }
  const auto pick = [&] { return nodes[rng.uniform_index(nodes.size())]; };
  c.add<VSource>(c, nodes[0], kGround, 0.8);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    c.add<Resistor>(nodes[i - 1], nodes[i], rng.uniform(1e3, 1e5));
  }
  for (int d = 0; d < 40; ++d) {
    const std::size_t a = pick();
    std::size_t b = pick();
    while (b == a) b = pick();
    switch (rng.uniform_index(3)) {
      case 0:
        c.add<Resistor>(a, b, rng.uniform(1e3, 1e6));
        break;
      case 1:
        c.add<Capacitor>(a, kGround, rng.uniform(1e-16, 1e-14));
        break;
      default:
        c.add<Mosfet>(a, b, pick(), default_nfet(), 1.0);
        break;
    }
  }
  return c;
}

// The structural LU must compute Mna's bits lane by lane: solution (signed
// zeros included), failure class, pivot cache and pivot_reuse /
// pivot_refactor counts, at every width, on device soups (one past 64
// unknowns) and on the 6T and 8T cell systems. The lanes mix stamped systems with pivot orders forced
// apart, singular rows, inf and NaN entries, −0 entries and rhs values that
// make a row's sum a signed zero, and non-finite rhs entries: values no
// stamp produces, but inside the pattern the kernel's exactness argument
// covers (docs/spice.md, "The structural LU").
TEST(SpiceCompiled, PatternLuMatchesOracle) {
  stats::Rng rng(20260517);
  std::vector<std::pair<std::string, Circuit>> soups;
  for (int trial = 0; trial < 24; ++trial) {
    soups.emplace_back("soup " + std::to_string(trial), make_soup(rng));
  }
  soups.emplace_back("wide soup", make_wide_soup(rng));
  const std::array<std::size_t, 4> widths{1, 4, 8, 32};
  for (const auto& [name, c] : soups) {
    CompiledCircuit cc(c);
    for (const std::size_t width : widths) {
      expect_lu_matches_oracle(cc, width, rng, name);
      if (HasFatalFailure()) return;
    }
  }
  for (const sram::CellTopology topology :
       {sram::CellTopology::k6T, sram::CellTopology::k8T}) {
    for (const sram::AccessMode mode :
         {sram::AccessMode::kRetention, sram::AccessMode::kRead}) {
      sram::CellDesign design;
      design.topology = topology;
      const sram::StrikeSimulator sim(design, 0.8, mode);
      CompiledCircuit cc(sim.circuit());
      const std::string name =
          std::string(topology == sram::CellTopology::k6T ? "6T" : "8T") +
          (mode == sram::AccessMode::kRead ? " read" : " retention");
      for (const std::size_t width : widths) {
        expect_lu_matches_oracle(cc, width, rng, name);
        if (HasFatalFailure()) return;
      }
    }
  }

  // A −0 outside the pivot row's mask decides a solution's sign. Chain
  // n0 – n1 – n2: row 1 is eliminated by row 0 with factor −0.5, which
  // turns its −0 at column 2 (not in row 0's mask) into +0; x2 = +0, so
  // x1 = (−0 − a12·x2) / a11 is −0 only if that entry did turn +0.
  Circuit chain;
  const std::size_t n0 = chain.node("n0");
  const std::size_t n1 = chain.node("n1");
  const std::size_t n2 = chain.node("n2");
  chain.add<Resistor>(n0, n1, 1.0);
  chain.add<Resistor>(n1, n2, 1.0);
  CompiledCircuit cc(chain);
  BatchWorkspace bw;
  cc.batch_configure(bw, 1);
  std::vector<Mna::PivotCache> caches(1);
  const LuSystem signed_zero{{2.0, 1.0, 0.0,    //
                              -1.0, 1.0, -0.0,  //
                              0.0, 0.5, 1.0},
                             {-0.0, -0.0, 0.0}};
  expect_call_matches_oracle(cc, bw, caches, {signed_zero}, "chain");
  EXPECT_TRUE(std::signbit(bw.x_new[1]));
  obs::Registry::global().reset();
}

// ---------------------------------------------------------------------------
// Lane-batched engine: byte-equality against the interpreted reference
// ---------------------------------------------------------------------------

/// Restores the auto lane-width resolution no matter how a test exits.
struct LaneWidthGuard {
  explicit LaneWidthGuard(std::size_t w) { set_lane_width(w); }
  ~LaneWidthGuard() { set_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

TEST(SpiceBatch, LaneWidthSelection) {
  EXPECT_TRUE(lane_width_valid(0));
  EXPECT_TRUE(lane_width_valid(1));
  EXPECT_TRUE(lane_width_valid(4));
  EXPECT_TRUE(lane_width_valid(8));
  EXPECT_FALSE(lane_width_valid(2));
  EXPECT_TRUE(lane_width_valid(32));
  EXPECT_FALSE(lane_width_valid(16));
  EXPECT_THROW(set_lane_width(3), util::InvalidArgument);
  {
    LaneWidthGuard g(4);
    EXPECT_EQ(lane_width(), 4u);
  }
  EXPECT_EQ(lane_width(), kDefaultLaneWidth);
}

// The deterministic exp/log1p kernels are pinned by golden tests at the
// waveform level; this is the direct accuracy contract against libm — a few
// ulp over the biased ranges the FinFET model actually exercises.
TEST(SpiceBatch, VecmathTracksLibm) {
  stats::Rng rng(360360);
  for (int trial = 0; trial < 20000; ++trial) {
    const double x = rng.uniform(-60.0, 60.0);
    const double want = std::exp(x);
    const double got = detail::fexp(x);
    EXPECT_NEAR(got, want, 4.0 * std::abs(want) * 2.2e-16) << "fexp(" << x << ")";
    const double u = rng.uniform(0.0, 1e6);
    const double wl = std::log1p(u);
    const double gl = detail::flog1p(u);
    EXPECT_NEAR(gl, wl, 4.0 * std::abs(wl) * 2.2e-16 + 1e-300)
        << "flog1p(" << u << ")";
  }
  EXPECT_EQ(detail::fexp(1000.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(detail::fexp(-1000.0), 0.0);
  EXPECT_EQ(detail::flog1p(0.0), 0.0);
}

/// Per-lane parameter set for a SolvableCircuit rebind.
struct LaneParams {
  double vdd;
  double dvt;
  double q;
  double w;
};

LaneParams random_params(stats::Rng& rng) {
  return LaneParams{rng.uniform(0.6, 1.0), rng.normal(0.0, 0.05),
                    rng.uniform(0.01e-15, 0.3e-15), rng.uniform(5e-15, 5e-14)};
}

void bind_params(SolvableCircuit& s, CompiledCircuit& cc, const LaneParams& p) {
  s.supply->set_voltage(p.vdd);
  s.nfet->set_delta_vt(p.dvt);
  s.pulse->set_shape(PulseShape::triangular_for_charge(p.q, p.w, 1e-12));
  cc.rebind();
}

// The batched transient must reproduce the interpreted reference engine
// byte for byte, per lane, for every compiled width — including lanes
// carrying different supply voltages, ΔVt and pulse shapes, and ragged
// tails where only some lanes are occupied.
TEST(SpiceBatch, BatchTransientMatchesScalarPerLane) {
  stats::Rng rng(271828);
  TransientOptions topt;
  topt.t_end = 20e-12;

  for (int trial = 0; trial < 3; ++trial) {
    SolvableCircuit s = make_solvable(rng);
    CompiledCircuit cc(s.c);

    // 32 parameter sets; each width consumes a prefix, so the same lane
    // is checked under every width.
    std::vector<LaneParams> params;
    for (int k = 0; k < 32; ++k) params.push_back(random_params(rng));

    // Interpreted references.
    std::vector<std::vector<double>> x0(params.size());
    std::vector<Waveform> ref;
    for (std::size_t k = 0; k < params.size(); ++k) {
      bind_params(s, cc, params[k]);
      x0[k] = solve_dc(s.c);
      ref.push_back(run_transient(s.c, x0[k], topt, {"out", "out2"}));
    }

    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{32}}) {
      BatchWorkspace bw;
      cc.batch_configure(bw, width);
      std::vector<std::vector<double>> lanes_x0(width);
      for (std::size_t k = 0; k < width; ++k) {
        bind_params(s, cc, params[k]);
        cc.batch_rebind_lane(bw, k);
        lanes_x0[k] = x0[k];
      }
      const BatchTransientResult res =
          run_transient_batch(cc, bw, lanes_x0, topt, {"out", "out2"});
      for (std::size_t k = 0; k < width; ++k) {
        ASSERT_FALSE(res.failed[k]) << res.errors[k];
        expect_same_waveform(
            ref[k], res.waves[k],
            ("width " + std::to_string(width) + " lane " + std::to_string(k))
                .c_str());
      }

      // Ragged tail: only the first two lanes occupied; the occupied lanes
      // must not feel the masked ones.
      if (width > 2) {
        cc.batch_configure(bw, width);
        std::vector<std::vector<double>> tail_x0(2);
        for (std::size_t k = 0; k < 2; ++k) {
          bind_params(s, cc, params[k]);
          cc.batch_rebind_lane(bw, k);
          tail_x0[k] = x0[k];
        }
        const BatchTransientResult tail =
            run_transient_batch(cc, bw, tail_x0, topt, {"out", "out2"});
        for (std::size_t k = 0; k < 2; ++k) {
          ASSERT_FALSE(tail.failed[k]) << tail.errors[k];
          expect_same_waveform(
              ref[k], tail.waves[k],
              ("ragged width " + std::to_string(width) + " lane " +
               std::to_string(k))
                  .c_str());
        }
      }
    }
  }
}

/// A TransientFeed over a list of parameter sets: job k binds params[k]
/// from operating point x0[k]; every ended job's waveform is kept.
struct ListTransientFeed final : TransientFeed {
  ListTransientFeed(SolvableCircuit& circuit, CompiledCircuit& compiled,
                    BatchWorkspace& workspace,
                    const std::vector<LaneParams>& jobs,
                    const std::vector<std::vector<double>>& points)
      : s(circuit), cc(compiled), bw(workspace), params(jobs), x0(points),
        waves(jobs.size()), finishes(jobs.size(), 0) {}

  const std::vector<double>* load(std::size_t lane) override {
    if (next == params.size()) return nullptr;
    job[lane] = next;
    bind_params(s, cc, params[next]);
    cc.batch_rebind_lane(bw, lane);
    return &x0[next++];
  }

  void finish(std::size_t lane, const Waveform& wave,
              const std::string* error) override {
    ++finishes[job[lane]];
    if (error != nullptr) errors.push_back(*error);
    waves[job[lane]] = wave;
  }

  SolvableCircuit& s;
  CompiledCircuit& cc;
  BatchWorkspace& bw;
  const std::vector<LaneParams>& params;
  const std::vector<std::vector<double>>& x0;
  std::size_t next = 0;
  std::array<std::size_t, kMaxLaneWidth> job{};
  std::vector<std::optional<Waveform>> waves;
  std::vector<int> finishes;
  std::vector<std::string> errors;
};

// A stream of many more jobs than lanes refills each lane as its transient
// ends; every job's waveform must equal a run_transient_single() of its
// binding, at every width, with and without a latch stop (which ends jobs
// at different steps).
TEST(SpiceStream, RefilledLanesMatchSingleRuns) {
  stats::Rng rng(1414);
  SolvableCircuit s = make_solvable(rng);
  CompiledCircuit cc(s.c);
  std::vector<LaneParams> params;
  for (int k = 0; k < 71; ++k) params.push_back(random_params(rng));
  std::vector<std::vector<double>> x0;
  SolveWorkspace ws;
  for (const LaneParams& p : params) {
    bind_params(s, cc, p);
    x0.push_back(solve_dc(cc, ws));
  }
  const std::size_t out = s.c.find_node("out");
  const std::size_t out2 = s.c.find_node("out2");

  for (bool latch : {false, true}) {
    TransientOptions topt;
    topt.t_end = 20e-12;
    if (latch) topt.latch = LatchStop{out, out2, 0.8};
    std::vector<Waveform> ref;
    BatchWorkspace single;
    for (std::size_t k = 0; k < params.size(); ++k) {
      bind_params(s, cc, params[k]);
      ref.push_back(
          run_transient_single(cc, single, x0[k], topt, {"out", "out2"}));
    }
    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{32}}) {
      BatchWorkspace bw;
      cc.batch_configure(bw, width);
      ListTransientFeed feed(s, cc, bw, params, x0);
      run_transient_stream(cc, bw, feed, topt, {"out", "out2"});
      EXPECT_TRUE(feed.errors.empty());
      for (std::size_t k = 0; k < params.size(); ++k) {
        ASSERT_EQ(feed.finishes[k], 1) << "job " << k;
        expect_same_waveform(ref[k], *feed.waves[k],
                             ("latch " + std::to_string(latch) + " width " +
                              std::to_string(width) + " job " +
                              std::to_string(k))
                                 .c_str());
      }
    }
  }
}

TEST(SpiceCompiled, UnsupportedDeviceKindThrows) {
  class Ghost : public Device {
   public:
    void stamp(Mna&, const StampContext&) const override {}
    const char* kind() const override { return "ghost"; }
  };
  Circuit c;
  c.node("n");
  c.add<Ghost>();
  EXPECT_THROW(CompiledCircuit{c}, util::InvalidArgument);
}

}  // namespace
}  // namespace finser::spice

namespace finser::sram {
namespace {

// ---------------------------------------------------------------------------
// StrikeSimulator against the interpreted reference engine
// ---------------------------------------------------------------------------

// simulate() (compiled DC hold solve + one-lane batched transient) and
// hold_state() must match solve_dc/run_transient of the interpreted engine on
// the simulator's own 6T netlist: after each simulate() its devices carry
// that sample's ΔVt and strike shapes, so the reference replays the sample.
TEST(SpiceCompiled, StrikeSimulatorEnginesAgreeExactly) {
  const CellDesign design;
  stats::Rng rng(4242);
  for (double vdd : {0.7, 1.0}) {
    StrikeSimulator sim(design, vdd);
    const spice::Circuit& c = sim.circuit();
    std::vector<double> guess(c.unknown_count(), 0.0);
    for (const char* node : {"q", "vdd", "bl", "blb"}) {
      guess[c.find_node(node)] = vdd;
    }
    const std::size_t nq = c.find_node("q");
    const std::size_t nqb = c.find_node("qb");

    DeltaVt dvt{};
    for (int trial = 0; trial < 6; ++trial) {
      // Re-use each ΔVt twice to exercise the DC hold cache: the
      // cached-hold simulate must still match the reference bit-for-bit.
      if (trial % 2 == 0) {
        for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
      }
      const StrikeCharges q{rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3),
                            rng.uniform(0.0, 0.3)};
      const auto kind = trial % 2 == 0 ? spice::PulseShape::Kind::kRectangular
                                       : spice::PulseShape::Kind::kTriangular;
      const StrikeOutcome got = sim.simulate(q, dvt, kind);
      const std::vector<double> x0 = spice::solve_dc(c, guess);
      const spice::Waveform want =
          spice::run_transient(c, x0, sim.transient_options(), {"q", "qb"});
      EXPECT_EQ(got.final_q_v, want.final_value(0))
          << "vdd " << vdd << ", trial " << trial;
      EXPECT_EQ(got.final_qb_v, want.final_value(1));
      EXPECT_EQ(got.flipped, want.final_value(0) < 0.5 * vdd &&
                                 want.final_value(1) > 0.5 * vdd);

      const auto hold = sim.hold_state(dvt);
      EXPECT_EQ(hold[0], x0[nq]);
      EXPECT_EQ(hold[1], x0[nqb]);
    }
  }
}

// ---------------------------------------------------------------------------
// Latch stop: every engine stops each run on the same step
// ---------------------------------------------------------------------------

/// {count, sum, min, max} of steps_per_run.
using StepsPerRun = std::array<std::uint64_t, 4>;

/// The steps_per_run histogram of the runs \p body performs.
StepsPerRun steps_per_run_of(const std::function<void()>& body) {
  obs::IntHistogram& h =
      obs::Registry::global().int_histogram("spice.tran.steps_per_run");
  h.reset();
  obs::set_enabled(true);
  body();
  obs::set_enabled(false);
  return {h.count(), h.sum(), h.min(), h.max()};
}

// With the retention latch set, the batched engine at W = 1, 4, 8 and 32 must
// stop every lane on the interpreted loop's step: same waveform length and
// values, same steps_per_run. The lanes of a group stop at different steps
// (a strike-free sample first, a flip later) and ride masked meanwhile.
// Without the latch, every run of both engines ends at t_end.
TEST(SpiceBatch, LatchStopsMatchInterpretedPerLane) {
  const CellDesign design;
  constexpr double kVdd = 0.8;
  StrikeSimulator sim(design, kVdd);
  const spice::Circuit& c = sim.circuit();
  spice::CompiledCircuit cc(c);
  std::vector<double> guess(c.unknown_count(), 0.0);
  for (const char* node : {"q", "vdd", "bl", "blb"}) {
    guess[c.find_node(node)] = kVdd;
  }
  const std::vector<std::string> probes{"q", "qb"};

  // Strike-free, sub-critical, flipping and rail-overshooting samples, then
  // random ones with process variation.
  stats::Rng rng(16016);
  std::vector<StrikeCharges> charges{
      {}, {0.05, 0.0, 0.0}, {1.0, 0.0, 0.0}, {0.5, 0.0, 0.5}};
  std::vector<DeltaVt> dvts(charges.size());
  while (charges.size() < 32) {
    charges.push_back(StrikeCharges{rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3)});
    DeltaVt dvt{};
    for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
    dvts.push_back(dvt);
  }
  // Load sample k into the netlist's devices (simulate() leaves them
  // carrying it) without recording its run.
  const auto load = [&](std::size_t k) {
    obs::set_enabled(false);
    sim.simulate(charges[k], dvts[k],
                 k % 2 == 0 ? spice::PulseShape::Kind::kRectangular
                            : spice::PulseShape::Kind::kTriangular);
    cc.rebind();
  };

  spice::TransientOptions latched = sim.transient_options();
  ASSERT_TRUE(latched.latch.has_value());
  spice::TransientOptions whole = latched;
  whole.latch.reset();

  for (const spice::TransientOptions* opt : {&latched, &whole}) {
    const bool latch = opt->latch.has_value();
    std::vector<std::vector<double>> x0(charges.size());
    std::vector<spice::Waveform> ref;
    // steps_per_run the runs of samples [first, first + count) must record:
    // one accepted step per reference sample after t = 0.
    const auto ref_steps = [&ref](std::size_t first, std::size_t count) {
      StepsPerRun want{0, 0, ~0ull, 0};
      for (std::size_t k = first; k < first + count; ++k) {
        const std::uint64_t steps = ref[k].sample_count() - 1;
        ++want[0];
        want[1] += steps;
        want[2] = std::min(want[2], steps);
        want[3] = std::max(want[3], steps);
      }
      return want;
    };
    for (std::size_t k = 0; k < charges.size(); ++k) {
      load(k);
      x0[k] = spice::solve_dc(c, guess);
      const StepsPerRun steps = steps_per_run_of([&] {
        ref.push_back(spice::run_transient(c, x0[k], *opt, probes));
      });
      EXPECT_EQ(steps, ref_steps(k, 1)) << k;
      if (!latch) {
        EXPECT_EQ(ref[k].times().back(), opt->t_end) << k;
      }
    }
    if (latch) {
      // Not vacuous: every sample latches early, at more than one step.
      std::vector<std::size_t> lengths;
      for (const spice::Waveform& w : ref) {
        EXPECT_LT(w.times().back(), opt->t_end);
        lengths.push_back(w.sample_count());
      }
      EXPECT_GT(*std::max_element(lengths.begin(), lengths.end()),
                *std::min_element(lengths.begin(), lengths.end()));
    }

    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{32}}) {
      spice::BatchWorkspace bw;
      cc.batch_configure(bw, width);
      for (std::size_t offset = 0; offset < charges.size(); offset += width) {
        std::vector<std::vector<double>> group(width);
        for (std::size_t g = 0; g < width; ++g) {
          load(offset + g);
          cc.batch_rebind_lane(bw, g);
          group[g] = x0[offset + g];
        }
        spice::BatchTransientResult res;
        const StepsPerRun steps = steps_per_run_of([&] {
          res = spice::run_transient_batch(cc, bw, group, *opt, probes);
        });
        EXPECT_EQ(steps, ref_steps(offset, width))
            << "width " << width << " group " << offset / width;
        for (std::size_t g = 0; g < width; ++g) {
          ASSERT_FALSE(res.failed[g]) << res.errors[g];
          spice::expect_same_waveform(
              ref[offset + g], res.waves[g],
              ((latch ? "latched" : "whole") + std::string(" width ") +
               std::to_string(width) + " sample " +
               std::to_string(offset + g))
                  .c_str());
        }
      }
    }
  }
  obs::Registry::global().reset();
}

// ---------------------------------------------------------------------------
// Lane-batched StrikeSimulator and characterizer
// ---------------------------------------------------------------------------

struct LaneWidthGuard {
  explicit LaneWidthGuard(std::size_t w) { spice::set_lane_width(w); }
  ~LaneWidthGuard() { spice::set_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

// simulate_batch must reproduce scalar simulate() byte for byte at every
// lane width, for group sizes that exercise full groups, internal splitting
// (count > width) and ragged tails — and the per-sample results must not
// depend on the width or on where the batch boundaries fall.
TEST(SpiceBatch, StrikeOutcomesMatchScalarAcrossWidths) {
  const CellDesign design;
  stats::Rng rng(991199);

  // A sample set that reuses some ΔVt vectors (hold-cache hits) and spans
  // both pulse kinds.
  constexpr std::size_t kCount = 67;
  std::vector<StrikeCharges> charges;
  std::vector<DeltaVt> dvts;
  for (std::size_t k = 0; k < kCount; ++k) {
    charges.push_back(StrikeCharges{rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3),
                                    rng.uniform(0.0, 0.3)});
    DeltaVt dvt{};
    if (k % 3 != 0) {
      for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
    }
    dvts.push_back(dvt);
  }
  const std::vector<std::uint8_t> all(kCount, 1);

  for (double vdd : {0.7, 1.0}) {
    // Scalar references from a fresh simulator.
    StrikeSimulator ref_sim(design, vdd);
    std::vector<StrikeOutcome> ref;
    for (std::size_t k = 0; k < kCount; ++k) {
      ref.push_back(ref_sim.simulate(charges[k], dvts[k],
                                     spice::PulseShape::Kind::kRectangular));
    }

    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{32}}) {
      LaneWidthGuard guard(width);
      StrikeSimulator sim(design, vdd);
      std::vector<StrikeSimulator::LaneOutcome> out;
      sim.simulate_batch(charges, dvts, spice::PulseShape::Kind::kRectangular,
                         all, out);
      ASSERT_EQ(out.size(), kCount);
      for (std::size_t k = 0; k < kCount; ++k) {
        ASSERT_FALSE(out[k].failed) << out[k].error;
        EXPECT_EQ(out[k].outcome.flipped, ref[k].flipped)
            << "vdd " << vdd << " width " << width << " sample " << k;
        EXPECT_EQ(out[k].outcome.final_q_v, ref[k].final_q_v);
        EXPECT_EQ(out[k].outcome.final_qb_v, ref[k].final_qb_v);
      }

      // Batch-boundary independence: the same samples fed one at a time
      // (every call a ragged tail of one) give the same answers.
      StrikeSimulator one_by_one(design, vdd);
      for (std::size_t k = 0; k < kCount; ++k) {
        std::vector<StrikeSimulator::LaneOutcome> single;
        one_by_one.simulate_batch({charges[k]}, {dvts[k]},
                                  spice::PulseShape::Kind::kRectangular, {1},
                                  single);
        ASSERT_FALSE(single[0].failed) << single[0].error;
        EXPECT_EQ(single[0].outcome.final_q_v, ref[k].final_q_v)
            << "width " << width << " sample " << k;
        EXPECT_EQ(single[0].outcome.final_qb_v, ref[k].final_qb_v);
      }
    }
  }
}

// Inactive lanes must be left untouched and active lanes must not feel them.
TEST(SpiceBatch, MaskedLanesAreUntouched) {
  LaneWidthGuard guard(4);
  const CellDesign design;
  StrikeSimulator sim(design, 0.8);
  const std::vector<StrikeCharges> charges(5, StrikeCharges{0.15, 0.0, 0.1});
  const std::vector<DeltaVt> dvts(5);
  const std::vector<std::uint8_t> active{1, 0, 1, 0, 1};
  std::vector<StrikeSimulator::LaneOutcome> out(5);
  out[1].error = "sentinel";
  out[3].error = "sentinel";
  sim.simulate_batch(charges, dvts, spice::PulseShape::Kind::kRectangular,
                     active, out);
  EXPECT_EQ(out[1].error, "sentinel");
  EXPECT_EQ(out[3].error, "sentinel");
  const StrikeOutcome want = StrikeSimulator(design, 0.8).simulate(
      charges[0], dvts[0], spice::PulseShape::Kind::kRectangular);
  for (std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ASSERT_FALSE(out[k].failed) << out[k].error;
    EXPECT_EQ(out[k].outcome.final_q_v, want.final_q_v) << "lane " << k;
    EXPECT_EQ(out[k].outcome.final_qb_v, want.final_qb_v);
  }
}

/// A StrikeFeed over a list that opens a new task every third strike and
/// records each strike's outcome.
struct ListStrikeFeed final : StrikeFeed {
  ListStrikeFeed(const std::vector<StrikeCharges>& strike_charges,
                 const std::vector<DeltaVt>& strike_dvts)
      : charges(strike_charges), dvts(strike_dvts), out(strike_charges.size()),
        reports(strike_charges.size(), 0) {}

  bool next(std::size_t lane, StrikeSimulator::Strike& strike) override {
    if (next_strike == charges.size()) return false;
    job[lane] = next_strike;
    strike.charges = charges[next_strike];
    strike.delta_vt = dvts[next_strike];
    strike.new_task = next_strike % 3 == 0;
    ++next_strike;
    return true;
  }

  void done(std::size_t lane,
            const StrikeSimulator::LaneOutcome& outcome) override {
    out[job[lane]] = outcome;
    ++reports[job[lane]];
  }

  const std::vector<StrikeCharges>& charges;
  const std::vector<DeltaVt>& dvts;
  std::size_t next_strike = 0;
  std::array<std::size_t, spice::kMaxLaneWidth> job{};
  std::vector<StrikeSimulator::LaneOutcome> out;
  std::vector<int> reports;
};

struct FaultReset {
  ~FaultReset() { util::fault_configure(""); }
};

// simulate_stream() over many more strikes than lanes — charges straddling
// the critical charge, random ΔVt, one strike whose hold solve fails (a NaN
// shift) and one whose bind the newton_diverge hook fails — reports every
// strike once, byte-identical to simulate() on the same inputs, at every
// lane width.
TEST(SpiceStream, StrikeOutcomesMatchSimulateAcrossWidths) {
  const CellDesign design;
  constexpr double kVdd = 0.8;
  const auto kind = spice::PulseShape::Kind::kRectangular;
  StrikeSimulator probe(design, kVdd);
  const double qc =
      bisect_critical_scale(probe, StrikeCharges{1, 0, 0}, DeltaVt{}, 0.4, 2e-4, kind);
  ASSERT_LT(qc, SingleCdf::kNeverFlips);

  constexpr std::size_t kStrikes = 37;
  constexpr std::size_t kDcFailure = 11;
  constexpr std::size_t kInjected = 23;
  stats::Rng rng(8675309);
  std::vector<StrikeCharges> charges;
  std::vector<DeltaVt> dvts;
  for (std::size_t k = 0; k < kStrikes; ++k) {
    charges.push_back(StrikeCharges{qc * rng.uniform(0.85, 1.15),
                                    k % 4 == 0 ? rng.uniform(0.0, 0.05) : 0.0,
                                    0.0});
    DeltaVt dvt{};
    if (k % 5 != 0) {
      for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
    }
    dvts.push_back(dvt);
  }
  dvts[kDcFailure][0] = std::numeric_limits<double>::quiet_NaN();

  // simulate() references on a fresh simulator, no fault armed.
  std::vector<StrikeOutcome> ref(kStrikes);
  std::vector<std::string> ref_error(kStrikes);
  {
    StrikeSimulator sim(design, kVdd);
    for (std::size_t k = 0; k < kStrikes; ++k) {
      try {
        ref[k] = sim.simulate(charges[k], dvts[k], kind);
      } catch (const util::NumericalError& e) {
        ref_error[k] = e.what();
      }
    }
  }
  ASSERT_FALSE(ref_error[kDcFailure].empty());
  const std::size_t flips = static_cast<std::size_t>(std::count_if(
      ref.begin(), ref.end(), [](const StrikeOutcome& o) { return o.flipped; }));
  EXPECT_GT(flips, 5u);
  EXPECT_LT(flips, kStrikes - 5);
  // simulate()'s injected failure text, for the strike the hook fails.
  {
    const FaultReset reset;
    util::fault_configure("newton_diverge:1");
    StrikeSimulator sim(design, kVdd);
    try {
      sim.simulate(charges[kInjected], dvts[kInjected], kind);
      FAIL() << "the armed fault did not fire";
    } catch (const util::NumericalError& e) {
      ref_error[kInjected] = e.what();
    }
  }

  for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                            std::size_t{32}}) {
    LaneWidthGuard guard(width);
    const FaultReset reset;
    // The hook counts binds in feed order: hit kInjected + 1 is strike
    // kInjected.
    util::fault_configure("newton_diverge:" + std::to_string(kInjected + 1));
    StrikeSimulator sim(design, kVdd);
    ListStrikeFeed feed(charges, dvts);
    sim.simulate_stream(feed, kind);
    for (std::size_t k = 0; k < kStrikes; ++k) {
      const std::string where =
          "width " + std::to_string(width) + " strike " + std::to_string(k);
      ASSERT_EQ(feed.reports[k], 1) << where;
      const StrikeSimulator::LaneOutcome& got = feed.out[k];
      if (!ref_error[k].empty()) {
        EXPECT_TRUE(got.failed) << where;
        EXPECT_EQ(got.error, ref_error[k]) << where;
        continue;
      }
      ASSERT_FALSE(got.failed) << where << ": " << got.error;
      EXPECT_EQ(got.outcome.flipped, ref[k].flipped) << where;
      EXPECT_EQ(got.outcome.final_q_v, ref[k].final_q_v) << where;
      EXPECT_EQ(got.outcome.final_qb_v, ref[k].final_qb_v) << where;
    }
  }
}

// simulate_batch() is a list feed over the stream: a list longer than the
// lane width refills, and each entry still matches simulate().
TEST(SpiceStream, LongBatchListsMatchSimulate) {
  LaneWidthGuard guard(4);
  const CellDesign design;
  const auto kind = spice::PulseShape::Kind::kRectangular;
  stats::Rng rng(31337);
  std::vector<StrikeCharges> charges;
  std::vector<DeltaVt> dvts;
  for (int k = 0; k < 19; ++k) {
    charges.push_back(StrikeCharges{rng.uniform(0.0, 0.3), 0.0,
                                    rng.uniform(0.0, 0.1)});
    DeltaVt dvt{};
    for (double& v : dvt) v = rng.normal(0.0, design.sigma_vt);
    dvts.push_back(dvt);
  }
  std::vector<std::uint8_t> active(charges.size(), 1);
  active[2] = 0;
  active[9] = 0;
  StrikeSimulator sim(design, 0.9);
  std::vector<StrikeSimulator::LaneOutcome> out(charges.size());
  out[2].error = "sentinel";
  out[9].error = "sentinel";
  sim.simulate_batch(charges, dvts, kind, active, out);
  StrikeSimulator ref(design, 0.9);
  for (std::size_t k = 0; k < charges.size(); ++k) {
    if (!active[k]) {
      EXPECT_EQ(out[k].error, "sentinel") << k;
      continue;
    }
    const StrikeOutcome want = ref.simulate(charges[k], dvts[k], kind);
    ASSERT_FALSE(out[k].failed) << out[k].error;
    EXPECT_EQ(out[k].outcome.final_q_v, want.final_q_v) << k;
    EXPECT_EQ(out[k].outcome.final_qb_v, want.final_qb_v) << k;
  }
}

// The full characterization table — CDFs, nominal boundaries, grid MC — must
// be byte-identical for every lane width.
TEST(SpiceBatch, CharacterizeAtAgreesAcrossLaneWidths) {
  CharacterizerConfig cfg;
  cfg.vdds = {0.8};
  cfg.pv_samples_single = 5;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 3;
  cfg.seed = 99;
  cfg.threads = 2;
  const CellDesign design;
  const CellCharacterizer ch(design, cfg);

  auto table_bytes = [&](std::size_t width) {
    LaneWidthGuard guard(width);
    const PofTable t = ch.characterize_at(0.8, 5);
    util::ByteWriter w;
    t.write(w);
    return w.take();
  };
  const std::vector<std::uint8_t> want = table_bytes(1);
  EXPECT_EQ(want, table_bytes(4));
  EXPECT_EQ(want, table_bytes(8));
  EXPECT_EQ(want, table_bytes(32));
}

// ---------------------------------------------------------------------------
// Kill-and-resume through the compiled characterizer path
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> model_bytes(const CellSoftErrorModel& model) {
  util::ByteWriter w;
  for (const PofTable& t : model.tables) t.write(w);
  return w.take();
}

/// The store-backed characterization of two voltages: cancelled as soon as
/// vdd=0.9 reports progress (vdd=0.7 is then a `pof_table` artifact, and no
/// cell model exists yet), then resumed without the token. Returns the
/// resumed model; \p restored counts the rerun's restored voltages.
CellSoftErrorModel cancel_and_resume(const CellDesign& design,
                                     const CharacterizerConfig& cfg,
                                     const std::string& root,
                                     std::size_t& restored) {
  std::filesystem::remove_all(root);
  const pipeline::ArtifactStore store(root);
  pipeline::ArtifactBinCache models(store, "cell_model");
  pipeline::ArtifactBinCache tables(store, "pof_table");

  exec::CancelToken token;
  bool saw_second = false;
  const exec::ProgressSink canceller([&](const std::string& msg) {
    if (msg.find("vdd=0.9") != std::string::npos && !saw_second) {
      saw_second = true;
      token.cancel();
    }
  });
  EXPECT_THROW(core::load_or_characterize(design, cfg, &models, &tables,
                                          canceller, &token),
               util::Cancelled);
  EXPECT_TRUE(saw_second);
  std::vector<std::string> kinds;
  for (const pipeline::ArtifactStore::Entry& e : store.list()) {
    kinds.push_back(e.key.kind);
  }
  EXPECT_EQ(kinds, std::vector<std::string>{"pof_table"});

  // Resume without the token: the stored voltage is restored, the other
  // one characterized, and the model stored.
  restored = 0;
  const exec::ProgressSink watch([&](const std::string& msg) {
    if (msg.find("1/2 voltage(s) restored") != std::string::npos) ++restored;
  });
  bool characterized = false;
  const CellSoftErrorModel got = core::load_or_characterize(
      design, cfg, &models, &tables, watch, nullptr, &characterized);
  EXPECT_TRUE(characterized);
  std::filesystem::remove_all(root);
  return got;
}

CharacterizerConfig resume_config() {
  CharacterizerConfig cfg;
  cfg.vdds = {0.7, 0.9};
  cfg.pv_samples_single = 6;
  cfg.pair_grid_points = 6;
  cfg.triple_grid_points = 6;
  cfg.pv_samples_grid = 4;
  cfg.seed = 13;
  cfg.threads = 2;
  return cfg;
}

TEST(SpiceCompiled, CharacterizerResumesThroughCompiledPath) {
  const CharacterizerConfig cfg = resume_config();
  const CellDesign design;

  // Uninterrupted baseline (no store at all).
  const CellSoftErrorModel want = CellCharacterizer(design, cfg).characterize();

  std::size_t restored = 0;
  const CellSoftErrorModel got = cancel_and_resume(
      design, cfg,
      (std::filesystem::temp_directory_path() / "finser_compiled_resume")
          .string(),
      restored);
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(model_bytes(want), model_bytes(got));
}

// Same contract with the lane-batched engine forced on: a killed batched run
// resumes to the byte-identical model — and that model equals a scalar
// (width 1) uninterrupted run, so a resume may even change lane width.
TEST(SpiceBatch, CharacterizerResumesThroughBatchedPath) {
  const CharacterizerConfig cfg = resume_config();
  const CellDesign design;

  std::vector<std::uint8_t> want;
  {
    LaneWidthGuard scalar(1);
    want = model_bytes(CellCharacterizer(design, cfg).characterize());
  }

  LaneWidthGuard batched(4);
  std::size_t restored = 0;
  const CellSoftErrorModel got = cancel_and_resume(
      design, cfg,
      (std::filesystem::temp_directory_path() / "finser_batched_resume")
          .string(),
      restored);
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(want, model_bytes(got));
}

}  // namespace
}  // namespace finser::sram
