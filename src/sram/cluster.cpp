#include "finser/sram/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "finser/obs/obs.hpp"
#include "finser/spice/dc.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"
#include "finser/util/units.hpp"

namespace finser::sram {

using spice::kGround;
using spice::Mosfet;
using spice::PulseISource;
using spice::PulseShape;

std::size_t cluster_rows(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::k2x2:
      return 2;
    case ClusterMode::k1x1:
    case ClusterMode::k1x4:
      return 1;
  }
  return 1;
}

std::size_t cluster_cols(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::k2x2:
      return 2;
    case ClusterMode::k1x4:
      return 4;
    case ClusterMode::k1x1:
      return 1;
  }
  return 1;
}

const char* cluster_mode_name(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::k2x2:
      return "2x2";
    case ClusterMode::k1x4:
      return "1x4";
    case ClusterMode::k1x1:
      return "1x1";
  }
  return "1x1";
}

std::optional<ClusterMode> cluster_mode_from(const std::string& name) {
  if (name == "1x1") return ClusterMode::k1x1;
  if (name == "2x2") return ClusterMode::k2x2;
  if (name == "1x4") return ClusterMode::k1x4;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ClusterSimulator
// ---------------------------------------------------------------------------

ClusterSimulator::ClusterSimulator(const CellDesign& design, double vdd_v,
                                   std::size_t tile_rows, std::size_t tile_cols)
    : design_(design),
      vdd_v_(vdd_v),
      tile_rows_(tile_rows),
      tile_cols_(tile_cols) {
  FINSER_REQUIRE(vdd_v > 0.0, "ClusterSimulator: Vdd must be positive");
  FINSER_REQUIRE(tile_rows >= 1 && tile_cols >= 1 && tile_rows * tile_cols >= 1,
                 "ClusterSimulator: tile must contain at least one cell");
  if (design_.nfet == nullptr) design_.nfet = &spice::default_nfet();
  if (design_.pfet == nullptr) design_.pfet = &spice::default_pfet();

  tau_s_ = util::fs_to_s(phys::transit_time_fs(design_.tech, vdd_v_));

  const std::size_t cells = cell_count();

  // Shared rails: one supply and one (low — retention only) wordline for the
  // whole tile, one precharged bitline pair per tile column. The bitlines
  // are the electrical coupling path between vertically adjacent cells: both
  // cells' pass gates hang off the same bl/blb nodes, exactly as in a
  // physical column.
  n_vdd_ = circuit_.node("vdd");
  n_wl_ = circuit_.node("wl");
  circuit_.add<spice::VSource>(circuit_, n_vdd_, kGround, vdd_v_);
  circuit_.add<spice::VSource>(circuit_, n_wl_, kGround, 0.0);
  n_bl_.resize(tile_cols_);
  n_blb_.resize(tile_cols_);
  for (std::size_t c = 0; c < tile_cols_; ++c) {
    n_bl_[c] = circuit_.node("bl" + std::to_string(c));
    n_blb_[c] = circuit_.node("blb" + std::to_string(c));
    circuit_.add<spice::VSource>(circuit_, n_bl_[c], kGround, vdd_v_);
    circuit_.add<spice::VSource>(circuit_, n_blb_[c], kGround, vdd_v_);
  }

  // Per-cell 6T core, every cell in the canonical Q=1/QB=0 frame — the
  // strike folding (strike_index) already canonicalized each cell's charge
  // triple against its stored bit, so the tile netlist never needs to know
  // the data pattern (see docs/charge_sharing.md for the approximation this
  // buys and costs).
  n_q_.resize(cells);
  n_qb_.resize(cells);
  fets_.resize(cells);
  srcs_.resize(cells);
  const PulseShape zero{};
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t col = i % tile_cols_;
    n_q_[i] = circuit_.node("q" + std::to_string(i));
    n_qb_[i] = circuit_.node("qb" + std::to_string(i));

    // Cross-coupled inverters (same construction order as StrikeSimulator).
    fets_[i][static_cast<std::size_t>(Role::kPdL)] = &circuit_.add<Mosfet>(
        n_q_[i], n_qb_[i], kGround, *design_.nfet, design_.nfin_pd);
    fets_[i][static_cast<std::size_t>(Role::kPuL)] = &circuit_.add<Mosfet>(
        n_q_[i], n_qb_[i], n_vdd_, *design_.pfet, design_.nfin_pu);
    fets_[i][static_cast<std::size_t>(Role::kPdR)] = &circuit_.add<Mosfet>(
        n_qb_[i], n_q_[i], kGround, *design_.nfet, design_.nfin_pd);
    fets_[i][static_cast<std::size_t>(Role::kPuR)] = &circuit_.add<Mosfet>(
        n_qb_[i], n_q_[i], n_vdd_, *design_.pfet, design_.nfin_pu);
    // Pass gates onto the column's shared bitlines (wordline low).
    fets_[i][static_cast<std::size_t>(Role::kPgL)] = &circuit_.add<Mosfet>(
        n_bl_[col], n_wl_, n_q_[i], *design_.nfet, design_.nfin_pg);
    fets_[i][static_cast<std::size_t>(Role::kPgR)] = &circuit_.add<Mosfet>(
        n_blb_[col], n_wl_, n_qb_[i], *design_.nfet, design_.nfin_pg);
    for (Mosfet* fet : fets_[i]) fet->set_temperature(design_.temp_k);

    // Storage-node capacitances (gate + junction, lumped).
    circuit_.add<spice::Capacitor>(n_q_[i], kGround, design_.cnode_f);
    circuit_.add<spice::Capacitor>(n_qb_[i], kGround, design_.cnode_f);

    // Strike current sources (paper Fig. 5a), per cell; shapes bound per
    // simulation, zero for unstruck cells.
    srcs_[i][0] = &circuit_.add<PulseISource>(n_q_[i], kGround, zero);
    srcs_[i][1] = &circuit_.add<PulseISource>(n_vdd_, n_qb_[i], zero);
    srcs_[i][2] = &circuit_.add<PulseISource>(n_blb_[col], n_qb_[i], zero);

    probes_.push_back("q" + std::to_string(i));
    probes_.push_back("qb" + std::to_string(i));
  }

  // Same transient window as the single-cell simulator: the pulses are ~10 fs
  // wide and a 14 nm cell regenerates in < 1 ps, so 50 ps covers flip or
  // recovery of every tile cell.
  topt_.t_end = 50e-12;
  topt_.dt_initial = 1e-15;
  topt_.dt_max = 1e-12;

  // The netlist is final: lower it once. Every simulate() is a rebind.
  compiled_.emplace(circuit_);
}

void ClusterSimulator::bind(const std::vector<CellStrike>& strikes,
                            const std::vector<DeltaVt>& dvts,
                            PulseShape::Kind kind) {
  FINSER_REQUIRE(dvts.size() == cell_count(),
                 "ClusterSimulator: one DeltaVt per tile cell required");
  constexpr double kDelayS = 1e-12;
  const double width_s = tau_s_;
  const PulseShape zero{};
  for (std::size_t i = 0; i < cell_count(); ++i) {
    for (std::size_t r = 0; r < kRoleCount; ++r) {
      fets_[i][r]->set_delta_vt(dvts[i][r]);
    }
    for (PulseISource* src : srcs_[i]) src->set_shape(zero);
  }
  auto shape = [&](double q_fc) {
    const double q_c = util::fc_to_c(q_fc);
    return kind == PulseShape::Kind::kRectangular
               ? PulseShape::rectangular_for_charge(q_c, width_s, kDelayS)
               : PulseShape::triangular_for_charge(q_c, width_s, kDelayS);
  };
  for (const CellStrike& s : strikes) {
    FINSER_REQUIRE(s.local < cell_count(),
                   "ClusterSimulator: strike local index out of range");
    srcs_[s.local][0]->set_shape(shape(s.charges.i1_fc));
    srcs_[s.local][1]->set_shape(shape(s.charges.i2_fc));
    srcs_[s.local][2]->set_shape(shape(s.charges.i3_fc));
  }
  compiled_->rebind();
}

std::vector<double> ClusterSimulator::hold_guess() const {
  std::vector<double> guess(circuit_.unknown_count(), 0.0);
  for (std::size_t i = 0; i < cell_count(); ++i) {
    guess[n_q_[i]] = vdd_v_;
    guess[n_qb_[i]] = 0.0;
  }
  guess[n_vdd_] = vdd_v_;
  for (std::size_t c = 0; c < tile_cols_; ++c) {
    guess[n_bl_[c]] = vdd_v_;
    guess[n_blb_[c]] = vdd_v_;
  }
  return guess;
}

ClusterSimulator::Outcome ClusterSimulator::finish_wave(
    const spice::Waveform& wave) const {
  Outcome out;
  out.flipped.assign(cell_count(), 0);
  for (std::size_t i = 0; i < cell_count(); ++i) {
    const double q = wave.final_value(2 * i);
    const double qb = wave.final_value(2 * i + 1);
    // Same flip criterion as the single-cell path: the '1' node fell below
    // mid-rail and the '0' node rose above it.
    if (q < 0.5 * vdd_v_ && qb > 0.5 * vdd_v_) {
      out.flipped[i] = 1;
      ++out.flip_count;
    }
  }
  return out;
}

ClusterSimulator::Outcome ClusterSimulator::simulate(
    const std::vector<CellStrike>& strikes, const std::vector<DeltaVt>& dvts,
    PulseShape::Kind kind) {
  bind(strikes, dvts, kind);
  const auto x0 = spice::solve_dc(*compiled_, ws_, hold_guess());
  return finish_wave(
      spice::run_transient_single(*compiled_, bw1_, x0, topt_, probes_));
}

void ClusterSimulator::simulate_batch(
    const std::vector<CellStrike>& strikes,
    const std::vector<std::vector<DeltaVt>>& dvt_samples,
    PulseShape::Kind kind, std::vector<Outcome>& out) {
  const std::size_t count = dvt_samples.size();
  out.assign(count, Outcome{});

  const std::size_t width = spice::lane_width();
  if (bw_.lanes != width) compiled_->batch_configure(bw_, width);

  std::vector<std::vector<double>> x0s;
  for (std::size_t offset = 0; offset < count; offset += width) {
    const std::size_t group = std::min(width, count - offset);
    x0s.assign(group, {});
    bool any = false;
    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t k = offset + g;
      // Bind lane g: same setter+rebind sequence as simulate(), then
      // captured into the lane's AoSoA slices. The DC hold solve stays
      // scalar (one per sample; the joint transient dominates the cost).
      bind(strikes, dvt_samples[k], kind);
      compiled_->batch_rebind_lane(bw_, g);
      try {
        x0s[g] = spice::solve_dc(*compiled_, ws_, hold_guess());
        any = true;
      } catch (const util::NumericalError& e) {
        out[k].failed = true;
        out[k].error = e.what();
      }
    }
    if (!any) continue;

    const spice::BatchTransientResult res =
        spice::run_transient_batch(*compiled_, bw_, x0s, topt_, probes_);
    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t k = offset + g;
      if (x0s[g].empty()) continue;
      if (res.failed[g]) {
        out[k].failed = true;
        out[k].error = res.errors[g];
        continue;
      }
      out[k] = finish_wave(res.waves[g]);
    }
  }
}

void ClusterSimulator::reset_pivot_caches() {
  for (spice::BatchWorkspace* bw : {&ws_.lu, &bw1_, &bw_}) {
    for (spice::Mna::PivotCache& cache : bw->pivot) cache.invalidate();
  }
}

// ---------------------------------------------------------------------------
// ClusterPofSurface
// ---------------------------------------------------------------------------

namespace {

// The surface always uses the rectangular drift-collection pulse (the
// paper's Fig. 5a shape and the characterizer default).
constexpr PulseShape::Kind kClusterPulse = PulseShape::Kind::kRectangular;

// Stream id for PV-sample draws derived from a surface key hash.
constexpr std::uint64_t kPvStream = 0xC1u;

std::uint64_t key_hash(const std::vector<std::int64_t>& key) {
  util::Fnv1a h;
  h.str("finser.cluster_surface.key");
  for (const std::int64_t v : key) h.u64(static_cast<std::uint64_t>(v));
  return h.hash();
}

}  // namespace

ClusterPofSurface::ClusterPofSurface(const CellDesign& design,
                                     const ClusterConfig& config)
    : design_(design), config_(config) {
  FINSER_REQUIRE(config_.share_fraction >= 0.0 && config_.share_fraction < 1.0,
                 "ClusterPofSurface: share_fraction must be in [0, 1)");
  FINSER_REQUIRE(config_.quantum_fc > 0.0,
                 "ClusterPofSurface: quantum_fc must be positive");
  FINSER_REQUIRE(config_.pv_samples >= 1,
                 "ClusterPofSurface: pv_samples must be at least 1");
}

void ClusterPofSurface::flip_count_distribution(
    double vdd_v, bool with_pv, const std::vector<CellCharge>& cells,
    std::vector<double>& out) {
  FINSER_REQUIRE(!cells.empty(),
                 "ClusterPofSurface: at least one struck cell required");
  const std::size_t tile_cells = tile_rows() * tile_cols();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    FINSER_REQUIRE(cells[i].local < tile_cells,
                   "ClusterPofSurface: local index out of range");
    FINSER_REQUIRE(i == 0 || cells[i - 1].local < cells[i].local,
                   "ClusterPofSurface: cells must be sorted by local index");
  }

  // Quantize the joint charge vector into the canonical key. The *quantized*
  // charges (not the raw ones) are what gets simulated, so a memo hit
  // returns exactly what a fresh evaluation of the same key would.
  Key key;
  key.reserve(3 + 4 * cells.size());
  key.push_back(std::llround(vdd_v * 1e6));  // µV
  key.push_back(with_pv ? 1 : 0);
  key.push_back(static_cast<std::int64_t>(cells.size()));
  for (const CellCharge& c : cells) {
    key.push_back(static_cast<std::int64_t>(c.local));
    key.push_back(std::llround(c.charges.i1_fc / config_.quantum_fc));
    key.push_back(std::llround(c.charges.i2_fc / config_.quantum_fc));
    key.push_back(std::llround(c.charges.i3_fc / config_.quantum_fc));
  }

  // A key another query is simulating is waited for and then read as a hit,
  // so each key is simulated exactly once whatever the thread count.
  std::unique_lock<std::mutex> lock(mu_);
  landed_.wait(lock, [&] { return in_flight_.count(key) == 0; });
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    FINSER_OBS_COUNT("sram.cluster.surface_hit", 1);
    out = it->second;
    return;
  }
  FINSER_OBS_COUNT("sram.cluster.surface_miss", 1);
  in_flight_.insert(key);
  SimPtr sim;
  std::vector<SimPtr>& idle = idle_[key[0]];
  if (!idle.empty()) {
    sim = std::move(idle.back());
    idle.pop_back();
  }
  lock.unlock();

  // The joint simulation runs unlocked on a simulator no other query holds.
  // A throwing evaluation releases its key and simulator without an entry,
  // so a later query recomputes the key.
  std::vector<double> dist;
  try {
    if (!sim) {
      sim = std::make_unique<ClusterSimulator>(design_, vdd_v, tile_rows(),
                                               tile_cols());
    }
    sim->reset_pivot_caches();
    dist = evaluate(key, *sim, with_pv, cells);
  } catch (...) {
    finish_miss(key, std::move(sim), nullptr);
    throw;
  }
  out = dist;
  finish_miss(key, std::move(sim), &dist);
}

void ClusterPofSurface::finish_miss(const Key& key, SimPtr sim,
                                    std::vector<double>* dist) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (sim) idle_[key[0]].push_back(std::move(sim));
    if (dist != nullptr) memo_.emplace(key, std::move(*dist));
    in_flight_.erase(key);
  }
  landed_.notify_all();
}

std::vector<double> ClusterPofSurface::evaluate(
    const Key& key, ClusterSimulator& sim, bool with_pv,
    const std::vector<CellCharge>& cells) const {
  const std::size_t n = cells.size();
  const std::size_t tile_cells = sim.cell_count();

  // Dequantized charges — the values the key actually encodes.
  std::vector<ClusterSimulator::CellStrike> strikes(n);
  std::vector<double> totals(n);
  for (std::size_t i = 0; i < n; ++i) {
    strikes[i].local = cells[i].local;
    strikes[i].charges.i1_fc =
        static_cast<double>(key[4 + 4 * i]) * config_.quantum_fc;
    strikes[i].charges.i2_fc =
        static_cast<double>(key[5 + 4 * i]) * config_.quantum_fc;
    strikes[i].charges.i3_fc =
        static_cast<double>(key[6 + 4 * i]) * config_.quantum_fc;
    totals[i] = strikes[i].charges.i1_fc + strikes[i].charges.i2_fc +
                strikes[i].charges.i3_fc;
  }

  // Multi-node charge collection (arXiv:1706.03315): a fraction of each
  // struck cell's collected charge also appears on every adjacent struck
  // cell of the tile, injected into the dominant collection node (the off
  // pull-down drain — current I1). Monotone in charge, so correlation can
  // only add joint-flip mass relative to the independent model.
  if (config_.share_fraction > 0.0) {
    const auto tc = static_cast<std::int64_t>(sim.tile_cols());
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t ri = cells[i].local / tc, ci = cells[i].local % tc;
      double shared = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const std::int64_t rj = cells[j].local / tc, cj = cells[j].local % tc;
        if (std::llabs(ri - rj) + std::llabs(ci - cj) == 1) {
          shared += totals[j];
        }
      }
      strikes[i].charges.i1_fc += config_.share_fraction * shared;
    }
  }

  // Count flips among the *struck* cells only: unstruck tile cells carry no
  // injection and a spurious neighbour flip through the shared bitlines
  // would be a solver artifact, not a modeled mechanism.
  std::vector<double> counts(n + 1, 0.0);
  const DeltaVt zero_dvt{};
  std::vector<DeltaVt> dvts(tile_cells, zero_dvt);
  const auto struck_flips = [&](const ClusterSimulator::Outcome& o) {
    std::size_t flips = 0;
    for (const auto& s : strikes) flips += o.flipped[s.local] != 0 ? 1 : 0;
    return flips;
  };

  std::size_t successes = 0;
  std::string last_error = "no samples run";
  if (!with_pv) {
    // Nominal channel: one joint transient at zero threshold shift — the
    // cluster analogue of the LUT's nominal column; a point mass.
    try {
      const auto o = sim.simulate(strikes, dvts, kClusterPulse);
      counts[struck_flips(o)] += 1.0;
      successes = 1;
    } catch (const util::NumericalError& e) {
      last_error = e.what();
      FINSER_OBS_COUNT("sram.cluster.sim_fail", 1);
    }
    FINSER_OBS_COUNT("sram.cluster.sims", 1);
  } else {
    // With-PV channel: joint ΔVt samples, lane-batched. Seeds derive from
    // the key hash, not from any caller RNG — the entry is a pure function
    // of its key, so values are identical no matter which thread, worker or
    // query order computes them first. Draws are sample-major, struck cells
    // in ascending local order, six normals per cell (the unstruck cells'
    // variation only enters through bitline coupling and is omitted).
    stats::Rng rng = stats::Rng::stream(key_hash(key), kPvStream);
    std::vector<std::vector<DeltaVt>> samples(config_.pv_samples, dvts);
    for (auto& sample : samples) {
      for (const auto& s : strikes) {
        for (std::size_t r = 0; r < kRoleCount; ++r) {
          sample[s.local][r] = rng.normal(0.0, design_.sigma_vt);
        }
      }
    }
    std::vector<ClusterSimulator::Outcome> outs;
    sim.simulate_batch(strikes, samples, kClusterPulse, outs);
    FINSER_OBS_COUNT("sram.cluster.sims", outs.size());
    for (const auto& o : outs) {
      if (o.failed) {
        last_error = o.error;
        FINSER_OBS_COUNT("sram.cluster.sim_fail", 1);
        continue;
      }
      counts[struck_flips(o)] += 1.0;
      ++successes;
    }
  }

  if (successes == 0) {
    throw util::NumericalError(
        "ClusterPofSurface: every joint sample failed to converge (" +
        last_error + ")");
  }
  std::vector<double> dist(n + 1, 0.0);
  for (std::size_t k = 0; k <= n; ++k) {
    dist[k] = counts[k] / static_cast<double>(successes);
  }
  return dist;
}

std::size_t ClusterPofSurface::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

std::uint64_t ClusterPofSurface::fingerprint(
    std::uint64_t model_fingerprint) const {
  util::Fnv1a h;
  h.str("finser.cluster_surface.v1");
  h.u64(model_fingerprint);
  h.u64(static_cast<std::uint64_t>(config_.mode));
  h.f64(config_.share_fraction);
  h.u64(config_.pv_samples);
  h.f64(config_.quantum_fc);
  return h.hash();
}

std::vector<std::uint8_t> ClusterPofSurface::encode() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::ByteWriter w;
  w.u64(memo_.size());
  for (const auto& [key, dist] : memo_) {
    w.u64(key.size());
    for (const std::int64_t v : key) w.u64(static_cast<std::uint64_t>(v));
    w.f64_vec(dist);
  }
  return w.take();
}

std::size_t ClusterPofSurface::decode_merge(
    const std::vector<std::uint8_t>& blob) {
  util::ByteReader r(blob.data(), blob.size());
  const std::uint64_t entries = r.u64();
  std::size_t absorbed = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint64_t e = 0; e < entries; ++e) {
    const std::uint64_t klen = r.u64();
    if (klen < 3 || klen > 4096) {
      throw util::Error("ClusterPofSurface: malformed surface entry (key " +
                        std::to_string(klen) + " words)");
    }
    Key key(klen);
    for (auto& v : key) v = static_cast<std::int64_t>(r.u64());
    std::vector<double> dist = r.f64_vec();
    if (dist.empty() || dist.size() > 1 + tile_rows() * tile_cols()) {
      throw util::Error(
          "ClusterPofSurface: malformed surface entry (distribution " +
          std::to_string(dist.size()) + " bins)");
    }
    // Values are pure functions of keys: any entry already present is
    // necessarily identical, so first-in wins without comparison.
    if (memo_.emplace(std::move(key), std::move(dist)).second) ++absorbed;
  }
  return absorbed;
}

}  // namespace finser::sram
