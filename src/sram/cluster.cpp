#include "finser/sram/cluster.hpp"

#include <cmath>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/bytes.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fingerprint.hpp"

namespace finser::sram {

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

// ---------------------------------------------------------------------------
// ClusterSimulator
// ---------------------------------------------------------------------------

ClusterSimulator::ClusterSimulator(const CellDesign& design, double vdd_v,
                                   std::size_t tile_rows, std::size_t tile_cols)
    : cells_(tile_rows * tile_cols),
      sim_(design, vdd_v, AccessMode::kRetention) {
  FINSER_REQUIRE(tile_rows >= 1 && tile_cols >= 1,
                 "ClusterSimulator: tile must contain at least one cell");
}

ClusterSimulator::Outcome ClusterSimulator::simulate(
    const std::vector<CellStrike>& strikes, const std::vector<DeltaVt>& dvts,
    PulseShape::Kind kind) {
  FINSER_REQUIRE(dvts.size() == cell_count(),
                 "ClusterSimulator: one DeltaVt per tile cell required");
  Outcome out;
  out.flipped.assign(cell_count(), 0);
  for (const CellStrike& s : strikes) {
    FINSER_REQUIRE(s.local < cell_count(),
                   "ClusterSimulator: strike local index out of range");
    if (sim_.simulate(s.charges, dvts[s.local], kind).flipped) {
      out.flipped[s.local] = 1;
      ++out.flip_count;
    }
  }
  return out;
}

void ClusterSimulator::simulate_batch(
    const std::vector<CellStrike>& strikes,
    const std::vector<std::vector<DeltaVt>>& dvt_samples,
    PulseShape::Kind kind, std::vector<Outcome>& out) {
  const std::size_t count = dvt_samples.size();
  const std::size_t n = strikes.size();
  for (const CellStrike& s : strikes) {
    FINSER_REQUIRE(s.local < cell_count(),
                   "ClusterSimulator: strike local index out of range");
  }
  // Lane k·n + i runs struck cell i of sample k.
  std::vector<StrikeCharges> charges(count * n);
  std::vector<DeltaVt> dvts(count * n);
  for (std::size_t k = 0; k < count; ++k) {
    FINSER_REQUIRE(dvt_samples[k].size() == cell_count(),
                   "ClusterSimulator: one DeltaVt per tile cell required");
    for (std::size_t i = 0; i < n; ++i) {
      charges[k * n + i] = strikes[i].charges;
      dvts[k * n + i] = dvt_samples[k][strikes[i].local];
    }
  }
  const std::vector<std::uint8_t> active(count * n, 1);
  std::vector<StrikeSimulator::LaneOutcome> lanes;
  sim_.simulate_batch(charges, dvts, kind, active, lanes);

  out.assign(count, Outcome{});
  for (std::size_t k = 0; k < count; ++k) {
    Outcome& o = out[k];
    o.flipped.assign(cell_count(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const StrikeSimulator::LaneOutcome& lane = lanes[k * n + i];
      if (lane.failed) {
        o = Outcome{};
        o.failed = true;
        o.error = lane.error;
        break;
      }
      if (lane.outcome.flipped) {
        o.flipped[strikes[i].local] = 1;
        ++o.flip_count;
      }
    }
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
  lock.unlock();

  // The simulations run unlocked. A throwing evaluation releases its key
  // without an entry, so a later query recomputes the key.
  std::vector<double> dist;
  try {
    dist = evaluate(key, vdd_v, with_pv, cells);
  } catch (...) {
    finish_miss(key, nullptr);
    throw;
  }
  out = dist;
  finish_miss(key, &dist);
}

void ClusterPofSurface::finish_miss(const Key& key, std::vector<double>* dist) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (dist != nullptr) memo_.emplace(key, std::move(*dist));
    in_flight_.erase(key);
  }
  landed_.notify_all();
}

std::vector<double> ClusterPofSurface::evaluate(
    const Key& key, double vdd_v, bool with_pv,
    const std::vector<CellCharge>& cells) const {
  ClusterSimulator sim(design_, vdd_v, tile_rows(), tile_cols());
  const std::size_t n = cells.size();

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
    const auto tc = static_cast<std::int64_t>(tile_cols());
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

  // Flips are counted among the struck cells, the only ones simulated.
  std::vector<double> counts(n + 1, 0.0);
  const std::vector<DeltaVt> dvts(sim.cell_count(), DeltaVt{});

  std::size_t successes = 0;
  std::string last_error = "no samples run";
  if (!with_pv) {
    // Nominal channel: every struck cell at zero threshold shift — the
    // cluster analogue of the LUT's nominal column; a point mass.
    try {
      const auto o = sim.simulate(strikes, dvts, kClusterPulse);
      counts[o.flip_count] += 1.0;
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
    // in ascending local order, six normals per cell (unstruck cells are
    // not simulated and draw nothing).
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
      counts[o.flip_count] += 1.0;
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
  const std::size_t tile_cells = tile_rows() * tile_cols();
  const auto malformed = [](const std::string& what) {
    throw util::Error("ClusterPofSurface: malformed surface entry (" + what +
                      ")");
  };
  // Decode and check the whole payload before merging any of it: a
  // CRC-valid artifact with one bad entry must not leave the others
  // absorbed, nor serve a distribution no query of this tile could have.
  util::ByteReader r(blob.data(), blob.size());
  const std::uint64_t entries = r.u64();
  std::vector<std::pair<Key, std::vector<double>>> decoded;
  for (std::uint64_t e = 0; e < entries; ++e) {
    const std::uint64_t klen = r.u64();
    if (klen < 3 || klen > 3 + 4 * tile_cells) {
      malformed("key " + std::to_string(klen) + " words");
    }
    Key key(klen);
    for (auto& v : key) v = static_cast<std::int64_t>(r.u64());
    const std::int64_t n = key[2];
    if (n < 1 || static_cast<std::uint64_t>(n) > tile_cells ||
        klen != 3 + 4 * static_cast<std::uint64_t>(n)) {
      malformed("key of " + std::to_string(klen) + " words claims " +
                std::to_string(n) + " cells");
    }
    if (key[1] != 0 && key[1] != 1) malformed("PV flag " + std::to_string(key[1]));
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t local = key[3 + 4 * i];
      if (local < 0 || static_cast<std::uint64_t>(local) >= tile_cells ||
          (i > 0 && local <= key[3 + 4 * (i - 1)])) {
        malformed("local indices not ascending within the tile");
      }
    }
    std::vector<double> dist = r.f64_vec();
    if (dist.size() != static_cast<std::size_t>(n) + 1) {
      malformed("distribution " + std::to_string(dist.size()) + " bins for " +
                std::to_string(n) + " cells");
    }
    for (const double p : dist) {
      if (!(p >= 0.0 && p <= 1.0)) malformed("probability outside [0, 1]");
    }
    decoded.emplace_back(std::move(key), std::move(dist));
  }
  if (!r.exhausted()) malformed("trailing bytes");

  // Values are pure functions of keys: any entry already present is
  // necessarily identical, so first-in wins without comparison.
  std::size_t absorbed = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, dist] : decoded) {
    if (memo_.emplace(std::move(key), std::move(dist)).second) ++absorbed;
  }
  return absorbed;
}

}  // namespace finser::sram
