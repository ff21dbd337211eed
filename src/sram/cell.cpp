#include "finser/sram/cell.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "finser/obs/obs.hpp"
#include "finser/spice/dc.hpp"
#include "finser/util/error.hpp"
#include "finser/util/fault.hpp"
#include "finser/util/units.hpp"

namespace finser::sram {

using spice::kGround;
using spice::Mosfet;
using spice::PulseISource;
using spice::PulseShape;

StrikeSimulator::StrikeSimulator(const CellDesign& design, double vdd_v,
                                 AccessMode mode)
    : design_(design), vdd_v_(vdd_v), mode_(mode) {
  FINSER_REQUIRE(vdd_v > 0.0, "StrikeSimulator: Vdd must be positive");
  if (design_.nfet == nullptr) design_.nfet = &spice::default_nfet();
  if (design_.pfet == nullptr) design_.pfet = &spice::default_pfet();

  tau_s_ = util::fs_to_s(phys::transit_time_fs(design_.tech, vdd_v_));

  n_q_ = circuit_.node("q");
  n_qb_ = circuit_.node("qb");
  n_vdd_ = circuit_.node("vdd");
  n_bl_ = circuit_.node("bl");
  n_blb_ = circuit_.node("blb");
  n_wl_ = circuit_.node("wl");

  circuit_.add<spice::VSource>(circuit_, n_vdd_, kGround, vdd_v_);
  circuit_.add<spice::VSource>(circuit_, n_bl_, kGround, vdd_v_);   // precharged
  circuit_.add<spice::VSource>(circuit_, n_blb_, kGround, vdd_v_);  // precharged
  // Write wordline: low in retention; high during a 6T read access (the
  // read-disturb condition). The 8T cell reads through its dedicated read
  // wordline instead, so its write wordline stays low in both modes.
  const bool wl_high =
      mode_ == AccessMode::kRead && design_.topology == CellTopology::k6T;
  circuit_.add<spice::VSource>(circuit_, n_wl_, kGround, wl_high ? vdd_v_ : 0.0);

  // Cross-coupled inverters.
  fets_[static_cast<std::size_t>(Role::kPdL)] =
      &circuit_.add<Mosfet>(n_q_, n_qb_, kGround, *design_.nfet, design_.nfin_pd);
  fets_[static_cast<std::size_t>(Role::kPuL)] =
      &circuit_.add<Mosfet>(n_q_, n_qb_, n_vdd_, *design_.pfet, design_.nfin_pu);
  fets_[static_cast<std::size_t>(Role::kPdR)] =
      &circuit_.add<Mosfet>(n_qb_, n_q_, kGround, *design_.nfet, design_.nfin_pd);
  fets_[static_cast<std::size_t>(Role::kPuR)] =
      &circuit_.add<Mosfet>(n_qb_, n_q_, n_vdd_, *design_.pfet, design_.nfin_pu);
  // Pass gates (wordline low).
  fets_[static_cast<std::size_t>(Role::kPgL)] =
      &circuit_.add<Mosfet>(n_bl_, n_wl_, n_q_, *design_.nfet, design_.nfin_pg);
  fets_[static_cast<std::size_t>(Role::kPgR)] =
      &circuit_.add<Mosfet>(n_blb_, n_wl_, n_qb_, *design_.nfet, design_.nfin_pg);

  for (spice::Mosfet* fet : fets_) fet->set_temperature(design_.temp_k);

  // 8T read-decoupled topology: a 2-NFET read stack (M7 gated by QB, M8 by
  // the read wordline) buffering the storage nodes from the read bitline.
  // In retention the read wordline is low; in kRead mode *it* (not the
  // write wordline) is asserted — the storage nodes never see the bitline.
  if (design_.topology == CellTopology::k8T) {
    const auto n_rbl = circuit_.node("rbl");
    const auto n_rwl = circuit_.node("rwl");
    const auto n_rint = circuit_.node("rint");
    circuit_.add<spice::VSource>(circuit_, n_rbl, kGround, vdd_v_);  // precharge
    circuit_.add<spice::VSource>(circuit_, n_rwl, kGround,
                                 mode_ == AccessMode::kRead ? vdd_v_ : 0.0);
    auto& m7 = circuit_.add<Mosfet>(n_rint, n_qb_, kGround, *design_.nfet,
                                    design_.nfin_pd);
    auto& m8 = circuit_.add<Mosfet>(n_rbl, n_rwl, n_rint, *design_.nfet,
                                    design_.nfin_pg);
    m7.set_temperature(design_.temp_k);
    m8.set_temperature(design_.temp_k);
    circuit_.add<spice::Capacitor>(n_rint, kGround, 0.02e-15);
    // The write wordline stays low in both modes for the 8T cell; the
    // VSource added above already encodes kRetention for it when 8T.
  }

  // Storage-node capacitances (gate + junction, lumped).
  circuit_.add<spice::Capacitor>(n_q_, kGround, design_.cnode_f);
  circuit_.add<spice::Capacitor>(n_qb_, kGround, design_.cnode_f);

  // Strike current sources (paper Fig. 5a); shapes set per simulation.
  const PulseShape zero{};
  src_i1_ = &circuit_.add<PulseISource>(n_q_, kGround, zero);   // PD at Q.
  src_i2_ = &circuit_.add<PulseISource>(n_vdd_, n_qb_, zero);   // PU at QB.
  src_i3_ = &circuit_.add<PulseISource>(n_blb_, n_qb_, zero);   // PG at QB.

  // Transient window: the pulse is ~10 fs; 50 ps comfortably covers the flip
  // or recovery of a 14 nm cell (regeneration time constants are < 1 ps).
  topt_.t_end = 50e-12;
  topt_.dt_initial = 1e-15;
  topt_.dt_max = 1e-12;
  // Only the flip verdict is needed, so in retention a run stops once the
  // storage nodes sit at opposite rails after the pulse. With the wordline
  // high the '0' node is held off its rail and can pass through the band
  // and still recover, so read mode integrates the whole window.
  if (mode_ == AccessMode::kRetention) {
    topt_.latch = spice::LatchStop{n_q_, n_qb_, vdd_v_};
  }

  // The netlist is final: lower it once. Every simulate() from here on is a
  // rebind, never a rebuild.
  compiled_.emplace(circuit_);

  hold_guess_.assign(circuit_.unknown_count(), 0.0);
  hold_guess_[n_q_] = vdd_v_;
  hold_guess_[n_vdd_] = vdd_v_;
  hold_guess_[n_bl_] = vdd_v_;
  hold_guess_[n_blb_] = vdd_v_;
}

void StrikeSimulator::set_pulse_width_scale(double scale) {
  FINSER_REQUIRE(scale > 0.0, "set_pulse_width_scale: scale must be positive");
  pulse_width_scale_ = scale;
}

void StrikeSimulator::apply_delta_vt(const DeltaVt& delta_vt) {
  for (std::size_t r = 0; r < kRoleCount; ++r) {
    fets_[r]->set_delta_vt(delta_vt[r]);
  }
}

const std::vector<double>& StrikeSimulator::hold_cached(const DeltaVt& delta_vt) {
  // The DC hold state depends only on the threshold shifts (strike sources
  // are open in DC, supplies are fixed), so one solve serves every charge
  // probed against the same ΔVt vector — in a Qcrit bisection that is the
  // whole bisection. Exact-equality keying is deliberate: a cache hit
  // returns what a fresh deterministic solve of identical inputs would, so
  // results are independent of hit patterns (and of thread/chunk layout).
  if (hold_valid_ && hold_dvt_ == delta_vt) {
    FINSER_OBS_COUNT("sram.strike.dc_reuse", 1);
    return hold_x_;
  }
  hold_x_ = spice::solve_dc(*compiled_, ws_, hold_guess_);
  hold_dvt_ = delta_vt;
  hold_valid_ = true;
  return hold_x_;
}

void StrikeSimulator::solve_holds(const DeltaVt* dvts, std::size_t count,
                                  HoldState* out) {
  const std::size_t width = spice::lane_width();
  for (std::size_t first = 0; first < count; first += width) {
    const std::size_t group = std::min(width, count - first);
    // The narrowest compiled width that holds the group: a short group does
    // not pay for a wide tick of masked riders.
    const std::size_t lanes = *std::find_if(
        spice::kLaneWidths.begin(), spice::kLaneWidths.end(),
        [group](std::size_t w) { return w >= group; });
    if (dc_ws_.lu.lanes != lanes) compiled_->batch_configure(dc_ws_.lu, lanes);
    for (std::size_t k = 0; k < group; ++k) {
      apply_delta_vt(dvts[first + k]);
      compiled_->rebind();
      compiled_->batch_rebind_lane(dc_ws_.lu, k);
    }
    spice::solve_dc_batch(*compiled_, dc_ws_, group, hold_guess_, dc_out_);
    for (std::size_t k = 0; k < group; ++k) {
      HoldState& h = out[first + k];
      h.failed = dc_out_.failed[k] != 0;
      h.x.swap(dc_out_.x[k]);
      h.error.swap(dc_out_.errors[k]);
    }
  }
}

std::array<double, 2> StrikeSimulator::hold_state(const DeltaVt& delta_vt) {
  apply_delta_vt(delta_vt);
  compiled_->rebind();
  const auto& x = hold_cached(delta_vt);
  return {x[n_q_], x[n_qb_]};
}

void StrikeSimulator::set_strike_shapes(const StrikeCharges& charges,
                                        PulseShape::Kind kind) {
  // All three currents share the drift-collection width τ and start together
  // 1 ps into the run (so the waveform shows the undisturbed hold level).
  constexpr double kDelayS = 1e-12;
  const double width_s = tau_s_ * pulse_width_scale_;
  auto shape = [&](double q_fc) {
    const double q_c = util::fc_to_c(q_fc);
    return kind == PulseShape::Kind::kRectangular
               ? PulseShape::rectangular_for_charge(q_c, width_s, kDelayS)
               : PulseShape::triangular_for_charge(q_c, width_s, kDelayS);
  };
  src_i1_->set_shape(shape(charges.i1_fc));
  src_i2_->set_shape(shape(charges.i2_fc));
  src_i3_->set_shape(shape(charges.i3_fc));
}

StrikeOutcome StrikeSimulator::finish_wave(const spice::Waveform& wave) const {
  StrikeOutcome out;
  out.final_q_v = wave.final_value(0);
  out.final_qb_v = wave.final_value(1);
  // Flip detection: the '1' node fell below mid-rail and the '0' node rose
  // above it (a regenerated cell returns to its rails within the window).
  out.flipped = out.final_q_v < 0.5 * vdd_v_ && out.final_qb_v > 0.5 * vdd_v_;
  return out;
}

namespace {

constexpr const char* kInjectedDivergence =
    "StrikeSimulator::simulate: injected Newton divergence "
    "(FINSER_FAULT newton_diverge)";

StrikeSimulator::LaneOutcome failed_outcome(std::string error) {
  StrikeSimulator::LaneOutcome out;
  out.failed = true;
  out.error = std::move(error);
  return out;
}

}  // namespace

StrikeOutcome StrikeSimulator::simulate(const StrikeCharges& charges,
                                        const DeltaVt& delta_vt,
                                        PulseShape::Kind kind) {
  // Fault-injection hook: the Nth strike simulation "diverges" exactly like
  // a real Newton failure would, exercising the characterizer's
  // count-and-exclude path (util/fault.hpp).
  if (util::fault_fire(util::FaultSite::kNewtonDiverge)) {
    throw util::NumericalError(kInjectedDivergence);
  }

  // Mutate the source devices, then rebind the plan once. The strike shapes
  // are open in DC, so setting them before the hold solve changes nothing
  // there.
  apply_delta_vt(delta_vt);
  set_strike_shapes(charges, kind);
  compiled_->rebind();
  const auto& x0 = hold_cached(delta_vt);
  return finish_wave(
      spice::run_transient_single(*compiled_, bw1_, x0, topt_, {"q", "qb"}));
}

/// Binds a StrikeFeed's strikes into the lanes of simulate_stream()'s
/// transient stream and turns each ended transient into the strike's
/// outcome.
class StrikeSimulator::StreamBinder final : public spice::TransientFeed {
 public:
  StreamBinder(StrikeSimulator& sim, StrikeFeed& feed, PulseShape::Kind kind)
      : sim_(sim), feed_(feed), kind_(kind) {}

  const std::vector<double>* load(std::size_t lane) override {
    for (Strike strike; feed_.next(lane, strike); strike = Strike{}) {
      if (strike.new_task) sim_.hold_lane_valid_[lane] = false;
      // Fault-injection hook, fired in bind order (mirrors simulate()).
      if (util::fault_fire(util::FaultSite::kNewtonDiverge)) {
        feed_.done(lane, failed_outcome(kInjectedDivergence));
        continue;
      }
      // Same setter+rebind sequence as simulate(), then captured into the
      // lane's AoSoA slices.
      sim_.apply_delta_vt(strike.delta_vt);
      sim_.set_strike_shapes(strike.charges, kind_);
      sim_.compiled_->rebind();
      sim_.compiled_->batch_rebind_lane(sim_.bw_, lane);
      // Per-lane ΔVt-keyed DC hold cache (see hold_cached for why exact
      // keying keeps results independent of hit patterns). A miss takes the
      // hold state the feed had solved ahead, lane-batched, or solves it
      // here as a one-lane solve.
      std::vector<double>& x0 = sim_.hold_lane_x_[lane];
      if (sim_.hold_lane_valid_[lane] &&
          sim_.hold_lane_dvt_[lane] == strike.delta_vt) {
        FINSER_OBS_COUNT("sram.strike.dc_reuse", 1);
        return &x0;
      }
      sim_.hold_lane_valid_[lane] = false;
      if (strike.hold != nullptr) {
        if (strike.hold->failed) {
          feed_.done(lane, failed_outcome(strike.hold->error));
          continue;
        }
        x0 = strike.hold->x;
      } else {
        try {
          x0 = spice::solve_dc(*sim_.compiled_, sim_.ws_, sim_.hold_guess_);
        } catch (const util::NumericalError& e) {
          feed_.done(lane, failed_outcome(e.what()));
          continue;
        }
      }
      sim_.hold_lane_dvt_[lane] = strike.delta_vt;
      sim_.hold_lane_valid_[lane] = true;
      return &x0;
    }
    return nullptr;
  }

  void finish(std::size_t lane, const spice::Waveform& wave,
              const std::string* error) override {
    if (error != nullptr) {
      feed_.done(lane, failed_outcome(*error));
      return;
    }
    LaneOutcome out;
    out.outcome = sim_.finish_wave(wave);
    feed_.done(lane, out);
  }

 private:
  StrikeSimulator& sim_;
  StrikeFeed& feed_;
  PulseShape::Kind kind_;
};

void StrikeSimulator::simulate_stream(StrikeFeed& feed, PulseShape::Kind kind) {
  const std::size_t width = spice::lane_width();
  if (bw_.lanes != width) {
    compiled_->batch_configure(bw_, width);
    hold_lane_valid_.fill(false);
  }
  StreamBinder binder(*this, feed, kind);
  spice::run_transient_stream(*compiled_, bw_, binder, topt_, {"q", "qb"});
}

namespace {

/// A hash of a ΔVt vector consistent with ==: equal vectors (±0 alike) hash
/// alike. NaN equals nothing, so its hash is free.
std::uint64_t dvt_hash(const DeltaVt& dvt) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : dvt) {
    h = (h ^ (v == 0.0 ? 0u : std::bit_cast<std::uint64_t>(v))) *
        0x100000001b3ull;
  }
  return h;
}

constexpr std::size_t kNotAhead = static_cast<std::size_t>(-1);

}  // namespace

void StrikeSimulator::simulate_batch(const std::vector<StrikeCharges>& charges,
                                     const std::vector<DeltaVt>& dvts,
                                     PulseShape::Kind kind,
                                     const std::vector<std::uint8_t>& active,
                                     std::vector<LaneOutcome>& out) {
  const std::size_t count = charges.size();
  FINSER_REQUIRE(dvts.size() == count && active.size() == count,
                 "simulate_batch: input size mismatch");
  if (out.size() < count) out.resize(count);

  // Solve ahead, lane-batched, the hold states of the active entries whose
  // ΔVt appears nowhere else in the list nor in a lane's hold cache: the
  // bind of such an entry misses the cache of whichever lane takes it, so
  // its solve only moves. A hash collision merely leaves the entries
  // involved to be solved when they bind.
  std::vector<std::uint64_t> seen;
  if (bw_.lanes == spice::lane_width()) {
    for (std::size_t w = 0; w < bw_.lanes; ++w) {
      if (hold_lane_valid_[w]) seen.push_back(dvt_hash(hold_lane_dvt_[w]));
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    if (active[k]) seen.push_back(dvt_hash(dvts[k]));
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> ahead(count, kNotAhead);
  std::vector<DeltaVt> ahead_dvts;
  for (std::size_t k = 0; k < count; ++k) {
    if (!active[k]) continue;
    const auto [lo, hi] =
        std::equal_range(seen.begin(), seen.end(), dvt_hash(dvts[k]));
    if (hi - lo != 1) continue;
    ahead[k] = ahead_dvts.size();
    ahead_dvts.push_back(dvts[k]);
  }
  if (batch_holds_.size() < ahead_dvts.size()) {
    batch_holds_.resize(ahead_dvts.size());
  }
  solve_holds(ahead_dvts.data(), ahead_dvts.size(), batch_holds_.data());

  // Hands out the active entries in list order; entry k's outcome lands in
  // out[k].
  class ListFeed final : public StrikeFeed {
   public:
    ListFeed(const std::vector<StrikeCharges>& charges,
             const std::vector<DeltaVt>& dvts,
             const std::vector<std::uint8_t>& active,
             const std::vector<std::size_t>& ahead,
             const std::vector<HoldState>& holds,
             std::vector<LaneOutcome>& out)
        : charges_(charges),
          dvts_(dvts),
          active_(active),
          ahead_(ahead),
          holds_(holds),
          out_(out) {}

    bool next(std::size_t lane, Strike& strike) override {
      while (next_ < charges_.size() && !active_[next_]) ++next_;
      if (next_ == charges_.size()) return false;
      entry_[lane] = next_;
      strike.charges = charges_[next_];
      strike.delta_vt = dvts_[next_];
      if (ahead_[next_] != kNotAhead) strike.hold = &holds_[ahead_[next_]];
      ++next_;
      return true;
    }
    void done(std::size_t lane, const LaneOutcome& outcome) override {
      out_[entry_[lane]] = outcome;
    }

   private:
    const std::vector<StrikeCharges>& charges_;
    const std::vector<DeltaVt>& dvts_;
    const std::vector<std::uint8_t>& active_;
    const std::vector<std::size_t>& ahead_;
    const std::vector<HoldState>& holds_;
    std::vector<LaneOutcome>& out_;
    std::size_t next_ = 0;
    std::array<std::size_t, spice::kMaxLaneWidth> entry_{};
  };
  ListFeed feed(charges, dvts, active, ahead, batch_holds_, out);
  simulate_stream(feed, kind);
}

}  // namespace finser::sram
