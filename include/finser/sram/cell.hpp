#pragma once
/// \file cell.hpp
/// \brief 6T SOI-FinFET SRAM cell: netlist construction and strike simulation.
///
/// The cell under study (paper Fig. 5a) holds Q=1/QB=0. The transistors
/// sensitive to radiation are the three that are OFF with |Vds| = Vdd:
///
///   * the pull-down at Q        — strike current I1 pulls Q toward GND;
///   * the pull-up at QB         — strike current I2 pulls QB toward VDD;
///   * the pass-gate at QB       — strike current I3 injects from BLB (pre-
///                                 charged to VDD) into QB.
///
/// A StrikeSimulator owns one cell circuit and answers "does this strike
/// flip the cell?" for arbitrary charge combinations, supply voltages,
/// pulse shapes and per-transistor threshold shifts. It is the SPICE step
/// of the paper's flow (Sec. 4), executed tens of thousands of times during
/// characterization.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "finser/phys/collection.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/circuit.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/transient.hpp"

namespace finser::sram {

/// The six transistors of a 6T cell. "L" is the Q side, "R" the QB side.
enum class Role : std::size_t {
  kPdL = 0,  ///< Pull-down NFET driving Q.
  kPuL = 1,  ///< Pull-up PFET driving Q.
  kPgL = 2,  ///< Pass-gate NFET at Q.
  kPdR = 3,  ///< Pull-down NFET driving QB.
  kPuR = 4,  ///< Pull-up PFET driving QB.
  kPgR = 5,  ///< Pass-gate NFET at QB.
};

inline constexpr std::size_t kRoleCount = 6;

/// Strike-current charge triple [fC] (paper Fig. 5a currents I1, I2, I3).
struct StrikeCharges {
  double i1_fc = 0.0;  ///< Into the OFF pull-down at the '1' node.
  double i2_fc = 0.0;  ///< Into the OFF pull-up at the '0' node.
  double i3_fc = 0.0;  ///< Into the OFF pass-gate at the '0' node.

  bool any() const { return i1_fc > 0.0 || i2_fc > 0.0 || i3_fc > 0.0; }
};

/// Per-transistor threshold shifts [V], indexed by Role.
using DeltaVt = std::array<double, kRoleCount>;

/// Cell topology.
enum class CellTopology {
  k6T,  ///< The paper's cell: shared read/write port (Fig. 5a).
  k8T,  ///< Read-decoupled cell: a 2-NFET read stack (gate on QB, gated by a
        ///< separate read wordline) buffers the storage nodes from the read
        ///< path. Retention SER is 6T-like; the read-disturb vulnerability
        ///< (see ablation_access_mode) disappears. Read-stack transistors
        ///< are not upset-sensitive — a strike there can only glitch the
        ///< read bitline, a transient read error rather than a bit flip.
};

/// Electrical design of the cell.
struct CellDesign {
  CellTopology topology = CellTopology::k6T;
  const spice::FinFetModel* nfet = nullptr;  ///< Default: default_nfet().
  const spice::FinFetModel* pfet = nullptr;  ///< Default: default_pfet().
  double nfin_pd = 1.0;  ///< Fins per pull-down.
  double nfin_pg = 1.0;  ///< Fins per pass-gate.
  double nfin_pu = 1.0;  ///< Fins per pull-up.
  /// Explicit storage-node capacitance [F]. Calibrated so the cell's
  /// critical charge spans ~0.11 fC (Vdd = 0.7 V) to ~0.18 fC (1.1 V):
  /// alpha strikes near the Bragg peak (~1800 pairs through a full fin
  /// chord) clear it at every Vdd, while low-energy-proton deposits (~800
  /// pairs peak) only clear it at low Vdd — the regime that produces the
  /// paper's Fig. 9 crossover (see EXPERIMENTS.md).
  double cnode_f = 0.17e-15;
  double sigma_vt = 0.050;    ///< Threshold-variation sigma [V] (Wang et al., 14 nm SOI).
  double temp_k = 300.0;      ///< Junction temperature [K].
  phys::FinTechnology tech;   ///< Fin geometry / mobility (pulse width).
};

/// Result of one strike transient. The voltages are those of the run's last
/// step: in retention a run stops once the cell has latched (see
/// StrikeSimulator), so they are usually stop-time voltages within
/// spice::kLatchMargin · Vdd of the rails rather than values at the end of
/// the 50 ps window.
struct StrikeOutcome {
  bool flipped = false;
  double final_q_v = 0.0;
  double final_qb_v = 0.0;
};

/// Operating condition of the cell during the strike.
enum class AccessMode {
  kRetention,  ///< Wordline low, bitlines precharged (the paper's scenario).
  kRead,       ///< Wordline high, bitlines held at the precharge level: the
               ///< read-disturb condition — the cell's weakest moment.
};

class StrikeFeed;

/// Reusable single-cell strike simulator at a fixed supply voltage.
///
/// The cell circuit is lowered to a spice::CompiledCircuit once, at
/// construction; every sample is a parameter rebind plus a DC solve and a
/// transient on persistent workspaces. The DC hold state is cached per ΔVt
/// vector (it is independent of the strike charges, so a whole Qcrit
/// bisection shares one DC solve), and solve_holds() solves the hold states
/// of many ΔVt vectors lane-batched ahead of their strikes. Transients run
/// on the lane-batched engine: simulate() as a one-lane group,
/// simulate_stream() and simulate_batch() on spice::lane_width() lanes that
/// refill as strikes end. Results are bit-identical to the tests'
/// interpreted reference engine replaying circuit() with
/// transient_options().
///
/// In AccessMode::kRetention the transient options carry a latch stop on
/// {q, qb} (spice::LatchStop): a run ends at the first step past the strike
/// pulse where both storage nodes sit within 2% of Vdd of opposite rails,
/// since the flip verdict cannot change after that. Read mode keeps the
/// whole 50 ps window.
class StrikeSimulator {
 public:
  StrikeSimulator(const CellDesign& design, double vdd_v,
                  AccessMode mode = AccessMode::kRetention);

  StrikeSimulator(const StrikeSimulator&) = delete;
  StrikeSimulator& operator=(const StrikeSimulator&) = delete;

  /// Simulate a strike delivering \p charges with the given pulse shape
  /// kind and threshold shifts. The pulse width is the transit time
  /// τ = L²/(μ·Vdd) (paper Eq. 2). Runs one transient as a one-lane group
  /// on a workspace of its own; throws util::NumericalError if the solve
  /// fails.
  StrikeOutcome simulate(
      const StrikeCharges& charges, const DeltaVt& delta_vt = {},
      spice::PulseShape::Kind kind = spice::PulseShape::Kind::kRectangular);

  /// Per-lane result of simulate_batch(). A failed lane carries the text the
  /// scalar simulate() would have thrown as util::NumericalError.
  struct LaneOutcome {
    StrikeOutcome outcome;
    bool failed = false;
    std::string error;
  };

  /// A DC hold state solved ahead of its strike by solve_holds().
  struct HoldState {
    std::vector<double> x;  ///< The operating point, unless failed.
    bool failed = false;
    std::string error;      ///< The text simulate() would have thrown.
  };

  /// One strike of a StrikeFeed.
  struct Strike {
    StrikeCharges charges;
    DeltaVt delta_vt{};
    /// The strike opens a new task of the feed: its lane drops its DC hold
    /// cache first, so the lane's cache hits depend only on the task's own
    /// strikes, never on which task the lane ran before.
    bool new_task = false;
    /// The hold state of delta_vt, solved ahead by solve_holds(), or null:
    /// the lane then finds it in its cache or solves it when it binds the
    /// strike. Attach one only to a strike whose bind misses the lane's
    /// cache — a new task's first strike, or one whose ΔVt differs from
    /// that of the lane's previous strike — so the solve only moves and
    /// every count stays what it was. It must stay valid until the feed is
    /// asked for the lane's next strike.
    const HoldState* hold = nullptr;
  };

  /// Lane-batched simulate() over a stream: every one of lane_width() lanes
  /// takes strikes from \p feed and, the moment a strike's transient ends,
  /// reports its outcome and takes the next one, until the feed is drained.
  /// Binding a strike into a lane runs the fault hook, the parameter
  /// rebind and the lane's ΔVt-keyed DC hold cache; a miss takes the hold
  /// state the feed solved ahead (Strike::hold), lane-batched, or solves it
  /// as a one-lane solve. A strike whose hold solve fails is reported
  /// without taking the lane. Each outcome — flip decision, final node
  /// voltages, failure text — is byte-identical to a simulate() call with
  /// the same inputs, at every lane width.
  void simulate_stream(StrikeFeed& feed, spice::PulseShape::Kind kind);

  /// simulate_stream() over a list: run \p charges[k] with \p dvts[k] for
  /// every k with \p active[k] != 0, in list order, into \p out[k] (entries
  /// of inactive k are left untouched). A failing strike is reported in
  /// \p out instead of thrown. The first lane_width() active entries take
  /// lanes 0, 1, …, so a caller that repeats a short list keeps each sample
  /// in a stable lane and its DC hold cache hits. The hold states of the
  /// entries whose ΔVt appears neither elsewhere in the list nor in a lane's
  /// cache — entries no lane cache can serve — are solved ahead with
  /// solve_holds().
  void simulate_batch(
      const std::vector<StrikeCharges>& charges,
      const std::vector<DeltaVt>& dvts, spice::PulseShape::Kind kind,
      const std::vector<std::uint8_t>& active, std::vector<LaneOutcome>& out);

  /// Solve the DC hold states of \p dvts[0, \p count) into \p out, lane-
  /// batched: groups of up to spice::lane_width() vectors run through
  /// spice::solve_dc_batch(). Each state — operating point or failure
  /// text — is byte-identical to the one simulate() solves for that ΔVt,
  /// and so is the `spice.dc.*` work it counts. Changes the device
  /// parameters of circuit(); safe to call from StrikeFeed::next().
  void solve_holds(const DeltaVt* dvts, std::size_t count, HoldState* out);

  /// Static-noise-margin style diagnostic: the hold-state solution.
  /// Returns {V(Q), V(QB)} of the DC operating point with no strike.
  std::array<double, 2> hold_state(const DeltaVt& delta_vt = {});

  double vdd() const { return vdd_v_; }
  const CellDesign& design() const { return design_; }
  AccessMode mode() const { return mode_; }

  /// The cell netlist. Its devices carry the ΔVt and strike shapes of the
  /// last simulate()/hold_state() call, so the tests' interpreted reference
  /// engine can replay that sample on it.
  const spice::Circuit& circuit() const { return circuit_; }
  const spice::TransientOptions& transient_options() const { return topt_; }

  /// Scale the strike pulse width relative to the transit time τ (default
  /// 1.0). The delivered charge is held constant, so this directly tests
  /// the paper's Sec.-4 claim that POF depends only on pulse area — see the
  /// pulse-shape ablation bench.
  void set_pulse_width_scale(double scale);
  double pulse_width_scale() const { return pulse_width_scale_; }

 private:
  class StreamBinder;  // simulate_stream()'s spice::TransientFeed.

  void apply_delta_vt(const DeltaVt& delta_vt);
  void set_strike_shapes(const StrikeCharges& charges,
                         spice::PulseShape::Kind kind);
  /// Outcome of a strike transient probed at {q, qb}.
  StrikeOutcome finish_wave(const spice::Waveform& wave) const;
  /// Expects apply_delta_vt() + rebind() done.
  const std::vector<double>& hold_cached(const DeltaVt& delta_vt);

  CellDesign design_;
  double vdd_v_;
  AccessMode mode_ = AccessMode::kRetention;
  double tau_s_;  ///< Drift-collection pulse width [s].
  double pulse_width_scale_ = 1.0;

  spice::Circuit circuit_;
  std::size_t n_q_, n_qb_, n_vdd_, n_bl_, n_blb_, n_wl_;
  std::array<spice::Mosfet*, kRoleCount> fets_{};
  spice::PulseISource* src_i1_ = nullptr;
  spice::PulseISource* src_i2_ = nullptr;
  spice::PulseISource* src_i3_ = nullptr;
  spice::TransientOptions topt_;

  // The lowered circuit, the DC hold guess (the Q=1/QB=0 state with the
  // supplies at their rails), the one-lane and batched DC workspaces, and
  // simulate()'s ΔVt-keyed DC hold cache and one-lane transient workspace.
  std::optional<spice::CompiledCircuit> compiled_;
  std::vector<double> hold_guess_;
  spice::SolveWorkspace ws_;
  spice::SolveWorkspace dc_ws_;
  spice::DcBatchResult dc_out_;
  bool hold_valid_ = false;
  DeltaVt hold_dvt_{};
  std::vector<double> hold_x_;
  spice::BatchWorkspace bw1_;

  // simulate_stream() state: the AoSoA workspace (configured lazily to the
  // current lane width) and one ΔVt-keyed DC hold cache per lane.
  spice::BatchWorkspace bw_;
  std::array<bool, spice::kMaxLaneWidth> hold_lane_valid_{};
  std::array<DeltaVt, spice::kMaxLaneWidth> hold_lane_dvt_{};
  std::array<std::vector<double>, spice::kMaxLaneWidth> hold_lane_x_{};
  // simulate_batch()'s hold states solved ahead.
  std::vector<HoldState> batch_holds_;
};

/// Strike source of StrikeSimulator::simulate_stream(). A feed hands out
/// the strikes of its tasks lane by lane: a lane's next strike may depend on
/// the outcome of its previous one (a bisection's next probe does), because
/// the simulator reports a lane's outcome before it asks for that lane's
/// next strike.
class StrikeFeed {
 public:
  /// The next strike for free lane \p lane, or false if the feed has none
  /// left for it (the lane then idles until the other lanes are done).
  virtual bool next(std::size_t lane, StrikeSimulator::Strike& strike) = 0;
  /// The outcome of the strike \p lane last took from next().
  virtual void done(std::size_t lane,
                    const StrikeSimulator::LaneOutcome& outcome) = 0;

 protected:
  ~StrikeFeed() = default;
};

}  // namespace finser::sram
