#pragma once
/// \file batch.hpp
/// \brief The compiled transient engine: lane-batched, W = 1 included
/// (public surface).
///
/// Characterization solves millions of *independent* strike transients on the
/// same topology: PV samples never interact, so W of them can advance in
/// lockstep with every per-lane quantity held in AoSoA blocks of width W —
/// slot s of lane w lives at `array[s * W + w]`, the unit-stride inner
/// dimension the compiler auto-vectorizes. The lane loops are plain C++ (no
/// intrinsics): the arithmetic is elementwise IEEE-754 with no reductions
/// across lanes, so vectorizing it cannot change any lane's bits, and every
/// transcendental goes through the deterministic kernels of vecmath.hpp.
/// That is the bit-pinned contract (docs/spice.md): every lane is
/// **byte-identical** to the interpreted reference engine the tests keep as
/// their oracle, for every lane width, at any thread count — W is a pure
/// throughput knob. This is the only compiled transient loop: a scalar
/// compiled transient is a one-lane group (run_transient_single()), and the
/// compiled DC loop (dc.hpp) stamps and factors its lanes with the same
/// kernels.
///
/// Lanes are *masked, not branched around*: a lane that is between Newton
/// iterations, finished or failed keeps riding the vector tick (its stamps
/// and LU are computed and discarded). Per-lane Newton bookkeeping —
/// damping, convergence, step control, the escalation ladder — stays scalar
/// per lane and follows the reference loop statement for statement. So does
/// the opt-in latch stop (TransientOptions::latch): each lane stops on its
/// own step. run_transient_batch() runs a fixed set of at most W
/// transients, so an ended lane rides masked until the slowest one
/// finishes; run_transient_stream() refills a lane from a TransientFeed in
/// the same bookkeeping pass that ends its transient, so a lane only idles
/// once the feed has no job left for it. Both are the same loop, and since
/// lanes never read each other, a transient's bits do not depend on its
/// lane, its neighbours or when it started.
///
/// Width: the build fixes it. `kDefaultLaneWidth` is the measured best width
/// for the widest vector unit the build targets — 32 on AVX-512, where four
/// independent vectors per slot keep a tick's divisions and exp/log chains
/// from running back to back, and 4 on AVX2 (docs/spice.md, "The width") —
/// or 1 under the FINSER_SCALAR_LANES CMake option. Every width of
/// kLaneWidths is always compiled and runs the same loop, so the width only
/// changes how many transients advance per tick; set_lane_width() is the
/// seam the cross-width tests use to run the others.
///
/// The LU of each tick follows the circuit's structural pattern
/// (CompiledCircuit::lu_pattern()): it never divides, updates or sums an
/// entry the matrix cannot hold, and is bit-identical per lane to
/// Mna::solve_with_cache() (docs/spice.md, "The structural LU").

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "finser/spice/compiled.hpp"
#include "finser/spice/transient.hpp"

namespace finser::spice {

/// The widths the engine is compiled at: the portable scalar width, the
/// AVX2 default, 8 (the cross-width tests' middle width) and the AVX-512
/// default.
inline constexpr std::array<std::size_t, 4> kLaneWidths{1, 4, 8, 32};

/// Hard ceiling on the lane count (sizes the per-lane cold-state arrays).
inline constexpr std::size_t kMaxLaneWidth = kLaneWidths.back();

/// Compile-time auto width (see the file comment).
/// FINSER_SCALAR_LANES (CMake option) forces the portable width-1 default.
#if defined(FINSER_SCALAR_LANES)
inline constexpr std::size_t kDefaultLaneWidth = 1;
#elif defined(__AVX512F__)
inline constexpr std::size_t kDefaultLaneWidth = 32;
#else
inline constexpr std::size_t kDefaultLaneWidth = 4;
#endif

/// True for the widths of kLaneWidths and for 0 (= back to the build
/// default, accepted by set_lane_width()).
inline constexpr bool lane_width_valid(std::size_t w) {
  if (w == 0) return true;
  for (const std::size_t v : kLaneWidths) {
    if (v == w) return true;
  }
  return false;
}

/// kLaneWidths as text ("1, 4, 8 or 32"), for error messages.
std::string lane_width_list();

/// Lane width of this process: kDefaultLaneWidth unless set_lane_width()
/// overrode it.
std::size_t lane_width();

/// Override the lane width (0 = back to kDefaultLaneWidth): the seam the
/// cross-width tests use. Throws util::InvalidArgument unless
/// lane_width_valid(w).
void set_lane_width(std::size_t w);

/// Preallocated AoSoA scratch of one lane-batched circuit: the per-lane
/// rebound parameters, reactive state, dense MNA blocks and solver vectors,
/// plus the per-lane cold state (pivot caches, breakpoints). One workspace per (thread, compiled circuit); sized by
/// CompiledCircuit::batch_configure(). Hot arrays index as [slot * lanes + w].
struct BatchWorkspace {
  std::size_t lanes = 0;     ///< AoSoA width W (one of kLaneWidths).
  std::size_t unknowns = 0;  ///< System size n (sans ground scratch).

  // --- Per-lane rebound parameters (see batch_rebind_lane) -----------------
  std::vector<double> vsrc_v;       ///< [vsource * W + w].
  std::vector<PulseShape> is_shape; ///< [isource * W + w].
  /// FinFetPlan split per field (p_type stays on the shared MosRec — device
  /// polarity is lane-invariant, which keeps it a uniform branch).
  struct MosLanes {
    std::vector<double> n, dibl, lambda, phi_t, vt_base, is, is_lambda,
        duf_dvgs, duf_dvds, dur_dvds;
  } mos;

  // --- Per-lane reactive state ---------------------------------------------
  std::vector<double> cap_v_prev;  ///< [capacitor * W + w].
  std::vector<double> cap_i_prev;

  // --- Dense MNA blocks (written by batch_stamp_fused) ---------------------
  std::vector<double> fa;  ///< (n² + 1) × W, ground scratch slot included.
  std::vector<double> fb;  ///< (n + 1) × W.

  // --- Solver vectors ------------------------------------------------------
  std::vector<double> x;      ///< n × W: committed state per lane.
  std::vector<double> x_try;  ///< n × W: Newton iterate per lane.
  std::vector<double> x_new;  ///< n × W: LU solution per lane.

  // --- Lane-blocked LU scratch ---------------------------------------------
  /// Physical-position → original-row map per lane, [pos * W + w]. The
  /// batched LU swaps rows *physically* (per lane) instead of indirecting
  /// through a permutation, so the elimination inner loops use uniform
  /// indices across lanes and vectorize regardless of per-lane pivot
  /// divergence; this map only feeds the pivot-order cache bookkeeping.
  std::vector<std::size_t> perm;
  /// Per-lane pivot caches with Mna::PivotCache's meaning: lane w's cached
  /// order is pivot_perm[pos * W + w], valid where pivot_valid[w] != 0.
  std::vector<std::size_t> pivot_perm;
  std::array<std::uint8_t, kMaxLaneWidth> pivot_valid{};
  /// Row masks of the LU in flight, (n + 1) × lu_mask_words(n): they start
  /// as CompiledCircuit::lu_pattern() and follow swaps and fill; the last
  /// row is scratch.
  std::vector<std::uint64_t> lu_mask;

  // --- Per-lane transient cold state (scalar access only) ------------------
  std::array<std::vector<double>, kMaxLaneWidth> breaks;
};

/// Per-lane outcome of batch_lu_solve(). Each failure is the
/// util::NumericalError Mna::solve() throws for that lane's system; both
/// compiled Newton loops treat any of them as a convergence failure, as the
/// reference loops do with the throw.
enum class LaneLu : std::uint8_t {
  kOk = 0,
  kNonFiniteRhs,
  kSingular,
  kNonFiniteSolution,
};

/// The engine's LU on the bw.lanes systems in bw.fa / bw.fb, laid out as
/// batch_stamp_fused() writes them; every entry outside \p cc's
/// lu_pattern() must be +0. Per lane it computes the solution bits (into
/// bw.x_new) and the status of Mna::solve_with_cache() with the lane's
/// pivot cache (bw.pivot_perm / bw.pivot_valid), counters included, and
/// destroys fa / fb. Lanes with active[w] == 0 are solved but not counted.
/// Returns the number of factor divisions computed, each one vector across
/// every lane.
std::size_t batch_lu_solve(const CompiledCircuit& cc, BatchWorkspace& bw,
                           const std::uint8_t* active, LaneLu* status);

/// Per-lane results of one batched transient group. Lane w of the input maps
/// to index w here; lanes the caller left inactive (empty x0) come back with
/// an empty waveform and failed[w] == 0.
struct BatchTransientResult {
  std::vector<Waveform> waves;        ///< Size = lane count.
  std::vector<std::uint8_t> failed;   ///< 1 where the lane's run failed.
  /// The failure text per failed lane — the same message the reference
  /// engine throws as util::NumericalError for that transient.
  std::vector<std::string> errors;
};

/// Advance up to bw.lanes independent transients in lockstep. \p x0 supplies
/// one operating point per lane (size ≤ bw.lanes; an empty entry — or a
/// missing trailing one — marks the lane inactive, i.e. a masked-off ragged
/// tail). Per lane this computes byte-identical waveforms (latch stops
/// included) and failure text to the reference engine's run of the lane's
/// binding from x0[w]; a failed lane is reported in the result instead of
/// thrown, and never perturbs its neighbors. The circuit's per-lane
/// parameters must have been loaded with batch_rebind_lane() beforehand.
BatchTransientResult run_transient_batch(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes = {});

/// Job source of run_transient_stream(). The loop asks it for a job
/// whenever a lane is free — once per lane at the start, then in the
/// bookkeeping pass that ends the lane's transient — and hands every ended
/// job back before it asks for the lane's next one.
class TransientFeed {
 public:
  /// Bind the next job into lane \p lane of the run's workspace (device
  /// setters → CompiledCircuit::rebind() → batch_rebind_lane(bw, lane)) and
  /// return its operating point, which must stay valid until the lane's
  /// transient ends; nullptr if the feed has no job left for the lane, which
  /// then idles until the other lanes are done too.
  virtual const std::vector<double>* load(std::size_t lane) = 0;
  /// The job in \p lane ended: \p wave holds its waveform (the buffer is
  /// reused for the lane's next job) and \p error its failure text, or
  /// nullptr if it ran to t_end or latched.
  virtual void finish(std::size_t lane, const Waveform& wave,
                      const std::string* error) = 0;

 protected:
  ~TransientFeed() = default;
};

/// run_transient_batch() with refilling lanes: every lane of \p bw runs
/// jobs from \p feed until it is drained. A lane that starts a job resets
/// its clock, step, breakpoints, latch arming, Newton and escalation state,
/// reactive state and waveform, and drops its pivot cache (bookkeeping
/// only: pivots are always re-scanned), so each job's waveform and failure
/// text are byte-identical to a run_transient_single() of its binding.
void run_transient_stream(CompiledCircuit& cc, BatchWorkspace& bw,
                          TransientFeed& feed, const TransientOptions& opt,
                          const std::vector<std::string>& probe_nodes = {});

/// One transient from the circuit's current binding, run as a one-lane
/// group: \p bw is sized to one lane of \p cc on first use (a workspace of
/// another width or circuit is reconfigured) and lane 0 is rebound before
/// the run. Throws the lane's failure text as util::NumericalError.
Waveform run_transient_single(CompiledCircuit& cc, BatchWorkspace& bw,
                              const std::vector<double>& x0,
                              const TransientOptions& opt,
                              const std::vector<std::string>& probe_nodes = {});

}  // namespace finser::spice
