#pragma once
/// \file compiled.hpp
/// \brief Compile-once/evaluate-many lowering of a Circuit.
///
/// Characterization solves millions of tiny transients on a handful of
/// fixed topologies: the netlist never changes between samples, only a few
/// parameters do (per-transistor ΔVt, strike pulse shapes, source
/// voltages). CompiledCircuit lowers a Circuit into that shape once:
///
///   * **Devirtualized stamp plan** — one flat array of tagged device
///     records, walked with a switch instead of virtual Device::stamp()
///     calls, in the *original netlist order* so the floating-point
///     accumulation into each MNA entry is byte-identical to the
///     polymorphic devices' (the plan mirrors the kernels of
///     src/spice/stamp_kernels.hpp term for term).
///   * **Per-kind SoA parameter arrays** — precomputed unknown indices and
///     parameters, contiguous per device kind; transient reactive state
///     (capacitor histories) lives per lane in a BatchWorkspace, so
///     evaluating a compiled circuit never touches the polymorphic devices.
///   * **rebind()** — refreshes every *mutable* parameter (Mosfet ΔVt and
///     temperature, VSource voltage, PulseISource shape) from the source
///     circuit without reallocating devices, nodes or plans. A Vt-variation
///     MC sample or an injected-charge step is a rebind, not a rebuild.
///
/// A compiled circuit solves DC operating points (solve_dc() and
/// solve_dc_batch() in dc.hpp) and transients (run_transient_batch() in
/// batch.hpp) on the lane-batched engine, W = 1 included, both without
/// per-sample allocation and both on the one compiled LU kernel. The
/// polymorphic devices remain the reference the tests compare against;
/// equivalence is pinned bit-exact by tests/test_spice_compiled.cpp and
/// tests/test_spice_dc_batch.cpp. Lifecycle details and the
/// when-to-recompile table: docs/spice.md.

#include <cstdint>
#include <vector>

#include "finser/spice/circuit.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/spice/mna.hpp"

namespace finser::spice {

struct BatchWorkspace;

/// Words of one row mask of an \p n-unknown system (see
/// CompiledCircuit::lu_pattern()).
inline constexpr std::size_t lu_mask_words(std::size_t n) {
  return (n + 63) / 64;
}

/// Devirtualized, rebindable lowering of one Circuit (see file comment).
/// The source Circuit must outlive the compiled form and must not gain
/// nodes, branches or devices afterwards — parameter *values* may change
/// freely through the device setters followed by rebind().
class CompiledCircuit {
 public:
  explicit CompiledCircuit(const Circuit& circuit);

  /// Refresh every mutable device parameter from the source circuit.
  void rebind();

  const Circuit& source() const { return *src_; }
  std::size_t node_count() const { return node_count_; }
  std::size_t unknown_count() const { return unknown_count_; }
  std::size_t device_count() const { return ops_.size(); }

  /// Structural pattern of the MNA matrix: row i's mask (lu_mask_words()
  /// words, bit j of word j / 64) has bit j set where some device stamps
  /// entry (i, j) or where DC's gmin shunt does (every node diagonal). Every
  /// other entry of a stamped system is +0, which is what lets the LU skip
  /// it (batch_lu_solve()).
  const std::vector<std::uint64_t>& lu_pattern() const { return lu_pattern_; }

  // --- Lane-batched hooks (batch.hpp, dc.hpp; see docs/spice.md) ----------
  // The batched DC and transient loops (engine_detail.hpp) advance W
  // independent parameter bindings of *this one compiled plan* in lockstep,
  // W = 1 included. Per-lane parameters and reactive state live in the
  // caller's BatchWorkspace as AoSoA blocks; the hooks below work one lane
  // at a time (scalar bookkeeping) or on all lanes at once (the hot
  // stamps).

  /// Size \p bw for \p lanes lanes of this circuit and seed every lane from
  /// the current scalar binding. Invalidates the per-lane pivot caches.
  void batch_configure(BatchWorkspace& bw, std::size_t lanes) const;

  /// Whether \p bw is sized as batch_configure(bw, \p lanes) sizes it.
  bool batch_configured(const BatchWorkspace& bw, std::size_t lanes) const;

  /// Load lane \p lane of \p bw from the current scalar binding — i.e. from
  /// the values the last rebind() captured. The per-sample sequence is:
  /// device setters → rebind() → batch_rebind_lane(bw, lane).
  void batch_rebind_lane(BatchWorkspace& bw, std::size_t lane) const;

  /// Fused transient stamp of every lane at once: per lane w this computes
  /// byte-identically what the reference devices' Device::stamp() computes
  /// at time[w] / dt[w] from bw.x_try's lane-w iterate and the lane's
  /// reactive state, accumulating into bw.fa / bw.fb, which must be zeroed.
  /// Matrix entry (i, j) of lane w lives at fa[(i·n + j)·W + w] and rhs
  /// entry i at fb[i·W + w]; ground stamps land in the trailing scratch
  /// slots (n², n), a branch-free equivalent of Mna's kGround drop. Every
  /// lane is stamped unconditionally — masked lanes are compute-and-discard
  /// riders, which is what keeps the loop vector-shaped.
  template <std::size_t W>
  void batch_stamp_fused(BatchWorkspace& bw, const double* time,
                         const double* dt, Integrator method) const;

  /// Fused DC stamp of every lane at once: batch_stamp_fused() with
  /// ctx.transient false — capacitors and strike sources open, PWL sources
  /// at their t = 0 value. The gmin shunts are the DC loop's to add.
  template <std::size_t W>
  void batch_stamp_dc(BatchWorkspace& bw) const;

  /// Reset lane \p lane's reactive state from the DC operating point \p x.
  void batch_initialize_state(BatchWorkspace& bw, std::size_t lane,
                              const std::vector<double>& x) const;

  /// Advance lane \p lane's reactive state after an accepted step, reading
  /// the lane's committed solution from bw.x.
  void batch_commit(BatchWorkspace& bw, std::size_t lane, double time,
                    double dt, Integrator method) const;

  /// Append lane \p lane's hard time points (source edges) within
  /// (0, t_end).
  void batch_add_breakpoints(const BatchWorkspace& bw, std::size_t lane,
                             double t_end, std::vector<double>& out) const;

 private:
  /// batch_stamp_fused() and, with kDc, batch_stamp_dc().
  template <std::size_t W, bool kDc>
  void batch_stamp(BatchWorkspace& bw, const double* time, const double* dt,
                   Integrator method) const;

  enum class Kind : std::uint8_t {
    kResistor,
    kCapacitor,
    kVSource,
    kPwlVSource,
    kPulseISource,
    kMosfet,
  };

  /// One stamp-plan step: device kind + index into that kind's SoA array.
  struct Op {
    Kind kind;
    std::uint32_t idx;
  };

  /// Flat index into the fused stamp arrays (see batch_stamp_fused): matrix
  /// slots are i·n + j, rhs slots are i, and ground-touching stamps are
  /// redirected to the trailing scratch slot (n² resp. n) at compile time.
  using Slot = std::uint32_t;

  struct ResistorRec {
    std::size_t a, b;
    double g;
    Slot s_aa, s_bb, s_ab, s_ba;
  };
  struct CapacitorRec {
    std::size_t a, b;
    double c;
    Slot s_aa, s_bb, s_ab, s_ba, r_a, r_b;
  };
  struct VSourceRec {
    const VSource* src;
    std::size_t a, b, branch;
    double v;
    Slot s_ak, s_bk, s_ka, s_kb, r_k;
  };
  struct PwlRec {
    // The waveform table is immutable, so it is read through the source
    // device instead of being copied into the plan.
    const PwlVSource* src;
    std::size_t a, b, branch;
    Slot s_ak, s_bk, s_ka, s_kb, r_k;
  };
  struct ISourceRec {
    const PulseISource* src;
    std::size_t from, to;
    PulseShape shape;
    Slot r_from, r_to;
  };
  struct MosRec {
    const Mosfet* src;
    std::size_t d, g, s;
    const FinFetModel* model;
    double nfin;
    double delta_vt;
    double temp_k;
    FinFetPlan plan;  ///< Baked at compile/rebind (see finfet.hpp).
    Slot s_dd, s_dg, s_ds, s_sd, s_sg, s_ss, r_d, r_s;
  };

  const Circuit* src_;
  std::size_t node_count_;
  std::size_t unknown_count_;
  std::vector<Op> ops_;  ///< Original netlist order.
  std::vector<ResistorRec> resistors_;
  std::vector<CapacitorRec> capacitors_;
  std::vector<VSourceRec> vsources_;
  std::vector<PwlRec> pwls_;
  std::vector<ISourceRec> isources_;
  std::vector<MosRec> mosfets_;
  std::vector<std::uint64_t> lu_pattern_;  ///< n × lu_mask_words(n).
};

}  // namespace finser::spice
