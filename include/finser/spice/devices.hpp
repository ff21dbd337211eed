#pragma once
/// \file devices.hpp
/// \brief Concrete circuit elements: R, C, V-source, pulsed I-source, FinFET.

#include <cstddef>
#include <vector>

#include "finser/spice/circuit.hpp"
#include "finser/spice/finfet.hpp"

namespace finser::spice {

/// Linear resistor between nodes a and b.
class Resistor : public Device {
 public:
  Resistor(std::size_t a, std::size_t b, double ohms);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  const char* kind() const override { return "resistor"; }

  std::size_t node_a() const { return a_; }
  std::size_t node_b() const { return b_; }
  double conductance() const { return g_; }

 private:
  std::size_t a_, b_;
  double g_;
};

/// Linear capacitor between nodes a and b (open in DC).
class Capacitor : public Device {
 public:
  Capacitor(std::size_t a, std::size_t b, double farads);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  void initialize_state(const std::vector<double>& x) override;
  void commit(const StampContext& ctx) override;
  const char* kind() const override { return "capacitor"; }

  double capacitance() const { return c_; }
  std::size_t node_a() const { return a_; }
  std::size_t node_b() const { return b_; }

 private:
  double companion_geq(const StampContext& ctx) const;
  double companion_ieq(const StampContext& ctx) const;

  std::size_t a_, b_;
  double c_;
  double v_prev_ = 0.0;  ///< Accepted branch voltage of the previous step.
  double i_prev_ = 0.0;  ///< Accepted branch current (trapezoidal history).
};

/// Ideal independent voltage source from + node \p a to − node \p b.
/// Constant value; the branch current is an MNA unknown.
class VSource : public Device {
 public:
  /// \param circuit used to allocate the branch unknown.
  VSource(Circuit& circuit, std::size_t a, std::size_t b, double volts);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  const char* kind() const override { return "vsource"; }

  void set_voltage(double volts) { v_ = volts; }
  double voltage() const { return v_; }

  /// Branch current unknown of this source in solution vectors.
  std::size_t branch_id() const { return branch_; }

  std::size_t node_a() const { return a_; }
  std::size_t node_b() const { return b_; }

 private:
  std::size_t a_, b_;
  std::size_t branch_;
  double v_;
};

/// Ideal voltage source with a piecewise-linear waveform (SPICE "PWL").
/// The value is clamped to the first/last point outside the time range;
/// the DC operating point uses the t = 0 value. Used for wordline/bitline
/// pulses in access-scenario strike simulations.
class PwlVSource : public Device {
 public:
  /// \param points (time [s], value [V]) pairs, strictly increasing in time.
  PwlVSource(Circuit& circuit, std::size_t a, std::size_t b,
             std::vector<std::pair<double, double>> points);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  void add_breakpoints(double t_end, std::vector<double>& out) const override;
  const char* kind() const override { return "pwl-vsource"; }

  /// Waveform value at time \p t.
  double value(double t) const;

  std::size_t branch_id() const { return branch_; }
  std::size_t node_a() const { return a_; }
  std::size_t node_b() const { return b_; }

 private:
  std::size_t a_, b_;
  std::size_t branch_;
  std::vector<std::pair<double, double>> points_;
};

/// Time-shape of a radiation current pulse.
struct PulseShape {
  enum class Kind { kRectangular, kTriangular };

  Kind kind = Kind::kRectangular;
  double delay_s = 0.0;      ///< Pulse start time.
  double width_s = 0.0;      ///< Total pulse duration.
  double amplitude_a = 0.0;  ///< Plateau (rect) or peak (triangle) current.

  /// Instantaneous current at time \p t.
  double value(double t) const;

  /// Total charge delivered [C].
  double charge_c() const;

  /// Rectangular pulse delivering \p charge_c over \p width_s.
  static PulseShape rectangular_for_charge(double charge_c, double width_s,
                                           double delay_s = 0.0);

  /// Triangular pulse delivering \p charge_c over \p width_s.
  static PulseShape triangular_for_charge(double charge_c, double width_s,
                                          double delay_s = 0.0);
};

/// Independent current source pushing current from node \p from to node
/// \p to (i.e. out of `from`, into `to`). Zero in DC analysis.
class PulseISource : public Device {
 public:
  PulseISource(std::size_t from, std::size_t to, const PulseShape& shape);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  void add_breakpoints(double t_end, std::vector<double>& out) const override;
  const char* kind() const override { return "isource"; }

  void set_shape(const PulseShape& shape) { shape_ = shape; }
  const PulseShape& shape() const { return shape_; }

  std::size_t node_from() const { return from_; }
  std::size_t node_to() const { return to_; }

 private:
  std::size_t from_, to_;
  PulseShape shape_;
};

/// FinFET transistor (drain, gate, source; SOI — no body terminal).
/// Device capacitances are added explicitly by netlist builders.
class Mosfet : public Device {
 public:
  /// \param model must outlive the device.
  Mosfet(std::size_t d, std::size_t g, std::size_t s, const FinFetModel& model,
         double nfin = 1.0);
  void stamp(Mna& mna, const StampContext& ctx) const override;
  const char* kind() const override { return "finfet"; }

  /// Per-instance threshold shift for process-variation sampling [V].
  void set_delta_vt(double dvt) { delta_vt_ = dvt; }
  double delta_vt() const { return delta_vt_; }

  /// Junction temperature [K] (default 300 K).
  void set_temperature(double temp_k) { temp_k_ = temp_k; }
  double temperature() const { return temp_k_; }

  /// Operating point at the given solution vector (diagnostics/tests).
  MosOp op_at(const std::vector<double>& x) const;

  const FinFetModel& model() const { return *model_; }
  double nfin() const { return nfin_; }
  std::size_t drain() const { return d_; }
  std::size_t gate() const { return g_; }
  std::size_t source() const { return s_; }

 private:
  std::size_t d_, g_, s_;
  const FinFetModel* model_;
  double nfin_;
  double delta_vt_ = 0.0;
  double temp_k_ = 300.0;
};

}  // namespace finser::spice
