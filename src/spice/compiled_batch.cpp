/// \file compiled_batch.cpp
/// \brief Lane-batched hooks of CompiledCircuit (see batch.hpp).
///
/// Every expression here mirrors the matching reference device code
/// (stamp_kernels.hpp, as called by devices.cpp) term for term, evaluated
/// per lane on the AoSoA slices: that is what makes each lane
/// byte-identical to a reference run with the same binding. The hot stamp
/// (batch_stamp, behind batch_stamp_fused and batch_stamp_dc) is written as
/// compile-time-W
/// lane loops over unit-stride slices with uniform (lane-invariant) branches
/// hoisted and the rest in select form, so the compiler vectorizes it
/// without being allowed to change any lane's arithmetic.

#include <bit>
#include <cstdint>

#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/util/error.hpp"
#include "stamp_kernels.hpp"

namespace finser::spice {

void CompiledCircuit::batch_configure(BatchWorkspace& bw,
                                      std::size_t lanes) const {
  FINSER_REQUIRE(lanes != 0 && lane_width_valid(lanes),
                 "batch_configure: lane width must be " + lane_width_list());
  const std::size_t n = unknown_count_;
  bw.lanes = lanes;
  bw.unknowns = n;

  bw.vsrc_v.assign(vsources_.size() * lanes, 0.0);
  bw.is_shape.assign(isources_.size() * lanes, PulseShape{});
  const std::size_t nm = mosfets_.size() * lanes;
  bw.mos.n.assign(nm, 0.0);
  bw.mos.dibl.assign(nm, 0.0);
  bw.mos.lambda.assign(nm, 0.0);
  bw.mos.phi_t.assign(nm, 0.0);
  bw.mos.vt_base.assign(nm, 0.0);
  bw.mos.is.assign(nm, 0.0);
  bw.mos.is_lambda.assign(nm, 0.0);
  bw.mos.duf_dvgs.assign(nm, 0.0);
  bw.mos.duf_dvds.assign(nm, 0.0);
  bw.mos.dur_dvds.assign(nm, 0.0);

  bw.cap_v_prev.assign(capacitors_.size() * lanes, 0.0);
  bw.cap_i_prev.assign(capacitors_.size() * lanes, 0.0);

  bw.fa.assign((n * n + 1) * lanes, 0.0);
  bw.fb.assign((n + 1) * lanes, 0.0);
  bw.x.assign(n * lanes, 0.0);
  bw.x_try.assign(n * lanes, 0.0);
  bw.x_new.assign(n * lanes, 0.0);
  bw.perm.assign(n * lanes, 0);
  bw.pivot_perm.assign(n * lanes, 0);
  bw.pivot_valid.fill(0);
  bw.lu_mask.assign((n + 1) * lu_mask_words(n), 0);
  for (auto& b : bw.breaks) b.clear();

  // Seed every lane from the current scalar binding so freshly configured
  // tail lanes carry finite, well-conditioned parameters.
  for (std::size_t w = 0; w < lanes; ++w) batch_rebind_lane(bw, w);
}

bool CompiledCircuit::batch_configured(const BatchWorkspace& bw,
                                       std::size_t lanes) const {
  return bw.lanes == lanes && bw.unknowns == unknown_count_ &&
         bw.vsrc_v.size() == vsources_.size() * lanes &&
         bw.is_shape.size() == isources_.size() * lanes &&
         bw.mos.n.size() == mosfets_.size() * lanes &&
         bw.cap_v_prev.size() == capacitors_.size() * lanes;
}

void CompiledCircuit::batch_rebind_lane(BatchWorkspace& bw,
                                        std::size_t lane) const {
  const std::size_t W = bw.lanes;
  FINSER_REQUIRE(lane < W, "batch_rebind_lane: lane out of range");
  for (std::size_t i = 0; i < vsources_.size(); ++i) {
    bw.vsrc_v[i * W + lane] = vsources_[i].v;
  }
  for (std::size_t i = 0; i < isources_.size(); ++i) {
    bw.is_shape[i * W + lane] = isources_[i].shape;
  }
  for (std::size_t i = 0; i < mosfets_.size(); ++i) {
    const FinFetPlan& p = mosfets_[i].plan;
    const std::size_t k = i * W + lane;
    bw.mos.n[k] = p.n;
    bw.mos.dibl[k] = p.dibl;
    bw.mos.lambda[k] = p.lambda;
    bw.mos.phi_t[k] = p.phi_t;
    bw.mos.vt_base[k] = p.vt_base;
    bw.mos.is[k] = p.is;
    bw.mos.is_lambda[k] = p.is_lambda;
    bw.mos.duf_dvgs[k] = p.duf_dvgs;
    bw.mos.duf_dvds[k] = p.duf_dvds;
    bw.mos.dur_dvds[k] = p.dur_dvds;
  }
}

template <std::size_t W, bool kDc>
void CompiledCircuit::batch_stamp(BatchWorkspace& bw, const double* time,
                                  const double* dt, Integrator method) const {
  // fa / fb / x_try are distinct vectors of the workspace, so the restrict
  // qualifiers hold by construction. Without them the vectorizer has to
  // version the lane loops against every pairwise overlap of these and the
  // per-device parameter slices below — far past its run-time alias-check
  // budget — and gives up.
  double* __restrict__ a = bw.fa.data();
  double* __restrict__ b = bw.fb.data();
  const double* __restrict__ x = bw.x_try.data();
  const bool trap = method == Integrator::kTrapezoidal;

  for (const Op op : ops_) {
    switch (op.kind) {
      case Kind::kResistor: {
        const ResistorRec& r = resistors_[op.idx];
        const double g = r.g;
        for (std::size_t w = 0; w < W; ++w) a[r.s_aa * W + w] += g;
        for (std::size_t w = 0; w < W; ++w) a[r.s_bb * W + w] += g;
        for (std::size_t w = 0; w < W; ++w) a[r.s_ab * W + w] += -g;
        for (std::size_t w = 0; w < W; ++w) a[r.s_ba * W + w] += -g;
        break;
      }
      case Kind::kCapacitor: {
        if constexpr (kDc) break;  // Open in DC.
        const CapacitorRec& c = capacitors_[op.idx];
        const double factor = trap ? 2.0 : 1.0;
        const double* __restrict__ vp = bw.cap_v_prev.data() + op.idx * W;
        const double* __restrict__ ip = bw.cap_i_prev.data() + op.idx * W;
        // The throwing check lives in its own loop: a potential throw in the
        // compute loop would block if-conversion of the whole body.
        for (std::size_t w = 0; w < W; ++w) {
          FINSER_REQUIRE(dt[w] > 0.0, "Capacitor::stamp: non-positive dt");
        }
        // Compute into stack lanes, then store one slice per loop: grounded
        // terminals share the scratch row of `a`/`b`, so slice-vs-slice
        // overlap cannot be ruled out statically and interleaved stores
        // would need run-time alias versioning past the vectorizer's budget.
        // Statement order per element is unchanged, so overlapping (scratch)
        // rows still accumulate in the scalar order bit for bit.
        double geq[W];
        double ieq[W];
        // Unswitched on the lane-invariant integrator choice: a select on a
        // scalar (non-lane) bool is not a vectorizable COND_EXPR, and the
        // `+ 0.0` of a multiplier trick would flip -0.0 bits.
        if (trap) {
          for (std::size_t w = 0; w < W; ++w) {
            // Mirrors cap_geq / cap_ieq (stamp_kernels.hpp) per lane.
            geq[w] = factor * c.c / dt[w];
            ieq[w] = geq[w] * vp[w] + ip[w];
          }
        } else {
          for (std::size_t w = 0; w < W; ++w) {
            geq[w] = factor * c.c / dt[w];
            ieq[w] = geq[w] * vp[w];
          }
        }
        for (std::size_t w = 0; w < W; ++w) a[c.s_aa * W + w] += geq[w];
        for (std::size_t w = 0; w < W; ++w) a[c.s_bb * W + w] += geq[w];
        for (std::size_t w = 0; w < W; ++w) a[c.s_ab * W + w] += -geq[w];
        for (std::size_t w = 0; w < W; ++w) a[c.s_ba * W + w] += -geq[w];
        for (std::size_t w = 0; w < W; ++w) b[c.r_a * W + w] += ieq[w];
        for (std::size_t w = 0; w < W; ++w) b[c.r_b * W + w] += -ieq[w];
        break;
      }
      case Kind::kVSource: {
        const VSourceRec& v = vsources_[op.idx];
        const double* __restrict__ lv = bw.vsrc_v.data() + op.idx * W;
        for (std::size_t w = 0; w < W; ++w) a[v.s_ak * W + w] += 1.0;
        for (std::size_t w = 0; w < W; ++w) a[v.s_bk * W + w] += -1.0;
        for (std::size_t w = 0; w < W; ++w) a[v.s_ka * W + w] += 1.0;
        for (std::size_t w = 0; w < W; ++w) a[v.s_kb * W + w] += -1.0;
        for (std::size_t w = 0; w < W; ++w) b[v.r_k * W + w] += lv[w];
        break;
      }
      case Kind::kPwlVSource: {
        // The table is immutable and shared; only the per-lane time differs
        // (DC reads every lane at t = 0).
        const PwlRec& p = pwls_[op.idx];
        for (std::size_t w = 0; w < W; ++w) {
          a[p.s_ak * W + w] += 1.0;
          a[p.s_bk * W + w] += -1.0;
          a[p.s_ka * W + w] += 1.0;
          a[p.s_kb * W + w] += -1.0;
          b[p.r_k * W + w] += p.src->value(kDc ? 0.0 : time[w]);
        }
        break;
      }
      case Kind::kPulseISource: {
        if constexpr (kDc) break;  // Open in DC.
        const ISourceRec& s = isources_[op.idx];
        const PulseShape* shapes = bw.is_shape.data() + op.idx * W;
        for (std::size_t w = 0; w < W; ++w) {
          const double i = shapes[w].value(time[w]);
          // Selects, not skips: adding −i/i only when i != 0 matches the
          // scalar kernel's early-out bit for bit (including signed zeros).
          const double bf = b[s.r_from * W + w];
          const double bt = b[s.r_to * W + w];
          b[s.r_from * W + w] = i == 0.0 ? bf : bf + -i;
          b[s.r_to * W + w] = i == 0.0 ? bt : bt + i;
        }
        break;
      }
      case Kind::kMosfet: {
        const MosRec& m = mosfets_[op.idx];
        // Lane-invariant device facts become data, not selects: a COND_EXPR
        // on a scalar (non-lane) bool is not vectorizable, so the PMOS
        // reflection is an XOR of the sign bit (bit-identical to negation
        // for every input, NaNs included) and grounded terminals read a
        // stack array of zeros instead of selecting 0.0 per lane.
        const std::uint64_t pt_flip =
            m.plan.p_type ? 0x8000000000000000ull : 0u;
        const double zero[W] = {};
        const double* px_d = m.d == kGround ? zero : x + m.d * W;
        const double* px_g = m.g == kGround ? zero : x + m.g * W;
        const double* px_s = m.s == kGround ? zero : x + m.s * W;
        const std::size_t mb = op.idx * W;
        const double* __restrict__ pn = bw.mos.n.data() + mb;
        const double* __restrict__ pdibl = bw.mos.dibl.data() + mb;
        const double* __restrict__ plambda = bw.mos.lambda.data() + mb;
        const double* __restrict__ pphi = bw.mos.phi_t.data() + mb;
        const double* __restrict__ pvt = bw.mos.vt_base.data() + mb;
        const double* __restrict__ pis = bw.mos.is.data() + mb;
        const double* __restrict__ pisl = bw.mos.is_lambda.data() + mb;
        const double* __restrict__ pdvgs = bw.mos.duf_dvgs.data() + mb;
        const double* __restrict__ pdvds = bw.mos.duf_dvds.data() + mb;
        const double* __restrict__ pdrds = bw.mos.dur_dvds.data() + mb;
        // As in kCapacitor: all the arithmetic lands in stack lanes, the
        // `a`/`b` updates go one slice per loop afterwards (same statement
        // order per element — bit-identical even on shared scratch rows).
        double l_gds[W];
        double l_gm[W];
        double l_gsum[W];
        double l_ieq[W];
        for (std::size_t w = 0; w < W; ++w) {
          // Terminal voltages in the original frame (ieq below needs them).
          const double vd0 = px_d[w];
          const double vg0 = px_g[w];
          const double vs0 = px_s[w];
          // Select-form evaluate_finfet_planned() on the per-lane plan:
          // PMOS reflection (uniform), then the source-drain-swap frame as
          // input/output selects around one core evaluation — the same
          // expressions the scalar path runs in whichever branch the lane
          // would have taken.
          const double vd = std::bit_cast<double>(
              std::bit_cast<std::uint64_t>(vd0) ^ pt_flip);
          const double vg = std::bit_cast<double>(
              std::bit_cast<std::uint64_t>(vg0) ^ pt_flip);
          const double vs = std::bit_cast<double>(
              std::bit_cast<std::uint64_t>(vs0) ^ pt_flip);
          const double vgs = vg - vs;
          const double vds = vd - vs;
          const bool fwd = vds >= 0.0;
          const double c_vgs = fwd ? vgs : vg - vd;
          const double c_vds = fwd ? vds : -vds;
          const double vt_eff = pvt[w] - pdibl[w] * c_vds;
          const double vp = (c_vgs - vt_eff) / pn[w];
          const detail::FEval ff = detail::ekv_f(vp / pphi[w]);
          const detail::FEval fr = detail::ekv_f((vp - c_vds) / pphi[w]);
          const double clm = 1.0 + plambda[w] * c_vds;
          const double ids = pis[w] * (ff.f - fr.f) * clm;
          const double gm =
              pis[w] * clm * (ff.df * pdvgs[w] - fr.df * pdvgs[w]);
          const double gds =
              pis[w] * clm * (ff.df * pdvds[w] - fr.df * pdrds[w]) +
              pisl[w] * (ff.f - fr.f);
          const double o_ids = fwd ? ids : -ids;
          const double o_gm = fwd ? gm : -gm;
          const double o_gds = fwd ? gds : gm + gds;
          const double mids = std::bit_cast<double>(
              std::bit_cast<std::uint64_t>(o_ids) ^ pt_flip);
          // Stamp in the original frame, mirroring stamp_fused()'s kMosfet.
          l_ieq[w] = mids - o_gm * (vg0 - vs0) - o_gds * (vd0 - vs0);
          l_gds[w] = o_gds;
          l_gm[w] = o_gm;
          l_gsum[w] = o_gds + o_gm;
        }
        for (std::size_t w = 0; w < W; ++w) a[m.s_dd * W + w] += l_gds[w];
        for (std::size_t w = 0; w < W; ++w) a[m.s_dg * W + w] += l_gm[w];
        for (std::size_t w = 0; w < W; ++w) a[m.s_ds * W + w] += -l_gsum[w];
        for (std::size_t w = 0; w < W; ++w) b[m.r_d * W + w] += -l_ieq[w];
        for (std::size_t w = 0; w < W; ++w) a[m.s_sd * W + w] += -l_gds[w];
        for (std::size_t w = 0; w < W; ++w) a[m.s_sg * W + w] += -l_gm[w];
        for (std::size_t w = 0; w < W; ++w) a[m.s_ss * W + w] += l_gsum[w];
        for (std::size_t w = 0; w < W; ++w) b[m.r_s * W + w] += l_ieq[w];
        break;
      }
    }
  }
}

template <std::size_t W>
void CompiledCircuit::batch_stamp_fused(BatchWorkspace& bw, const double* time,
                                        const double* dt,
                                        Integrator method) const {
  batch_stamp<W, false>(bw, time, dt, method);
}

template <std::size_t W>
void CompiledCircuit::batch_stamp_dc(BatchWorkspace& bw) const {
  batch_stamp<W, true>(bw, nullptr, nullptr, Integrator::kBackwardEuler);
}

#define FINSER_BATCH_STAMPS(W)                                             \
  template void CompiledCircuit::batch_stamp_fused<W>(                     \
      BatchWorkspace&, const double*, const double*, Integrator) const;    \
  template void CompiledCircuit::batch_stamp_dc<W>(BatchWorkspace&) const;
FINSER_BATCH_STAMPS(1)
FINSER_BATCH_STAMPS(4)
FINSER_BATCH_STAMPS(8)
FINSER_BATCH_STAMPS(32)
#undef FINSER_BATCH_STAMPS

void CompiledCircuit::batch_initialize_state(BatchWorkspace& bw,
                                             std::size_t lane,
                                             const std::vector<double>& x) const {
  const std::size_t W = bw.lanes;
  for (std::size_t i = 0; i < capacitors_.size(); ++i) {
    const CapacitorRec& c = capacitors_[i];
    const double va = c.a == kGround ? 0.0 : x[c.a];
    const double vb = c.b == kGround ? 0.0 : x[c.b];
    bw.cap_v_prev[i * W + lane] = va - vb;
    bw.cap_i_prev[i * W + lane] = 0.0;  // DC steady state: no cap current.
  }
}

void CompiledCircuit::batch_commit(BatchWorkspace& bw, std::size_t lane,
                                   double time, double dt,
                                   Integrator method) const {
  (void)time;
  const std::size_t W = bw.lanes;
  const double* x = bw.x.data();
  const double factor = method == Integrator::kTrapezoidal ? 2.0 : 1.0;
  for (std::size_t i = 0; i < capacitors_.size(); ++i) {
    const CapacitorRec& c = capacitors_[i];
    // Mirrors commit_capacitor (stamp_kernels.hpp) on the lane slice.
    const double va = c.a == kGround ? 0.0 : x[c.a * W + lane];
    const double vb = c.b == kGround ? 0.0 : x[c.b * W + lane];
    const double v_now = va - vb;
    const double geq = factor * c.c / dt;
    double i_now = geq * (v_now - bw.cap_v_prev[i * W + lane]);
    if (method == Integrator::kTrapezoidal) {
      i_now -= bw.cap_i_prev[i * W + lane];
    }
    bw.cap_v_prev[i * W + lane] = v_now;
    bw.cap_i_prev[i * W + lane] = i_now;
  }
}

void CompiledCircuit::batch_add_breakpoints(const BatchWorkspace& bw,
                                            std::size_t lane, double t_end,
                                            std::vector<double>& out) const {
  const std::size_t W = bw.lanes;
  for (const PwlRec& p : pwls_) p.src->add_breakpoints(t_end, out);
  for (std::size_t i = 0; i < isources_.size(); ++i) {
    detail::pulse_breakpoints(bw.is_shape[i * W + lane], t_end, out);
  }
}

}  // namespace finser::spice
