#pragma once
/// \file engine_detail.hpp
/// \brief The compiled SPICE engine: DC Newton, the lane-blocked LU and the
/// lane-batched transient loop (internal to finser::spice).
///
/// The DC Newton/gmin-continuation algorithm exists exactly once,
/// solve_dc_lanes(), templated over the lane width W and a *system* policy
/// that assembles and solves the W linearizations at their iterates. The
/// engine's policy is CompiledDcLanes: the fused DC stamp of every lane,
/// factored by batch_lu_solve<W>; solve_dc() is its W = 1 instantiation.
/// The interpreted oracle of the tests supplies a one-lane policy over the
/// polymorphic Device list and Mna, so every DC path runs the same Newton
/// and continuation code.
///
/// batch_lu_solve() is the one compiled LU kernel: the DC and transient
/// loops factor their W lanes with it. The
/// compiled transient loop is run_transient_batch_impl() below: W
/// transients in masked-Newton lockstep, with W = 1 as the scalar case,
/// either a fixed set or lanes refilled from a job feed. It
/// shares the option checks and the breakpoint/arming set-up below with the
/// interpreted reference loop the tests keep; tests/test_spice_compiled.cpp
/// pins it to that loop byte for byte at every lane width.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "finser/obs/obs.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/circuit.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/mna.hpp"
#include "finser/spice/transient.hpp"
#include "finser/util/error.hpp"

namespace finser::spice::detail {

template <class F, std::size_t... I>
bool visit_width(std::size_t w, F& f, std::index_sequence<I...>) {
  return ((w == kLaneWidths[I] &&
           (f(std::integral_constant<std::size_t, kLaneWidths[I]>{}), true)) ||
          ...);
}

/// Call f(std::integral_constant<std::size_t, W>{}) for the compiled width
/// W == \p w; false if \p w is not one of kLaneWidths.
template <class F>
bool visit_width(std::size_t w, F&& f) {
  return visit_width(w, f, std::make_index_sequence<kLaneWidths.size()>{});
}

// ---------------------------------------------------------------------------
// Transient set-up shared by both transient loops
// ---------------------------------------------------------------------------

/// Horizon that collects source edges unclipped (add_breakpoints() with it
/// appends every edge after t = 0).
inline constexpr double kNoHorizon = std::numeric_limits<double>::infinity();

/// Option checks of both transient loops (same messages).
inline void require_valid_transient(const TransientOptions& opt,
                                    std::size_t node_count) {
  FINSER_REQUIRE(opt.t_end > 0.0, "run_transient: t_end must be positive");
  FINSER_REQUIRE(opt.dt_initial > 0.0 && opt.dt_min > 0.0 &&
                     opt.dt_max >= opt.dt_initial,
                 "run_transient: inconsistent step-size options");
  FINSER_REQUIRE(!opt.latch || (opt.latch->node_a < node_count &&
                                opt.latch->node_b < node_count),
                 "run_transient: latch nodes must be circuit nodes");
}

/// Turn the source edges in \p breaks, collected up to kNoHorizon, into the
/// step clamp list — the edges inside (0, t_end) plus t_end, sorted and
/// deduplicated — and return the latest edge (0 without any): the latch
/// stop's arming time, which may lie past t_end.
inline double clamp_breaks_and_arm(std::vector<double>& breaks, double t_end) {
  double last_edge = 0.0;
  for (const double b : breaks) last_edge = std::max(last_edge, b);
  breaks.erase(std::remove_if(breaks.begin(), breaks.end(),
                              [t_end](double b) { return b >= t_end; }),
               breaks.end());
  breaks.push_back(t_end);
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(
      std::unique(breaks.begin(), breaks.end(),
                  [](double p, double q) { return std::abs(p - q) < 1e-24; }),
      breaks.end());
  return last_edge;
}

// ---------------------------------------------------------------------------
// The compiled LU kernel (DC and transients at every W)
// ---------------------------------------------------------------------------

/// Call f(c) for every column c >= \p from of one row mask, ascending.
template <class F>
inline void for_each_col(const std::uint64_t* row, std::size_t words,
                         std::size_t from, F&& f) {
  for (std::size_t k = from / 64; k < words; ++k) {
    std::uint64_t bits = row[k];
    if (k == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
    for (; bits != 0; bits &= bits - 1) {
      f(k * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Lane-blocked LU on the AoSoA fused arrays that follows the circuit's
/// structural pattern (CompiledCircuit::lu_pattern(), copied into
/// bw.lu_mask and kept up to date through swaps and fill). Per lane it
/// computes Mna::factor_and_solve's bits: same pivot scan order and
/// tie-breaks, same factor == 0 skips (as selects), same counters and
/// pivot-cache bookkeeping. Pivot rows are swapped *physically* per lane
/// instead of indirected through the permutation, so every inner loop uses
/// lane-uniform indices and vectorizes however the per-lane pivots diverge.
///
/// Invariant: in every lane whose pivots so far were usable (|p| > 1e-300),
/// every entry of the active submatrix outside its row's mask is +0. It
/// holds for the stamped system, and each step below keeps it:
///   * pivot scan — visits only rows whose mask has the column: |+0| never
///     wins the strictly-greater scan;
///   * swap — uniform pivots swap the two rows' masked columns and the
///     masks; divergent ones swap whole rows per lane and OR the masks;
///   * elimination — a row whose mask lacks the column has factor +0/pivot
///     = ±0 in every lane with a usable pivot, which the selects ignore, so
///     the row is skipped, division included. Otherwise the row's mask
///     grows by the pivot row's (fill) and all of its masked columns update
///     (a −0 of its own outside the pivot row's mask turns +0 when f < 0, as
///     in the dense loop); elsewhere both operands are +0, and
///     +0 − f·(+0) = +0 for finite f. The pivot is the column's largest
///     magnitude, so a factor is finite or NaN (a NaN entry, or inf over an
///     inf pivot). A NaN factor leaves its row NaN in every masked column and
///     +0 elsewhere for good (a later factor of the row is NaN or skipped),
///     so the row can never be a usable pivot and the lane ends singular —
///     as in the dense loop, where the row goes NaN throughout;
///   * back substitution — sums only masked terms. A skipped term is
///     −(+0·x), which can flip the sign of a zero sum (or poison a lane
///     already flagged non-finite) and nothing else, so a row whose sum is
///     a zero in any lane is summed again over every column.
/// A lane with an unusable pivot may compute other values than the dense
/// loop, but its status is already an error and final, so they are
/// discarded. Errors are flagged per lane, never thrown. Returns the number
/// of factor divisions computed.
template <std::size_t W>
inline std::size_t batch_lu_solve(BatchWorkspace& bw,
                                  const std::uint64_t* pattern, std::size_t n,
                                  const std::array<std::uint8_t, W>& active,
                                  std::array<LaneLu, W>& status) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* __restrict__ a = bw.fa.data();
  double* __restrict__ b = bw.fb.data();
  double* __restrict__ x = bw.x_new.data();
  std::size_t* __restrict__ perm = bw.perm.data();
  const std::size_t words = lu_mask_words(n);
  std::uint64_t* __restrict__ mask = bw.lu_mask.data();
  std::uint64_t* __restrict__ scratch = mask + n * words;
  std::copy(pattern, pattern + n * words, mask);

  std::size_t n_active = 0;
  for (std::size_t w = 0; w < W; ++w) n_active += active[w] ? 1u : 0u;
  FINSER_OBS_COUNT("spice.mna.solves", static_cast<std::int64_t>(n_active));

  status.fill(LaneLu::kOk);
  // RHS pre-check in select form so the lane loop vectorizes: abs(v) < inf
  // is exactly isfinite(v) for doubles (NaN compares false). Status here is
  // uniformly kOk, so "first error wins" reduces to "any entry bad".
  {
    std::array<double, W> bad{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t w = 0; w < W; ++w) {
        bad[w] = std::abs(b[i * W + w]) < kInf ? bad[w] : 1.0;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {
      if (bad[w] != 0.0) status[w] = LaneLu::kNonFiniteRhs;
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t w = 0; w < W; ++w) perm[r * W + w] = r;
  }

  std::size_t divisions = 0;
  for (std::size_t col = 0; col < n; ++col) {
    const std::size_t cw = col / 64;
    const std::uint64_t cbit = std::uint64_t{1} << (col % 64);
    // Pivot scan vectorized across lanes: same strictly-greater comparison
    // as the scalar kernel, so ties keep the first maximum and NaN entries
    // (compare false) never displace an earlier pivot.
    std::array<double, W> best;
    std::array<std::size_t, W> piv;
    for (std::size_t w = 0; w < W; ++w) {
      best[w] = std::abs(a[(col * n + col) * W + w]);
      piv[w] = col;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      if ((mask[r * words + cw] & cbit) == 0) continue;
      for (std::size_t w = 0; w < W; ++w) {
        const double v = std::abs(a[(r * n + col) * W + w]);
        const bool gt = v > best[w];
        piv[w] = gt ? r : piv[w];
        best[w] = gt ? v : best[w];
      }
    }
    unsigned unusable = 0;
    unsigned divergent = 0;
    for (std::size_t w = 0; w < W; ++w) {
      unusable |= best[w] > 1e-300 ? 0u : 1u;
      divergent |= piv[w] == piv[0] ? 0u : 1u;
    }
    if (unusable != 0) {
      // Keep going with a (near-)zero pivot: the lane's values turn to
      // inf/NaN but stay inside its stride, and the flag voids them.
      for (std::size_t w = 0; w < W; ++w) {
        if (!(best[w] > 1e-300) && status[w] == LaneLu::kOk) {
          status[w] = LaneLu::kSingular;
          bw.pivot_valid[w] = 0;
        }
      }
    }
    std::uint64_t* __restrict__ mc = mask + col * words;
    if (divergent == 0) {
      // Every lane picked row p: swap the two rows' masked columns and
      // their masks as vectors.
      const std::size_t p = piv[0];
      if (p != col) {
        std::uint64_t* __restrict__ mp = mask + p * words;
        for (std::size_t k = 0; k < words; ++k) scratch[k] = mc[k] | mp[k];
        double* __restrict__ rc = a + col * n * W;
        double* __restrict__ rp = a + p * n * W;
        for_each_col(scratch, words, col, [&](std::size_t c) {
          for (std::size_t w = 0; w < W; ++w) {
            const double t = rc[c * W + w];
            rc[c * W + w] = rp[c * W + w];
            rp[c * W + w] = t;
          }
        });
        for (std::size_t w = 0; w < W; ++w) {
          const double t = b[col * W + w];
          b[col * W + w] = b[p * W + w];
          b[p * W + w] = t;
          const std::size_t q = perm[col * W + w];
          perm[col * W + w] = perm[p * W + w];
          perm[p * W + w] = q;
        }
        for (std::size_t k = 0; k < words; ++k) std::swap(mc[k], mp[k]);
      }
    } else {
      // Divergent pivots: whole-row swaps per lane; each touched position
      // may now hold either row, so it takes the union of their masks.
      for (std::size_t w = 0; w < W; ++w) {
        std::swap(perm[col * W + w], perm[piv[w] * W + w]);
        if (piv[w] == col) continue;
        for (std::size_t c = col; c < n; ++c) {
          std::swap(a[(col * n + c) * W + w], a[(piv[w] * n + c) * W + w]);
        }
        std::swap(b[col * W + w], b[piv[w] * W + w]);
      }
      for (std::size_t k = 0; k < words; ++k) scratch[k] = mc[k];
      for (std::size_t w = 0; w < W; ++w) {
        for (std::size_t k = 0; k < words; ++k) {
          mc[k] |= mask[piv[w] * words + k];
        }
      }
      for (std::size_t w = 0; w < W; ++w) {
        if (piv[w] == col) continue;
        for (std::size_t k = 0; k < words; ++k) {
          mask[piv[w] * words + k] |= scratch[k];
        }
      }
    }

    // Elimination over the rows whose mask has the column.
    const double* __restrict__ apiv = a + col * n * W;
    const double* __restrict__ bpiv = b + col * W;
    const std::uint64_t* __restrict__ pmask = mask + col * words;
    for (std::size_t r = col + 1; r < n; ++r) {
      std::uint64_t* __restrict__ rmask = mask + r * words;
      if ((rmask[cw] & cbit) == 0) continue;
      ++divisions;
      // Distinct rows (r > col): restrict row pointers spare the vectorizer
      // its run-time overlap checks.
      double* __restrict__ arow = a + r * n * W;
      std::array<double, W> factor;
      for (std::size_t w = 0; w < W; ++w) {
        factor[w] = arow[col * W + w] / apiv[col * W + w];
      }
      for (std::size_t k = 0; k < words; ++k) rmask[k] |= pmask[k];
      for_each_col(rmask, words, col + 1, [&](std::size_t c) {
        for (std::size_t w = 0; w < W; ++w) {
          const double v = arow[c * W + w];
          const double upd = v - factor[w] * apiv[c * W + w];
          arow[c * W + w] = factor[w] == 0.0 ? v : upd;
        }
      });
      double* __restrict__ brow = b + r * W;
      for (std::size_t w = 0; w < W; ++w) {
        const double v = brow[w];
        const double upd = v - factor[w] * bpiv[w];
        brow[w] = factor[w] == 0.0 ? v : upd;
      }
    }
  }

  // Pivot-cache bookkeeping. Mna's prediction holds while every column's
  // pivot row matches the cached order; later swaps never move a settled
  // position, so that is the final order equalling the cached one.
  std::array<unsigned, W> moved{};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t w = 0; w < W; ++w) {
      moved[w] |= perm[r * W + w] == bw.pivot_perm[r * W + w] ? 0u : 1u;
    }
  }
  std::int64_t reused = 0;
  std::int64_t refactored = 0;
  std::array<unsigned, W> store{};
  for (std::size_t w = 0; w < W; ++w) {
    if (!active[w] || status[w] != LaneLu::kOk) continue;
    if (bw.pivot_valid[w] != 0 && moved[w] == 0) {
      ++reused;
    } else {
      ++refactored;
      store[w] = 1;
      bw.pivot_valid[w] = 1;
    }
  }
  if (refactored > 0) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t w = 0; w < W; ++w) {
        bw.pivot_perm[r * W + w] =
            store[w] != 0 ? perm[r * W + w] : bw.pivot_perm[r * W + w];
      }
    }
  }
  if (reused > 0) FINSER_OBS_COUNT("spice.mna.pivot_reuse", reused);
  if (refactored > 0) FINSER_OBS_COUNT("spice.mna.pivot_refactor", refactored);

  // Back substitution over the masked columns. The non-finite check
  // accumulates in select form so the division loop stays branch-free:
  // flagging once at the end is equivalent to flagging at the first bad row
  // (same enum value, nothing later overwrites a kOk lane's status).
  {
    std::array<double, W> badsol{};
    for (std::size_t ri = n; ri-- > 0;) {
      // x[ri] is only written after every x[c], c > ri, has been read.
      const double* __restrict__ arow = a + ri * n * W;
      const double* __restrict__ xtail = x + (ri + 1) * W;
      std::array<double, W> acc;
      for (std::size_t w = 0; w < W; ++w) acc[w] = b[ri * W + w];
      for_each_col(mask + ri * words, words, ri + 1, [&](std::size_t c) {
        for (std::size_t w = 0; w < W; ++w) {
          acc[w] -= arow[c * W + w] * xtail[(c - ri - 1) * W + w];
        }
      });
      unsigned zero = 0;
      for (std::size_t w = 0; w < W; ++w) zero |= acc[w] == 0.0 ? 1u : 0u;
      if (zero != 0) {
        for (std::size_t w = 0; w < W; ++w) acc[w] = b[ri * W + w];
        for (std::size_t c = ri + 1; c < n; ++c) {
          for (std::size_t w = 0; w < W; ++w) {
            acc[w] -= arow[c * W + w] * xtail[(c - ri - 1) * W + w];
          }
        }
      }
      for (std::size_t w = 0; w < W; ++w) {
        const double xv = acc[w] / arow[ri * W + w];
        x[ri * W + w] = xv;
        badsol[w] = std::abs(xv) < kInf ? badsol[w] : 1.0;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {
      if (badsol[w] != 0.0 && status[w] == LaneLu::kOk) {
        status[w] = LaneLu::kNonFiniteSolution;
      }
    }
  }
  return divisions;
}

// ---------------------------------------------------------------------------
// DC operating point
// ---------------------------------------------------------------------------

/// solve_dc_lanes()'s system policy over a compiled circuit: the fused DC
/// stamp of every lane plus the gmin shunts, factored by batch_lu_solve<W>.
/// \p bw must be configured to W lanes of \p cc with the lanes' bindings
/// loaded; each lane's pivot cache carries across one solve's Newton
/// iterations.
template <std::size_t W>
struct CompiledDcLanes {
  const CompiledCircuit& cc;
  BatchWorkspace& bw;

  std::size_t node_count() const { return cc.node_count(); }
  std::size_t unknown_count() const { return cc.unknown_count(); }
  /// The lanes' Newton iterates, AoSoA: unknown i of lane w at [i * W + w].
  double* iterate() { return bw.x_try.data(); }

  /// Solve every lane's linearization at its iterate, with a gmin[w] shunt
  /// from every node toward \p anchor. Sets ok[w] = 0 where the lane's LU
  /// fails (singular or non-finite) and returns the solutions, AoSoA.
  const double* solve(const std::array<double, W>& gmin, const double* anchor,
                      const std::array<std::uint8_t, W>& active,
                      std::array<std::uint8_t, W>& ok) {
    const std::size_t n = cc.unknown_count();
    std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
    std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
    cc.batch_stamp_dc<W>(bw);
    // Mna's accumulation order: every diagonal shunt first (Mna::add_gmin),
    // then the rhs anchor loop. Selects, not skips: a lane whose gmin is not
    // positive keeps its entries bit for bit, as the scalar `if (gmin > 0)`.
    {
      double* __restrict__ a = bw.fa.data();
      double* __restrict__ b = bw.fb.data();
      for (std::size_t i = 0; i < cc.node_count() && i < n; ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double v = a[(i * n + i) * W + w];
          a[(i * n + i) * W + w] = gmin[w] > 0.0 ? v + gmin[w] : v;
        }
      }
      for (std::size_t i = 0; i < cc.node_count(); ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double v = b[i * W + w];
          b[i * W + w] = gmin[w] > 0.0 ? v + gmin[w] * anchor[i] : v;
        }
      }
    }
    std::array<LaneLu, W> status;
    batch_lu_solve<W>(bw, cc.lu_pattern().data(), n, active, status);
    for (std::size_t w = 0; w < W; ++w) {
      ok[w] = status[w] == LaneLu::kOk ? 1 : 0;
    }
    return bw.x_new.data();
  }
};

/// The DC Newton/gmin-continuation solve of lanes [0, \p count) of \p sys
/// (see DcOptions for the continuation and its retry ladder), with the work
/// vectors in \p ws. Every lane starts from \p initial_guess and runs its
/// own continuation; one vectorized Newton tick (the policy's stamp + LU)
/// advances every lane mid-stage, and lanes that converged, failed or lie
/// past \p count ride it masked. The per-lane bookkeeping — damping,
/// convergence test, stage advance, retry ladder and counters — follows the
/// statement order of a one-lane solve, so a lane's bits do not depend on
/// W or on its neighbours. On return lane w's solution is in sys.iterate(),
/// unless failed[w], with the failure text in errors[w]. Only an invalid
/// option throws.
template <std::size_t W, class System>
void solve_dc_lanes(System& sys, SolveWorkspace& ws, std::size_t count,
                    const std::vector<double>& initial_guess,
                    const DcOptions& options, std::uint8_t* failed,
                    std::string* errors) {
  const std::size_t n = sys.unknown_count();
  FINSER_REQUIRE(n > 0, "solve_dc: circuit has no unknowns");
  FINSER_REQUIRE(!options.gmin_steps.empty(), "solve_dc: empty gmin schedule");
  FINSER_REQUIRE(initial_guess.empty() || initial_guess.size() == n,
                 "solve_dc: initial guess size mismatch");
  FINSER_REQUIRE(count <= W, "solve_dc_batch: more lanes than width");

  obs::ScopedSpan span("spice.dc.solve");
  FINSER_OBS_COUNT("spice.dc.solves", static_cast<std::int64_t>(count));
  if (initial_guess.empty()) {
    ws.anchor.assign(n, 0.0);
  } else {
    ws.anchor = initial_guess;
  }
  // The gmin shunt pulls node voltages toward the anchor (the caller's
  // initial guess) rather than toward ground: for bistable circuits such as
  // SRAM cells this keeps the continuation inside the basin the caller
  // selected instead of collapsing onto the symmetric metastable point.
  const double* anchor = ws.anchor.data();
  double* x = sys.iterate();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t w = 0; w < W; ++w) x[i * W + w] = anchor[i];
  }
  ws.x_good.assign(x, x + n * W);

  enum class Phase : std::uint8_t { kIdle, kNewton, kDone, kFailed };
  std::array<Phase, W> phase;
  phase.fill(Phase::kIdle);
  std::array<std::size_t, W> stage{};  ///< Index into the lane's schedule.
  std::array<int, W> iter{};           ///< Newton iteration within the stage.
  std::array<int, W> extensions{};
  std::array<double, W> gmin;          ///< gmin of the stage in flight.
  std::array<double, W> prev_gmin{};   ///< gmin of the last converged stage.
  std::array<bool, W> any_converged{};  ///< Whether prev_gmin is meaningful.
  gmin.fill(options.gmin_steps.front());  // Riders stamp a finite shunt.

  const auto copy_lane = [n](const double* src, double* dst, std::size_t w) {
    for (std::size_t i = 0; i < n; ++i) dst[i * W + w] = src[i * W + w];
  };

  // Lane w's stage in flight failed. A failed stage is retried from the last
  // converged iterate with the geometric midpoint between the previous
  // (converged) gmin and the failed one inserted first: halving the
  // continuation step this way rescues solves where a single gmin decade is
  // too aggressive a homotopy jump, without loosening any tolerance. Returns
  // false once the ladder is drained: the lane has failed.
  const auto retry = [&](std::size_t w) {
    std::vector<double>& schedule = ws.gmin_schedule[w];
    const double g = schedule[stage[w]];
    if (extensions[w] >= options.max_gmin_extensions) {
      FINSER_OBS_COUNT("spice.dc.failures", 1);
      failed[w] = 1;
      errors[w] = "solve_dc: Newton failed to converge at gmin = " +
                  std::to_string(g) + " after " +
                  std::to_string(extensions[w]) + " schedule extension(s)";
      phase[w] = Phase::kFailed;
      return false;
    }
    // Restore the last converged iterate: the failed stage may have walked x
    // somewhere useless.
    copy_lane(ws.x_good.data(), x, w);
    double inserted;
    if (any_converged[w]) {
      inserted = std::sqrt(prev_gmin[w] * g);
      FINSER_REQUIRE(inserted > g && inserted < prev_gmin[w],
                     "solve_dc: gmin schedule is not strictly decreasing");
    } else {
      // The very first stage failed: retry from a much stiffer shunt.
      inserted = std::min(g * 100.0, 1.0);
    }
    ++extensions[w];
    FINSER_OBS_COUNT("spice.dc.gmin_extensions", 1);
    schedule.insert(schedule.begin() + static_cast<std::ptrdiff_t>(stage[w]),
                    inserted);
    return true;
  };

  // Enter lane w's stage stage[w]. A stage that allows no Newton iteration
  // fails at once, so this walks the ladder until a stage can run or the
  // lane has failed.
  const auto enter_stage = [&](std::size_t w) {
    for (;;) {
      FINSER_OBS_COUNT("spice.dc.gmin_stages", 1);
      gmin[w] = ws.gmin_schedule[w][stage[w]];
      iter[w] = 0;
      phase[w] = Phase::kNewton;
      if (options.max_iterations > 0 || !retry(w)) return;
    }
  };

  for (std::size_t w = 0; w < count; ++w) {
    failed[w] = 0;
    errors[w].clear();
    ws.gmin_schedule[w].assign(options.gmin_steps.begin(),
                               options.gmin_steps.end());
    enter_stage(w);
  }

  std::array<std::uint8_t, W> active{};
  std::array<std::uint8_t, W> ok{};
  for (;;) {
    std::size_t n_active = 0;
    for (std::size_t w = 0; w < W; ++w) {
      active[w] = phase[w] == Phase::kNewton ? 1 : 0;
      n_active += active[w];
    }
    if (n_active == 0) break;  // Every lane converged or failed.

    FINSER_OBS_COUNT("spice.dc.newton_iters",
                     static_cast<std::int64_t>(n_active));
    FINSER_OBS_COUNT("spice.dc.batch_ticks", 1);
    const double* x_new = sys.solve(gmin, anchor, active, ok);

    // Damping (limit the largest voltage move per iteration) and the
    // convergence measure, lane-vectorized as in the transient loop: every
    // lane computes, and only lanes mid-Newton whose LU succeeded store
    // their damped iterate.
    std::array<double, W> alpha;
    std::array<double, W> max_delta{};
    {
      // The iterate and the solution are distinct arrays, touched through
      // nothing else in this block.
      double* __restrict__ xi = x;
      const double* __restrict__ xs = x_new;
      std::array<double, W> max_dv{};
      for (std::size_t i = 0; i < sys.node_count(); ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double dv = std::abs(xs[i * W + w] - xi[i * W + w]);
          max_dv[w] = dv > max_dv[w] ? dv : max_dv[w];
        }
      }
      std::array<double, W> store;
      for (std::size_t w = 0; w < W; ++w) {
        alpha[w] = max_dv[w] > options.damping_vmax
                       ? options.damping_vmax / max_dv[w]
                       : 1.0;
        store[w] = active[w] != 0 && ok[w] != 0 ? 1.0 : 0.0;
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double step = alpha[w] * (xs[i * W + w] - xi[i * W + w]);
          const double nv = xi[i * W + w] + step;
          xi[i * W + w] = store[w] != 0.0 ? nv : xi[i * W + w];
          const double ad = std::abs(step);
          max_delta[w] = ad > max_delta[w] ? ad : max_delta[w];
        }
      }
    }

    for (std::size_t w = 0; w < W; ++w) {
      if (active[w] == 0) continue;
      if (ok[w] == 0) {
        // A failed LU fails the stage, so the lane reports "failed to
        // converge", not a raw LU error.
        if (retry(w)) enter_stage(w);
      } else if (alpha[w] == 1.0 && max_delta[w] < options.v_tol) {
        FINSER_OBS_RECORD("spice.dc.iters_per_stage", iter[w] + 1);
        prev_gmin[w] = gmin[w];
        any_converged[w] = true;
        copy_lane(x, ws.x_good.data(), w);
        if (++stage[w] == ws.gmin_schedule[w].size()) {
          phase[w] = Phase::kDone;
        } else {
          enter_stage(w);
        }
      } else if (++iter[w] >= options.max_iterations) {
        if (retry(w)) enter_stage(w);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-batched transient: the compiled transient loop (see batch.hpp)
// ---------------------------------------------------------------------------

/// The compiled transient loop: W independent transients advance through one
/// vectorized Newton tick at a time (W = 1 is the scalar case). Per-lane step
/// control (breakpoint clamping, accept/reject, the escalation ladder, the
/// latch stop) runs in scalar bookkeeping that follows the interpreted
/// reference loop statement for statement. Only the per-iteration
/// stamp+solve+update is batched. Lanes that are done (at t_end or latched),
/// failed or inactive stay in the vector as masked compute-and-discard
/// riders — freezing, not branching, is what keeps the hot loop uniform.
///
/// Without a \p feed the lanes run the jobs of \p x0 and the group drains
/// once the slowest one ends. With one, \p x0 must be empty: every lane
/// loads its jobs from the feed, and the bookkeeping pass that ends a lane's
/// job hands it back and starts the feed's next one in that lane. A job
/// start resets every per-lane quantity the loop reads, and lanes never read
/// each other, so a job computes the same bits in any lane at any time.
template <std::size_t W>
BatchTransientResult run_transient_batch_impl(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes,
    TransientFeed* feed = nullptr) {
  FINSER_REQUIRE(bw.lanes == W, "run_transient_batch: workspace lane mismatch");
  FINSER_REQUIRE(x0.size() <= W, "run_transient_batch: more lanes than width");
  FINSER_REQUIRE(feed == nullptr || x0.empty(),
                 "run_transient_batch: a fed run takes no fixed jobs");
  require_valid_transient(opt, cc.node_count());
  const std::size_t n = cc.unknown_count();
  FINSER_REQUIRE(bw.unknowns == n, "run_transient_batch: workspace size mismatch");

  obs::ScopedSpan run_span("spice.tran.run_batch");

  // Resolve probes once (identical resolution to the reference engine).
  std::vector<std::string> names;
  std::vector<std::size_t> nodes;
  if (probe_nodes.empty()) {
    for (std::size_t i = 0; i < cc.node_count(); ++i) {
      names.push_back(cc.source().node_name(i));
      nodes.push_back(i);
    }
  } else {
    for (const std::string& p : probe_nodes) {
      names.push_back(p);
      nodes.push_back(cc.source().find_node(p));
    }
  }

  BatchTransientResult res;
  res.failed.assign(W, 0);
  res.errors.assign(W, std::string());
  res.waves.reserve(W);
  for (std::size_t w = 0; w < W; ++w) res.waves.emplace_back(names, nodes);

  enum class Phase : std::uint8_t {
    kInactive,  ///< Masked-off lane without a job: rides, never reported.
    kStepping,  ///< Between steps: scalar bookkeeping will arm a Newton.
    kNewton,    ///< Mid-Newton: participates in the vectorized tick.
    kDone,
    kFailed,
  };
  std::array<Phase, W> phase;
  phase.fill(Phase::kInactive);
  std::array<double, W> t{};
  std::array<double, W> dt{};
  std::array<double, W> bt{};   ///< Per-lane stamp time (ctx.time).
  std::array<double, W> bdt{};  ///< Per-lane stamp step (ctx.dt).
  std::array<bool, W> hit_break{};
  std::array<std::size_t, W> next_break{};
  std::array<int, W> newton_iter{};
  std::array<int, W> restart_level{};
  std::array<int, W> eff_max_newton{};
  std::array<double, W> eff_damping{};
  std::array<std::uint64_t, W> accepted{};
  std::array<double, W> arm_time{};  ///< Per-lane latch arming time.
  // Keep masked lanes' dt positive: they are stamped unconditionally and the
  // capacitor companion divides by it.
  dt.fill(opt.dt_initial);
  bdt.fill(opt.dt_initial);

  std::vector<double> xscratch(n, 0.0);
  const auto extract_lane = [&](const std::vector<double>& src, std::size_t w,
                                std::vector<double>& out) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = src[i * W + w];
  };
  const auto inject_lane = [&](const std::vector<double>& in, std::size_t w,
                               std::vector<double>& dst) {
    for (std::size_t i = 0; i < n; ++i) dst[i * W + w] = in[i];
  };

  // Start a job in lane w from operating point x: every per-lane quantity
  // the loop reads is reset here, which is what makes a job's bits
  // independent of what ran in the lane before.
  const auto start = [&](std::size_t w, const std::vector<double>& x) {
    FINSER_REQUIRE(x.size() == n, "run_transient: x0 size mismatch");
    FINSER_OBS_COUNT("spice.tran.runs", 1);
    t[w] = 0.0;
    dt[w] = opt.dt_initial;
    bt[w] = 0.0;
    bdt[w] = opt.dt_initial;
    hit_break[w] = false;
    next_break[w] = 0;
    newton_iter[w] = 0;
    restart_level[w] = 0;
    eff_max_newton[w] = opt.max_newton;
    eff_damping[w] = opt.damping_vmax;
    accepted[w] = 0;
    std::vector<double>& breaks = bw.breaks[w];
    breaks.clear();
    cc.batch_add_breakpoints(bw, w, kNoHorizon, breaks);
    arm_time[w] = clamp_breaks_and_arm(breaks, opt.t_end);
    cc.batch_initialize_state(bw, w, x);
    inject_lane(x, w, bw.x);
    bw.pivot_valid[w] = 0;
    res.waves[w].clear();
    res.waves[w].append(0.0, x);
    res.failed[w] = 0;
    res.errors[w].clear();
    phase[w] = Phase::kStepping;
  };

  // Fed run: hand lane w's ended job back and start the feed's next one
  // there; a lane the feed has no job for stays inactive.
  const auto refill = [&](std::size_t w) {
    if (phase[w] == Phase::kDone || phase[w] == Phase::kFailed) {
      feed->finish(w, res.waves[w], res.failed[w] ? &res.errors[w] : nullptr);
    }
    phase[w] = Phase::kInactive;
    if (const std::vector<double>* x = feed->load(w)) start(w, *x);
  };

  // Initialize the lanes; masked lanes inherit the first active lane's
  // operating point so their ride-along arithmetic stays finite.
  std::size_t first_active = W;
  for (std::size_t w = 0; w < W; ++w) {
    if (feed != nullptr) {
      refill(w);
    } else if (w < x0.size() && !x0[w].empty()) {
      start(w, x0[w]);
    }
    if (phase[w] != Phase::kInactive && first_active == W) first_active = w;
  }
  if (first_active == W) return res;  // Nothing to do.
  for (std::size_t w = 0; w < W; ++w) {
    if (phase[w] == Phase::kInactive) {
      extract_lane(bw.x, first_active, xscratch);
      inject_lane(xscratch, w, bw.x);
      cc.batch_initialize_state(bw, w, xscratch);
    }
  }

  // Accept-path bookkeeping for lane w.
  const auto accept = [&](std::size_t w) {
    FINSER_OBS_COUNT("spice.tran.steps", 1);
    ++accepted[w];
    for (std::size_t i = 0; i < n; ++i) {
      bw.x[i * W + w] = bw.x_try[i * W + w];
    }
    cc.batch_commit(bw, w, bt[w], bdt[w], opt.method);
    t[w] = bt[w];
    extract_lane(bw.x, w, xscratch);
    res.waves[w].append(t[w], xscratch);
    if (hit_break[w]) {
      dt[w] = opt.dt_initial;  // Restart small after a source edge.
      ++next_break[w];
    } else {
      dt[w] = std::min(dt[w] * opt.grow_factor, opt.dt_max);
    }
    phase[w] = Phase::kStepping;
  };

  // Reject path for lane w: shrink and retry from the committed state. When
  // the step underflows dt_min the retry ladder escalates (more Newton
  // iterations, stronger damping, a fresh smaller dt for the same failing
  // instant); a drained ladder marks the lane failed with the text the
  // reference engine throws.
  const auto reject = [&](std::size_t w) {
    FINSER_OBS_COUNT("spice.tran.rejects", 1);
    dt[w] *= opt.shrink_factor;
    phase[w] = Phase::kStepping;
    if (dt[w] < opt.dt_min) {
      if (restart_level[w] < opt.max_restarts) {
        ++restart_level[w];
        FINSER_OBS_COUNT("spice.tran.escalations", 1);
        eff_max_newton[w] *= 2;
        eff_damping[w] *= 0.5;
        dt[w] = std::max(opt.dt_min,
                         opt.dt_initial * std::pow(0.1, restart_level[w]));
      } else {
        FINSER_OBS_COUNT("spice.tran.failures", 1);
        res.failed[w] = 1;
        res.errors[w] =
            "run_transient: Newton failed to converge at t = " +
            std::to_string(t[w]) + " after " +
            std::to_string(restart_level[w]) + " escalation(s) (max_newton " +
            std::to_string(eff_max_newton[w]) + ", damping_vmax " +
            std::to_string(eff_damping[w]) + ")";
        phase[w] = Phase::kFailed;
      }
    }
  };

  // Whether lane w's job ends before its next step: it reached t_end, or
  // its latch stop fired.
  const auto stops = [&](std::size_t w) {
    if (t[w] >= opt.t_end - 1e-24) return true;
    if (opt.latch && t[w] > arm_time[w] &&
        opt.latch->holds(bw.x[opt.latch->node_a * W + w],
                         bw.x[opt.latch->node_b * W + w])) {
      FINSER_OBS_COUNT("spice.tran.latch_stops", 1);
      return true;
    }
    return false;
  };

  std::array<std::uint8_t, W> newton_mask{};
  std::array<LaneLu, W> lu_status{};

  for (;;) {
    // --- Per-lane scalar bookkeeping: end jobs, refill, arm a Newton -------
    for (std::size_t w = 0; w < W; ++w) {
      for (;;) {
        // A fed lane hands its ended job back and starts the feed's next.
        if (feed != nullptr &&
            (phase[w] == Phase::kDone || phase[w] == Phase::kFailed)) {
          refill(w);
        }
        if (phase[w] != Phase::kStepping || !stops(w)) break;
        FINSER_OBS_RECORD("spice.tran.steps_per_run", accepted[w]);
        phase[w] = Phase::kDone;
      }
      if (phase[w] != Phase::kStepping) continue;
      const std::vector<double>& breaks = bw.breaks[w];
      while (next_break[w] < breaks.size() &&
             breaks[next_break[w]] <= t[w] + 1e-24) {
        ++next_break[w];
      }
      hit_break[w] = false;
      double step = dt[w];
      if (next_break[w] < breaks.size() &&
          t[w] + step >= breaks[next_break[w]] - 1e-24) {
        step = breaks[next_break[w]] - t[w];
        hit_break[w] = true;
      }
      bt[w] = t[w] + step;
      bdt[w] = step;
      for (std::size_t i = 0; i < n; ++i) {
        bw.x_try[i * W + w] = bw.x[i * W + w];
      }
      newton_iter[w] = 0;
      phase[w] = Phase::kNewton;
    }

    std::size_t n_active = 0;
    for (std::size_t w = 0; w < W; ++w) {
      newton_mask[w] = phase[w] == Phase::kNewton ? 1 : 0;
      n_active += newton_mask[w];
    }
    if (n_active == 0) break;  // Every lane done, failed or inactive.

    // --- One masked vectorized Newton iteration over all lanes -------------
    FINSER_OBS_COUNT("spice.tran.newton_iters",
                     static_cast<std::int64_t>(n_active));
    FINSER_OBS_COUNT("spice.batch.newton_ticks", 1);
    FINSER_OBS_COUNT("spice.batch.lane_iters_active",
                     static_cast<std::int64_t>(n_active));
    FINSER_OBS_COUNT("spice.batch.lane_iters_masked",
                     static_cast<std::int64_t>(W - n_active));
    std::fill(bw.fa.begin(), bw.fa.end(), 0.0);
    std::fill(bw.fb.begin(), bw.fb.end(), 0.0);
    cc.batch_stamp_fused<W>(bw, bt.data(), bdt.data(), opt.method);
    batch_lu_solve<W>(bw, cc.lu_pattern().data(), n, newton_mask, lu_status);

    // Damping and convergence, lane-vectorized: the max reductions and the
    // damped iterate update run for every lane (i outer, w inner, identical
    // per-lane operation order as the reference loop), with a masked store so
    // lanes that are not mid-Newton (or whose solve failed) keep their
    // iterate untouched — their max_dv/alpha/max_delta values are computed
    // from garbage and discarded below, never stored.
    {
      std::array<double, W> upd_ok;
      for (std::size_t w = 0; w < W; ++w) {
        upd_ok[w] = phase[w] == Phase::kNewton && lu_status[w] == LaneLu::kOk
                        ? 1.0
                        : 0.0;
      }
      double* __restrict__ xtry = bw.x_try.data();
      const double* __restrict__ xnew = bw.x_new.data();
      std::array<double, W> max_dv{};
      const std::size_t n_nodes = cc.node_count();
      for (std::size_t i = 0; i < n_nodes; ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double dv = std::abs(xnew[i * W + w] - xtry[i * W + w]);
          max_dv[w] = dv > max_dv[w] ? dv : max_dv[w];
        }
      }
      std::array<double, W> alpha;
      for (std::size_t w = 0; w < W; ++w) {
        alpha[w] =
            max_dv[w] > eff_damping[w] ? eff_damping[w] / max_dv[w] : 1.0;
      }
      std::array<double, W> max_delta{};
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t w = 0; w < W; ++w) {
          const double d = alpha[w] * (xnew[i * W + w] - xtry[i * W + w]);
          const double nv = xtry[i * W + w] + d;
          xtry[i * W + w] = upd_ok[w] != 0.0 ? nv : xtry[i * W + w];
          const double ad = std::abs(d);
          max_delta[w] = ad > max_delta[w] ? ad : max_delta[w];
        }
      }
      for (std::size_t w = 0; w < W; ++w) {
        if (phase[w] != Phase::kNewton) continue;
        if (lu_status[w] != LaneLu::kOk) {
          // A failed LU is a convergence failure that leaves the iterate
          // untouched (the reference Newton step catches the throw).
          reject(w);
          continue;
        }
        if (alpha[w] == 1.0 && max_delta[w] < opt.v_tol) {
          accept(w);
        } else if (++newton_iter[w] >= eff_max_newton[w]) {
          reject(w);
        }
      }
    }
  }
  return res;
}

}  // namespace finser::spice::detail
