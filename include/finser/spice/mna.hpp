#pragma once
/// \file mna.hpp
/// \brief Modified nodal analysis system and dense LU solver.
///
/// SRAM-cell circuits are tiny (≈10 unknowns), so the system is a dense
/// row-major matrix solved by in-place LU with partial pivoting. Unknowns
/// are node voltages (ground eliminated) followed by voltage-source branch
/// currents. The sentinel kGround marks the eliminated reference node;
/// stamps touching it are silently dropped, which keeps device stamping
/// branch-free at call sites.
///
/// **Lifecycle contract.** The factorization destroys the assembled system
/// in place, so a consumed Mna must be clear()ed and restamped before the
/// next solve. Stamping into (or re-solving) a consumed system throws
/// util::LogicError — the check is a single branch per stamp, cheap enough
/// to stay on in release builds so the contract is enforced everywhere, not
/// just under NDEBUG-less CI.
///
/// **Pivot reuse.** Fixed-topology resolves (Newton iterations, transient
/// steps) factor near-identical matrices over and over; solve_with_cache()
/// carries the pivot sequence of the previous factorization across calls.
/// The cached order is *verified* during the same column scan partial
/// pivoting performs anyway: whenever the cached pivot still wins the
/// column (the overwhelmingly common case — counted as
/// `spice.mna.pivot_reuse`), the elimination is bit-for-bit the one fresh
/// pivoting would have produced; the moment a cached pivot falls below the
/// column winner, the factorization falls back to fresh partial pivoting
/// from that column on (`spice.mna.pivot_refactor`). Numerics are therefore
/// always identical to solve() — the cached path trades the allocation and
/// permutation bookkeeping of the fresh path, not accuracy.

#include <cstddef>
#include <vector>

namespace finser::spice {

/// Index of the eliminated reference node.
inline constexpr std::size_t kGround = static_cast<std::size_t>(-1);

/// Dense MNA system A·x = b.
class Mna {
 public:
  explicit Mna(std::size_t size);

  /// Pivot-order memory for fixed-topology resolves (see file comment).
  /// One cache belongs to one matrix topology; invalidate() (or simply a
  /// size mismatch) forces the next factorization to run fully fresh.
  struct PivotCache {
    std::vector<std::size_t> perm;
    bool valid = false;

    void invalidate() { valid = false; }
  };

  std::size_t size() const { return n_; }

  /// Zero the matrix and right-hand side (reused across Newton iterations)
  /// and re-arm a consumed system for restamping.
  void clear();

  /// A[i][j] += g  (no-op when either index is kGround).
  void add(std::size_t i, std::size_t j, double g);

  /// b[i] += v  (no-op for kGround).
  void add_rhs(std::size_t i, double v);

  /// A[i][j] = v and b[i] = v: load an entry verbatim, for a system
  /// assembled elsewhere (add() cannot leave a −0 behind: +0 + −0 = +0).
  void set(std::size_t i, std::size_t j, double v);
  void set_rhs(std::size_t i, double v);

  /// Add \p gmin from each of the first \p n_nodes unknowns to ground
  /// (Newton globalization aid).
  void add_gmin(double gmin, std::size_t n_nodes);

  double matrix_at(std::size_t i, std::size_t j) const { return a_[i * n_ + j]; }
  double rhs_at(std::size_t i) const { return b_[i]; }

  /// Solve in place; throws util::NumericalError on a (near-)singular matrix.
  /// The system is destroyed by the factorization; call clear() + restamp
  /// before the next solve (enforced: see the lifecycle contract above).
  std::vector<double> solve();

  /// Solve in place into \p x_out (resized to size()), reusing \p cache as
  /// the predicted pivot sequence and updating it with the realized one.
  /// Bit-identical to solve() by construction; avoids the per-call result
  /// allocation and counts pivot reuse vs refactorization in finser::obs.
  void solve_with_cache(PivotCache& cache, std::vector<double>& x_out);

 private:
  /// Shared factorization + back substitution (see solve/solve_with_cache).
  void factor_and_solve(PivotCache* cache, std::vector<double>& x_out);

  std::size_t n_;
  std::vector<double> a_;  ///< Row-major n×n.
  std::vector<double> b_;
  std::vector<std::size_t> perm_;  ///< Pivot scratch.
  bool consumed_ = false;  ///< Set by the factorization, reset by clear().
};

}  // namespace finser::spice
