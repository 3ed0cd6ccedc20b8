// Incomplete Cholesky IC(0) and Jacobi preconditioner factors.
//
// IC(0) computes a lower-triangular L with exactly the sparsity pattern of
// tril(A) such that L * L^T matches A on that pattern (no fill-in). It is
// the classic preconditioner for conjugate gradients on SPD systems, and —
// following Kim et al.'s 2D partitioned-block treatment — the factor is
// handed back as CSR so the caller can re-block it onto the CSB grid and
// run the two triangular solves as DAG-scheduled block tasks
// (la/sptrsv.hpp).
//
// The factorization is sequential by design: it is a setup cost paid once
// per (matrix, block size). solver::CgPreconditioner holds the factor (CSR,
// CSB and SpTRSV plan), and the service's plan cache keeps it as an entry
// beside the matrix plan, admitted only for a job whose plan was already
// cached, so warm CG jobs run no factorization. The per-iteration
// triangular solves are where the task parallelism lives.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace sts::sparse {

struct Ic0Options {
  /// Starting diagonal shift (relative to the mean diagonal magnitude).
  /// 0 tries the unshifted factorization first.
  double initial_shift = 0.0;
  /// When a pivot comes out non-positive the factorization restarts with
  /// the shift doubled (from 1e-3 if it was zero), up to this many times
  /// before giving up. Manteuffel-style shifted IC.
  int max_shift_attempts = 8;
};

struct Ic0Result {
  /// Lower-triangular factor, pattern == tril(A), strictly positive
  /// diagonal. L * L^T approximates A exactly on the retained pattern.
  Csr lower;
  /// Shift that produced the successful factorization (0 when none was
  /// needed); the factor approximates A + shift*diag(A), not A itself.
  double shift = 0.0;
  /// Restarts forced by non-positive pivots.
  int shift_attempts = 0;
};

/// Factors the symmetric positive-definite matrix `a` (only tril(a) is
/// read; the strict upper triangle is assumed to mirror it). Throws
/// support::Error when a structural zero diagonal makes the factorization
/// impossible, or when every shift attempt still hits a non-positive
/// pivot.
[[nodiscard]] Ic0Result ic0_factor(const Csr& a, const Ic0Options& options = {});

/// diag(A) as a dense vector; throws support::Error if any diagonal entry
/// is missing or zero (a Jacobi preconditioner would divide by it).
[[nodiscard]] std::vector<double> diagonal(const Csr& a);

} // namespace sts::sparse
