// Preconditioned Conjugate Gradient solver — the third leg of the paper's
// sparse-solver workload set next to Lanczos and LOBPCG.
//
// CG solves A x = b for a symmetric positive-definite A. Unlike the two
// eigensolvers, its per-iteration task graph is not embarrassingly
// parallel: with an IC(0) preconditioner every iteration runs two sparse
// triangular solves whose block-level dependency DAG (la/sptrsv.hpp) is
// where task scheduling actually decides performance. The right-hand side
// is drawn deterministically from options.seed (uniform in [-1, 1]), so a
// run is reproducible from (matrix, options) alone and checkpoints can
// validate against the seed the way the eigensolvers do.
//
// Execution versions: kLibCsr and kLibCsb are the BSP baselines (OpenMP
// kernels, CSR-based resp. CSB-based triangular solves); kFlux runs SpMV
// and the vector updates as per-block dataflow tasks and the IC(0)
// triangular solves as the DAG-scheduled flux SpTRSV (sequentially when the
// factor's DAG is a chain), composing with NUMA domain hints and external
// per-job pools. kDs and kRgt are not
// implemented for CG and throw support::Error.
#pragma once

#include <vector>

#include "la/sptrsv.hpp"
#include "solvers/common.hpp"

namespace sts::solver {

enum class Precond : std::uint8_t { kNone, kJacobi, kIc0 };

[[nodiscard]] const char* to_string(Precond p);

struct CgOptions {
  Precond precond = Precond::kNone;
  /// Convergence criterion: ||r|| <= tol * ||b||.
  double tol = 1e-8;
  /// Iteration cap; reaching it without convergence is reported through
  /// CgResult::converged, not an error.
  int max_iterations = 500;
};

/// The preconditioner M a solve applies as z = M^-1 r. It depends only on
/// (matrix, kind, block size), holds no scratch, and is never written by a
/// solve, so one instance can be built once and read by any number of
/// concurrent solves (the service caches it next to the matrix plan). The
/// IC(0) factor is kept in both layouts: CSR for libcsr's sequential
/// solves, CSB + SpTRSV plan for the blocked and DAG-scheduled paths.
struct CgPreconditioner {
  Precond kind = Precond::kNone;
  std::vector<double> inv_diag; // jacobi: 1 / diag(A)
  sparse::Csr lower_csr;        // ic0: L with the pattern of tril(A)
  sparse::Csb lower_csb;        // ic0: L on the solve's CSB block grid
  la::SptrsvPlan plan;          // ic0: block DAG + level schedule of L
  double shift = 0.0;           // ic0: diagonal shift the factor settled on

  /// Builds the preconditioner of `a` (IC(0) factors tril(a), then
  /// re-blocks L at `block_size`, which must be the solve's block size so
  /// the SpTRSV DAG and the SpMV grid partition the rows identically).
  /// Throws support::Error when the factorization fails (structurally
  /// missing or zero diagonal, IC(0) shift exhaustion).
  [[nodiscard]] static CgPreconditioner build(const sparse::Csr& a,
                                              Precond kind,
                                              index_t block_size);

  /// Resident footprint: what a cache holding this instance is charged.
  [[nodiscard]] std::size_t bytes() const;
};

struct CgResult {
  std::vector<double> x; // iterate at exit (the solution when converged)
  /// Relative residual ||r|| / ||b|| after each accepted iteration.
  std::vector<double> residual_norms;
  double relative_residual = 0.0; // at exit
  int iterations = 0;             // accepted iterations performed
  bool converged = false;
  /// IC(0) diagonal shift the factorization settled on (0 without ic0 or
  /// when the unshifted factorization succeeded).
  double precond_shift = 0.0;
  /// SpTRSV level-schedule length in waves (0 without ic0): the critical
  /// path of the triangular-solve DAG.
  index_t level_span = 0;
  /// kOk, or kBreakdown when p^T A p lost positivity (A not SPD within
  /// rounding), or kNotFinite when NaN/Inf contaminated an iteration. The
  /// returned x is the last numerically sound iterate.
  SolverStatus status = SolverStatus::kOk;
  IterationTiming timing;
};

/// Solves A x = b with b drawn from options.seed, preconditioned by
/// `precond`. `csr` is used by kLibCsr; `csb` by kLibCsb and kFlux; both
/// must represent the same SPD matrix `precond` was built from. Throws
/// support::Error on invalid options, non-square input, unsupported
/// version, or a preconditioner that does not match cg_options.precond or
/// options.block_size.
[[nodiscard]] CgResult cg(const sparse::Csr& csr, const sparse::Csb& csb,
                          Version v, const CgPreconditioner& precond,
                          const CgOptions& cg_options,
                          const SolverOptions& options);

/// Builds CgPreconditioner::build(csr, cg_options.precond,
/// options.block_size) for this one solve, then solves as above.
[[nodiscard]] CgResult cg(const sparse::Csr& csr, const sparse::Csb& csb,
                          Version v, const CgOptions& cg_options,
                          const SolverOptions& options);

} // namespace sts::solver
