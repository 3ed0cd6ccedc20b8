#include "solvers/lanczos.hpp"

#include <cmath>

#include "bsp/kernels.hpp"
#include "la/eig.hpp"
#include "obs/obs.hpp"
#include "solvers/checkpoint.hpp"
#include "solvers/lowering.hpp"
#include "support/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::solver {

namespace {

constexpr double kBreakdownFloor = 1e-300;

/// Relative tolerance below which beta counts as an invariant-subspace
/// breakdown: continuing would divide by (numerical) zero and fill the next
/// basis vector with garbage.
constexpr double kBreakdownTol = 1e-12;

/// Records one iteration's (alpha, beta) pair. Returns false when the
/// recursion must stop: on NaN/Inf the poisoned pair is dropped and status
/// becomes kNotFinite; on breakdown the pair is recorded (the truncated
/// tridiagonal matrix is still valid) and status becomes kBreakdown.
bool accept_iteration(double alpha, double beta, std::vector<double>& alphas,
                      std::vector<double>& betas, SolverStatus& status) {
  if (!std::isfinite(alpha) || !std::isfinite(beta)) {
    status = SolverStatus::kNotFinite;
    return false;
  }
  alphas.push_back(alpha);
  betas.push_back(beta);
  if (beta < kBreakdownTol * std::max(1.0, std::abs(alpha))) {
    status = SolverStatus::kBreakdown;
    return false;
  }
  return true;
}

/// Buffers shared by every version. Q holds the full Krylov basis as an
/// m x (k+1) block vector (unused columns stay zero so each iteration's
/// task graph has identical shape).
struct State {
  index_t m = 0;
  index_t cols = 0; // k + 1
  la::DenseMatrix Q;
  la::DenseMatrix q;
  la::DenseMatrix z;
  la::DenseMatrix proj; // (k+1) x 1
  double beta2 = 0.0;
  double beta = 0.0;
};

State make_state(const sparse::Csb& a, int k, const SolverOptions& options) {
  State s;
  s.m = a.rows();
  s.cols = k + 1;
  s.Q = la::DenseMatrix(s.m, s.cols, options.first_touch);
  s.q = la::DenseMatrix(s.m, 1, options.first_touch);
  s.z = la::DenseMatrix(s.m, 1, options.first_touch);
  s.proj = la::DenseMatrix(s.cols, 1);
  support::Xoshiro256 rng(options.seed);
  s.q.fill_random(rng, -1.0, 1.0);
  const double norm = la::nrm2(s.q.flat());
  la::scal(1.0 / norm, s.q.flat());
  for (index_t r = 0; r < s.m; ++r) s.Q.at(r, 0) = s.q.at(r, 0);
  return s;
}

/// Applies options.restore (when set) to freshly-initialized state and
/// returns the iteration to resume from. The checkpoint must describe this
/// exact solve — kind, shape and seed are all validated — so a stale file
/// surfaces as a catchable error, never as silently wrong mathematics.
int apply_restore(const SolverOptions& options, State& s,
                  std::vector<double>& alphas, std::vector<double>& betas) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kLanczos) {
    throw support::Error(std::string("lanczos restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::LanczosState& st = c.lanczos;
  // A narrower checkpoint basis is fine as long as every completed column
  // fits: resuming with a larger iteration budget than the interrupted run
  // is legal (the extra columns start zero, exactly as a fresh solve's
  // would). Wider-than-this-solve checkpoints cannot fit and are rejected.
  if (st.m != s.m || st.cols > s.cols || st.iterations >= st.cols) {
    throw support::Error("lanczos restore: checkpoint basis is " +
                         std::to_string(st.m) + "x" + std::to_string(st.cols) +
                         " at iteration " + std::to_string(st.iterations) +
                         ", this solve needs " + std::to_string(s.m) + "x" +
                         std::to_string(s.cols));
  }
  if (st.seed != options.seed) {
    throw support::Error("lanczos restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  alphas = st.alphas;
  betas = st.betas;
  // Row-major m x cols: when the widths differ, remap row by row into the
  // column prefix of this solve's basis.
  if (st.cols == s.cols) {
    std::copy(st.basis.begin(), st.basis.end(), s.Q.flat().begin());
  } else {
    for (index_t r = 0; r < s.m; ++r) {
      std::copy(st.basis.begin() + r * st.cols,
                st.basis.begin() + (r + 1) * st.cols,
                s.Q.flat().begin() + r * s.cols);
    }
  }
  std::copy(st.q.begin(), st.q.end(), s.q.flat().begin());
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

/// Writes a checkpoint after `completed` accepted iterations when the
/// options ask for one. Only called where the iteration state is quiescent.
/// A write failure is contained: the atomic rename left any previous
/// checkpoint intact, so the solve logs, counts and carries on.
void maybe_checkpoint(const SolverOptions& options, const State& s,
                      const std::vector<double>& alphas,
                      const std::vector<double>& betas, int completed,
                      int every) {
  if (options.ckpt_path.empty() || completed % every != 0) return;
  ckpt::Checkpoint c;
  c.kind = ckpt::Kind::kLanczos;
  ckpt::LanczosState& st = c.lanczos;
  st.seed = options.seed;
  st.m = s.m;
  st.cols = s.cols;
  st.iterations = completed;
  st.alphas = alphas;
  st.betas = betas;
  st.basis.assign(s.Q.flat().begin(), s.Q.flat().end());
  st.q.assign(s.q.flat().begin(), s.q.flat().end());
  try {
    ckpt::save(c, options.ckpt_path);
  } catch (const std::exception& e) {
    obs::counter("solver.ckpt_errors").add();
    obs::instant(std::string("ckpt: ") + e.what(), "solver");
  }
}

LanczosResult finalize(std::vector<double> alphas, std::vector<double> betas,
                       SolverStatus status, IterationTiming timing) {
  LanczosResult result;
  result.alphas = std::move(alphas);
  result.betas = std::move(betas);
  result.status = status;
  // The tridiagonal matrix is built from the alphas and the couplings
  // beta_1..beta_{k-1}; the trailing beta_k is the next-residual norm.
  std::vector<double> off = result.betas;
  if (!off.empty()) off.pop_back();
  result.ritz_values = la::tridiag_eigenvalues(result.alphas, off);
  result.timing = timing;
  return result;
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

LanczosResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb, int k,
                      const SolverOptions& options) {
  State s = make_state(csb, k, options);
  const index_t chunk = options.block_size;
  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  const int every = ckpt::effective_every(options.ckpt_every);

  IterationTiming timing;
  const support::Timer timer;
  for (int i = start; i < k; ++i) {
    poll_cancel(options);
    obs::IterScope iter(csr != nullptr ? "lanczos.libcsr" : "lanczos.libcsb",
                        i);
    if (csr != nullptr) {
      bsp::spmv(*csr, s.q.flat(), s.z.flat());
    } else {
      bsp::spmv(csb, s.q.flat(), s.z.flat());
    }
    bsp::xty(s.Q.view(), s.z.view(), s.proj.view(), chunk);
    const double alpha = s.proj.at(i, 0);
    bsp::xy(s.Q.view(), s.proj.view(), s.z.view(), chunk, -1.0, 1.0);
    const double beta = std::sqrt(bsp::dot(s.z.flat(), s.z.flat()));
    iter.metric("alpha", alpha);
    iter.metric("beta", beta);
    ++timing.iterations;
    if (!accept_iteration(alpha, beta, alphas, betas, status)) break;
    const double inv = 1.0 / std::max(beta, kBreakdownFloor);
    la::DenseMatrix* q = &s.q;
    la::DenseMatrix* z = &s.z;
    la::DenseMatrix* Q = &s.Q;
    const index_t m = s.m;
    const index_t col = i + 1;
#pragma omp parallel for schedule(static)
    for (index_t r = 0; r < m; ++r) {
      const double v = z->at(r, 0) * inv;
      q->at(r, 0) = v;
      Q->at(r, col) = v;
    }
    maybe_checkpoint(options, s, alphas, betas, i + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

// --------------------------------------------------------------------------
// Task runtimes (ds, flux, rgt): one iteration as kernel calls (Listing 1),
// lowered by run_tasks().
// --------------------------------------------------------------------------

struct LanczosScript {
  const SolverOptions& options;
  State& s;
  std::vector<double>& alphas;
  std::vector<double>& betas;
  SolverStatus& status;
  index_t col; // column of Q written by the running iteration
  DataId q = -1, z = -1, Q = -1, proj = -1, beta2 = -1, beta = -1;

  template <typename L>
  void declare(L& l) {
    q = l.vec("q", &s.q);
    z = l.vec("z", &s.z);
    Q = l.vec("Q", &s.Q);
    proj = l.small("proj", &s.proj);
    beta2 = l.scalar("beta2", &s.beta2);
    beta = l.scalar("beta", &s.beta);
  }

  template <typename L>
  void issue(L& l) {
    double* b2 = &s.beta2;
    double* b = &s.beta;
    l.spmm(q, z);                   // z = A q
    l.xty(Q, z, proj);              // proj = Q^T z
    l.xy(Q, proj, z, -1.0, 1.0);    // z -= Q proj
    l.dot(z, z, beta2);             // beta2 = z . z
    l.small_task(
        graph::KernelKind::kNorm,
        [b2, b] { *b = std::max(std::sqrt(*b2), kBreakdownFloor); }, {beta2},
        {beta});
    l.scale_into(z, beta, /*reciprocal=*/true, q); // q = z / beta
    l.copy_into_column(q, Q, &col);                // Q(:, col) = q
  }

  bool accept(obs::IterScope& iter, int i) {
    const double alpha = s.proj.at(i, 0);
    iter.metric("alpha", alpha);
    iter.metric("beta", s.beta);
    if (!accept_iteration(alpha, s.beta, alphas, betas, status)) return false;
    col = i + 2;
    return true;
  }

  void checkpoint(int completed, int every) {
    maybe_checkpoint(options, s, alphas, betas, completed, every);
  }
};

LanczosResult run_task_version(const sparse::Csb& csb, int k, Version v,
                               const SolverOptions& options) {
  State s = make_state(csb, k, options);
  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  LanczosScript script{options, s, alphas, betas, status,
                       static_cast<index_t>(start) + 1};
  const IterationTiming timing =
      run_tasks(v, "lanczos", csb, options, start, k, script);
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

} // namespace

LanczosResult lanczos(const sparse::Csr& csr, const sparse::Csb& csb, int k,
                      Version v, const SolverOptions& options) {
  validate(options);
  if (k < 1) {
    throw support::Error("lanczos: iteration count must be >= 1, got " +
                         std::to_string(k));
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("lanczos: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error(
        "lanczos: CSB block size " + std::to_string(csb.block_size()) +
        " does not match options.block_size " +
        std::to_string(options.block_size));
  }
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  switch (v) {
    case Version::kLibCsr:
      STS_EXPECTS(csr.rows() == csb.rows());
      return run_bsp(&csr, csb, k, options);
    case Version::kLibCsb:
      return run_bsp(nullptr, csb, k, options);
    case Version::kDs:
    case Version::kFlux:
    case Version::kRgt:
      return run_task_version(csb, k, v, options);
  }
  throw support::Error("unknown solver version");
}

} // namespace sts::solver
