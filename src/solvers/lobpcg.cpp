#include "solvers/lobpcg.hpp"

#include <algorithm>
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

using la::DenseMatrix;

/// Small (n x n and 3n x 3n) matrices shared by every version. Names match
/// the recipe in lobpcg.hpp; gaIJ/gbIJ are the Gram blocks of
/// S = [X W P] against AS / S.
struct Smalls {
  DenseMatrix M, RR, CXW, GWW, WSC;
  DenseMatrix ga01, ga02, ga11, ga12, ga22;
  DenseMatrix gb00, gb01, gb02, gb11, gb12, gb22;
  DenseMatrix CX, CW, CP;
  DenseMatrix norms; // nev x 1 residual norms
  std::vector<double> theta;
  int converged = 0;
  // Degradation flags checked at the per-iteration barrier: set by the
  // small-task bodies (which run on workers and must not throw).
  bool rr_failed = false; // Rayleigh-Ritz pencil singular beyond repair
  bool nonfinite = false; // NaN/Inf reached residual norms or Gram blocks

  explicit Smalls(index_t n)
      : M(n, n), RR(n, n), CXW(n, n), GWW(n, n), WSC(n, n), ga01(n, n),
        ga02(n, n), ga11(n, n), ga12(n, n), ga22(n, n), gb00(n, n),
        gb01(n, n), gb02(n, n), gb11(n, n), gb12(n, n), gb22(n, n), CX(n, n),
        CW(n, n), CP(n, n), norms(n, 1), theta(static_cast<std::size_t>(n)) {}
};

struct State {
  index_t m = 0;
  index_t n = 0;
  DenseMatrix X, AX, W, AW, P, AP, R, Xn, AXn, Pn, APn;
  Smalls sm;

  State(index_t m_in, index_t n_in, bool first_touch)
      : m(m_in), n(n_in), X(m_in, n_in, first_touch),
        AX(m_in, n_in, first_touch), W(m_in, n_in, first_touch),
        AW(m_in, n_in, first_touch), P(m_in, n_in, first_touch),
        AP(m_in, n_in, first_touch), R(m_in, n_in, first_touch),
        Xn(m_in, n_in, first_touch), AXn(m_in, n_in, first_touch),
        Pn(m_in, n_in, first_touch), APn(m_in, n_in, first_touch),
        sm(n_in) {}
};

State make_state(const sparse::Csb& a, const LobpcgOptions& options) {
  State s(a.rows(), options.nev, options.first_touch);
  support::Xoshiro256 rng(options.seed);
  s.X.fill_random(rng, -1.0, 1.0);
  la::orthonormalize_columns(s.X.view());
  bsp::spmm(a, s.X.view(), s.AX.view()); // setup, excluded from timing
  return s;
}

// --- shared small-task bodies (identical math in every version) ---------

void body_conv_check(Smalls* sm, double tol) {
  const index_t n = sm->RR.rows();
  int converged = 0;
  for (index_t j = 0; j < n; ++j) {
    const double norm = std::sqrt(std::max(0.0, sm->RR.at(j, j)));
    sm->norms.at(j, 0) = norm;
    if (!std::isfinite(norm)) sm->nonfinite = true;
    if (norm < tol) ++converged;
  }
  sm->converged = converged;
}

/// WSC = L^{-T} for L = chol(GWW + jitter I): W := R * WSC has orthonormal
/// columns. Escalating jitter guards rank-deficient residual blocks.
void body_w_normalizer(Smalls* sm) {
  const index_t n = sm->GWW.rows();
  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    DenseMatrix l(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        l.at(i, j) = sm->GWW.at(i, j) + (i == j ? jitter : 0.0);
      }
    }
    if (la::cholesky_lower(l.view())) {
      // WSC = L^{-T}: solve L^T WSC = I.
      sm->WSC.fill(0.0);
      for (index_t i = 0; i < n; ++i) sm->WSC.at(i, i) = 1.0;
      la::solve_lower_transposed(l.view(), sm->WSC.view());
      return;
    }
    jitter = jitter == 0.0 ? 1e-12 : jitter * 100.0;
  }
  // Hopeless block: fall back to identity (W stays unnormalized).
  sm->WSC.fill(0.0);
  for (index_t i = 0; i < n; ++i) sm->WSC.at(i, i) = 1.0;
}

/// Rayleigh-Ritz on span{X, W, P} (or {X, W} while P == 0): assembles the
/// Gram pencil from the blocks, solves, and emits the coefficient blocks.
void body_rayleigh_ritz(Smalls* sm) {
  const index_t n = sm->M.rows();
  double p_trace = 0.0;
  for (index_t i = 0; i < n; ++i) p_trace += sm->gb22.at(i, i);
  const bool use_p = p_trace > 1e-12 * static_cast<double>(n);
  const index_t dim = use_p ? 3 * n : 2 * n;

  DenseMatrix ga(dim, dim);
  DenseMatrix gb(dim, dim);
  auto put = [&](const DenseMatrix& blk, DenseMatrix& dst, index_t bi,
                 index_t bj) {
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        dst.at(bi * n + i, bj * n + j) = blk.at(i, j);
        dst.at(bj * n + j, bi * n + i) = blk.at(i, j);
      }
    }
  };
  put(sm->M, ga, 0, 0);
  put(sm->ga01, ga, 0, 1);
  put(sm->ga11, ga, 1, 1);
  put(sm->gb00, gb, 0, 0);
  put(sm->gb01, gb, 0, 1);
  put(sm->gb11, gb, 1, 1);
  if (use_p) {
    put(sm->ga02, ga, 0, 2);
    put(sm->ga12, ga, 1, 2);
    put(sm->ga22, ga, 2, 2);
    put(sm->gb02, gb, 0, 2);
    put(sm->gb12, gb, 1, 2);
    put(sm->gb22, gb, 2, 2);
  }
  // put() writes both (i,j) and (j,i); diagonal blocks may be slightly
  // asymmetric from floating-point partials, symmetrize explicitly.
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = i + 1; j < dim; ++j) {
      const double av = 0.5 * (ga.at(i, j) + ga.at(j, i));
      ga.at(i, j) = ga.at(j, i) = av;
      const double bv = 0.5 * (gb.at(i, j) + gb.at(j, i));
      gb.at(i, j) = gb.at(j, i) = bv;
    }
  }

  // A degenerate pencil must not throw from a task body; degrade instead:
  // CX = I, CW = CP = 0 makes the update a no-op, the flag stops the
  // driver loop at its next barrier, and the previous theta survives.
  auto degrade = [&] {
    sm->CX.fill(0.0);
    for (index_t i = 0; i < n; ++i) sm->CX.at(i, i) = 1.0;
    sm->CW.fill(0.0);
    sm->CP.fill(0.0);
  };
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = 0; j < dim; ++j) {
      if (!std::isfinite(ga.at(i, j)) || !std::isfinite(gb.at(i, j))) {
        sm->nonfinite = true;
        degrade();
        return;
      }
    }
  }

  la::EigenResult eig;
  double jitter = 0.0;
  for (int attempt = 0;; ++attempt) {
    try {
      DenseMatrix gbj = gb.clone();
      for (index_t i = 0; i < dim; ++i) gbj.at(i, i) += jitter;
      eig = la::sym_generalized_eigen(ga.view(), gbj.view());
      break;
    } catch (const support::Error&) {
      if (attempt >= 8) {
        sm->rr_failed = true;
        degrade();
        return;
      }
      jitter = jitter == 0.0 ? 1e-12 : jitter * 100.0;
    }
  }

  for (index_t j = 0; j < n; ++j) {
    sm->theta[static_cast<std::size_t>(j)] = eig.values[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < n; ++i) {
      sm->CX.at(i, j) = eig.vectors.at(i, j);
      sm->CW.at(i, j) = eig.vectors.at(n + i, j);
      sm->CP.at(i, j) = use_p ? eig.vectors.at(2 * n + i, j) : 0.0;
    }
  }
}

/// Attaches the per-iteration convergence metrics to the iteration span.
/// The norms/converged fields are valid here: every version's iteration
/// barrier orders the kConvCheck task before this runs on the driver.
void note_iteration_metrics(obs::IterScope& iter, const Smalls& sm,
                            index_t n) {
  if (!iter.enabled()) return;
  double max_residual = 0.0;
  for (index_t j = 0; j < n; ++j) {
    max_residual = std::max(max_residual, sm.norms.at(j, 0));
  }
  iter.metric("converged", static_cast<double>(sm.converged));
  iter.metric("max_residual", max_residual);
}

/// Applies options.restore (when set) and returns the iteration to resume
/// from. Only X/AX/P/AP and the convergence bookkeeping are restored —
/// every iteration recomputes W/AW/R and the Gram blocks from those, so
/// resuming is bit-identical whenever the kernel schedule is deterministic.
/// The checkpoint must describe this exact solve (kind, shape, seed).
int apply_restore(const LobpcgOptions& options, State& s) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kLobpcg) {
    throw support::Error(std::string("lobpcg restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::LobpcgState& st = c.lobpcg;
  if (st.m != s.m || st.n != s.n) {
    throw support::Error("lobpcg restore: checkpoint block is " +
                         std::to_string(st.m) + "x" + std::to_string(st.n) +
                         ", this solve needs " + std::to_string(s.m) + "x" +
                         std::to_string(s.n));
  }
  if (st.seed != options.seed) {
    throw support::Error("lobpcg restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  std::copy(st.x.begin(), st.x.end(), s.X.flat().begin());
  std::copy(st.ax.begin(), st.ax.end(), s.AX.flat().begin());
  std::copy(st.p.begin(), st.p.end(), s.P.flat().begin());
  std::copy(st.ap.begin(), st.ap.end(), s.AP.flat().begin());
  s.sm.theta = st.theta;
  for (index_t j = 0; j < s.n; ++j) {
    s.sm.norms.at(j, 0) = st.norms[static_cast<std::size_t>(j)];
  }
  s.sm.converged = static_cast<int>(st.converged);
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

/// Writes a checkpoint after `completed` iterations when the options ask
/// for one. Only called where the block vectors are quiescent (after the
/// iteration barrier, before the next submission round). A write failure is
/// contained: counted, logged, and the solve carries on.
void maybe_checkpoint(const LobpcgOptions& options, const State& s,
                      int completed, int every) {
  if (options.ckpt_path.empty() || completed % every != 0) return;
  ckpt::Checkpoint c;
  c.kind = ckpt::Kind::kLobpcg;
  ckpt::LobpcgState& st = c.lobpcg;
  st.seed = options.seed;
  st.m = s.m;
  st.n = s.n;
  st.iterations = completed;
  st.converged = s.sm.converged;
  st.theta = s.sm.theta;
  st.norms.resize(static_cast<std::size_t>(s.n));
  for (index_t j = 0; j < s.n; ++j) {
    st.norms[static_cast<std::size_t>(j)] = s.sm.norms.at(j, 0);
  }
  st.x.assign(s.X.flat().begin(), s.X.flat().end());
  st.ax.assign(s.AX.flat().begin(), s.AX.flat().end());
  st.p.assign(s.P.flat().begin(), s.P.flat().end());
  st.ap.assign(s.AP.flat().begin(), s.AP.flat().end());
  try {
    ckpt::save(c, options.ckpt_path);
  } catch (const std::exception& e) {
    obs::counter("solver.ckpt_errors").add();
    obs::instant(std::string("ckpt: ") + e.what(), "solver");
  }
}

LobpcgResult finalize(const State& s, IterationTiming timing) {
  LobpcgResult result;
  result.eigenvalues = s.sm.theta;
  result.residual_norms.resize(static_cast<std::size_t>(s.n));
  for (index_t j = 0; j < s.n; ++j) {
    result.residual_norms[static_cast<std::size_t>(j)] = s.sm.norms.at(j, 0);
  }
  result.converged = s.sm.converged;
  if (s.sm.nonfinite) {
    result.status = SolverStatus::kNotFinite;
  } else if (s.sm.rr_failed) {
    result.status = SolverStatus::kBreakdown;
  }
  result.timing = timing;
  return result;
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

LobpcgResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb,
                     int max_iterations, const LobpcgOptions& options) {
  State s = make_state(csb, options);
  const index_t chunk = options.block_size;
  Smalls& sm = s.sm;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);

  IterationTiming timing;
  const support::Timer timer;
  for (int it = start; it < max_iterations; ++it) {
    poll_cancel(options);
    obs::IterScope iter(csr != nullptr ? "lobpcg.libcsr" : "lobpcg.libcsb",
                        it);
    bsp::xty(s.X.view(), s.AX.view(), sm.M.view(), chunk);
    // R = AX - X M: copy AX -> R, then R -= X M.
    {
      la::ConstMatrixView ax = s.AX.view();
      la::MatrixView r = s.R.view();
#pragma omp parallel for schedule(static)
      for (index_t i = 0; i < s.m; ++i) {
        const double* src = ax.row(i);
        double* dst = r.row(i);
        for (index_t j = 0; j < s.n; ++j) dst[j] = src[j];
      }
    }
    bsp::xy(s.X.view(), sm.M.view(), s.R.view(), chunk, -1.0, 1.0);
    bsp::xty(s.R.view(), s.R.view(), sm.RR.view(), chunk);
    body_conv_check(&sm, options.tolerance);

    // W = orthonormalize(R - X X^T R).
    bsp::xty(s.X.view(), s.R.view(), sm.CXW.view(), chunk);
    bsp::xy(s.X.view(), sm.CXW.view(), s.R.view(), chunk, -1.0, 1.0);
    bsp::xty(s.R.view(), s.R.view(), sm.GWW.view(), chunk);
    body_w_normalizer(&sm);
    bsp::xy(s.R.view(), sm.WSC.view(), s.W.view(), chunk, 1.0, 0.0);

    if (csr != nullptr) {
      bsp::spmm(*csr, s.W.view(), s.AW.view());
    } else {
      bsp::spmm(csb, s.W.view(), s.AW.view());
    }

    bsp::xty(s.X.view(), s.AW.view(), sm.ga01.view(), chunk);
    bsp::xty(s.X.view(), s.AP.view(), sm.ga02.view(), chunk);
    bsp::xty(s.W.view(), s.AW.view(), sm.ga11.view(), chunk);
    bsp::xty(s.W.view(), s.AP.view(), sm.ga12.view(), chunk);
    bsp::xty(s.P.view(), s.AP.view(), sm.ga22.view(), chunk);
    bsp::xty(s.X.view(), s.X.view(), sm.gb00.view(), chunk);
    bsp::xty(s.X.view(), s.W.view(), sm.gb01.view(), chunk);
    bsp::xty(s.X.view(), s.P.view(), sm.gb02.view(), chunk);
    bsp::xty(s.W.view(), s.W.view(), sm.gb11.view(), chunk);
    bsp::xty(s.W.view(), s.P.view(), sm.gb12.view(), chunk);
    bsp::xty(s.P.view(), s.P.view(), sm.gb22.view(), chunk);
    body_rayleigh_ritz(&sm);

    bsp::xy(s.W.view(), sm.CW.view(), s.Pn.view(), chunk, 1.0, 0.0);
    bsp::xy(s.P.view(), sm.CP.view(), s.Pn.view(), chunk, 1.0, 1.0);
    bsp::xy(s.AW.view(), sm.CW.view(), s.APn.view(), chunk, 1.0, 0.0);
    bsp::xy(s.AP.view(), sm.CP.view(), s.APn.view(), chunk, 1.0, 1.0);
    bsp::xy(s.X.view(), sm.CX.view(), s.Xn.view(), chunk, 1.0, 0.0);
    bsp::axpy(1.0, s.Pn.view(), s.Xn.view(), chunk);
    bsp::xy(s.AX.view(), sm.CX.view(), s.AXn.view(), chunk, 1.0, 0.0);
    bsp::axpy(1.0, s.APn.view(), s.AXn.view(), chunk);

    std::swap(s.X, s.Xn);
    std::swap(s.AX, s.AXn);
    std::swap(s.P, s.Pn);
    std::swap(s.AP, s.APn);
    note_iteration_metrics(iter, sm, s.n);
    ++timing.iterations;
    if (sm.converged >= s.n || sm.rr_failed || sm.nonfinite) break;
    maybe_checkpoint(options, s, it + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(s, timing);
}

// --------------------------------------------------------------------------
// Task runtimes (ds, flux, rgt): one iteration as the kernel calls of the
// recipe in lobpcg.hpp, lowered by run_tasks(). Buffer rotation is copy
// kernels, so every iteration issues the same calls (and ds's graph stays
// valid across iterations).
// --------------------------------------------------------------------------

struct LobpcgScript {
  const LobpcgOptions& options;
  State& s;
  DataId X = -1, AX = -1, W = -1, AW = -1, P = -1, AP = -1, R = -1, Xn = -1,
         AXn = -1, Pn = -1, APn = -1;
  DataId M = -1, RR = -1, CXW = -1, GWW = -1, WSC = -1;
  DataId ga01 = -1, ga02 = -1, ga11 = -1, ga12 = -1, ga22 = -1;
  DataId gb00 = -1, gb01 = -1, gb02 = -1, gb11 = -1, gb12 = -1, gb22 = -1;
  DataId CX = -1, CW = -1, CP = -1, NRM = -1;

  template <typename L>
  void declare(L& l) {
    Smalls& sm = s.sm;
    X = l.vec("X", &s.X);
    AX = l.vec("AX", &s.AX);
    W = l.vec("W", &s.W);
    AW = l.vec("AW", &s.AW);
    P = l.vec("P", &s.P);
    AP = l.vec("AP", &s.AP);
    R = l.vec("R", &s.R);
    Xn = l.vec("Xn", &s.Xn);
    AXn = l.vec("AXn", &s.AXn);
    Pn = l.vec("Pn", &s.Pn);
    APn = l.vec("APn", &s.APn);
    M = l.small("M", &sm.M);
    RR = l.small("RR", &sm.RR);
    CXW = l.small("CXW", &sm.CXW);
    GWW = l.small("GWW", &sm.GWW);
    WSC = l.small("WSC", &sm.WSC);
    ga01 = l.small("ga01", &sm.ga01);
    ga02 = l.small("ga02", &sm.ga02);
    ga11 = l.small("ga11", &sm.ga11);
    ga12 = l.small("ga12", &sm.ga12);
    ga22 = l.small("ga22", &sm.ga22);
    gb00 = l.small("gb00", &sm.gb00);
    gb01 = l.small("gb01", &sm.gb01);
    gb02 = l.small("gb02", &sm.gb02);
    gb11 = l.small("gb11", &sm.gb11);
    gb12 = l.small("gb12", &sm.gb12);
    gb22 = l.small("gb22", &sm.gb22);
    CX = l.small("CX", &sm.CX);
    CW = l.small("CW", &sm.CW);
    CP = l.small("CP", &sm.CP);
    NRM = l.small("norms", &sm.norms);
  }

  template <typename L>
  void issue(L& l) {
    Smalls* smp = &s.sm;
    const double tol = options.tolerance;
    l.xty(X, AX, M);
    l.copy(AX, R);
    l.xy(X, M, R, -1.0, 1.0);
    l.xty(R, R, RR);
    l.small_task(graph::KernelKind::kConvCheck,
                 [smp, tol] { body_conv_check(smp, tol); }, {RR}, {NRM});
    l.xty(X, R, CXW);
    l.xy(X, CXW, R, -1.0, 1.0);
    l.xty(R, R, GWW);
    l.small_task(graph::KernelKind::kOrtho, [smp] { body_w_normalizer(smp); },
                 {GWW}, {WSC});
    l.xy(R, WSC, W, 1.0, 0.0);
    l.spmm(W, AW);
    l.xty(X, AW, ga01);
    l.xty(X, AP, ga02);
    l.xty(W, AW, ga11);
    l.xty(W, AP, ga12);
    l.xty(P, AP, ga22);
    l.xty(X, X, gb00);
    l.xty(X, W, gb01);
    l.xty(X, P, gb02);
    l.xty(W, W, gb11);
    l.xty(W, P, gb12);
    l.xty(P, P, gb22);
    l.small_task(graph::KernelKind::kOrtho, [smp] { body_rayleigh_ritz(smp); },
                 {M, ga01, ga02, ga11, ga12, ga22, gb00, gb01, gb02, gb11,
                  gb12, gb22},
                 {CX, CW, CP});
    l.xy(W, CW, Pn, 1.0, 0.0);
    l.xy(P, CP, Pn, 1.0, 1.0);
    l.xy(AW, CW, APn, 1.0, 0.0);
    l.xy(AP, CP, APn, 1.0, 1.0);
    l.xy(X, CX, Xn, 1.0, 0.0);
    l.axpy(1.0, Pn, Xn);
    l.xy(AX, CX, AXn, 1.0, 0.0);
    l.axpy(1.0, APn, AXn);
    l.copy(Xn, X);
    l.copy(AXn, AX);
    l.copy(Pn, P);
    l.copy(APn, AP);
  }

  bool accept(obs::IterScope& iter, int /*it*/) {
    note_iteration_metrics(iter, s.sm, s.n);
    return !(s.sm.converged >= s.n || s.sm.rr_failed || s.sm.nonfinite);
  }

  void checkpoint(int completed, int every) {
    maybe_checkpoint(options, s, completed, every);
  }
};

LobpcgResult run_task_version(const sparse::Csb& csb, int max_iterations,
                              Version v, const LobpcgOptions& options) {
  State s = make_state(csb, options);
  const int start = apply_restore(options, s);
  LobpcgScript script{options, s};
  const IterationTiming timing =
      run_tasks(v, "lobpcg", csb, options, start, max_iterations, script);
  return finalize(s, timing);
}

} // namespace

LobpcgResult lobpcg(const sparse::Csr& csr, const sparse::Csb& csb,
                    int max_iterations, Version v,
                    const LobpcgOptions& options) {
  validate(options);
  if (max_iterations < 1) {
    throw support::Error("lobpcg: max_iterations must be >= 1, got " +
                         std::to_string(max_iterations));
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("lobpcg: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error(
        "lobpcg: CSB block size " + std::to_string(csb.block_size()) +
        " does not match options.block_size " +
        std::to_string(options.block_size));
  }
  if (options.nev < 1 || options.nev > csb.rows() / 4) {
    throw support::Error("lobpcg: nev must be in [1, rows/4], got " +
                         std::to_string(options.nev) + " for " +
                         std::to_string(csb.rows()) + " rows");
  }
  if (!(options.tolerance > 0.0) || !std::isfinite(options.tolerance)) {
    throw support::Error("lobpcg: tolerance must be positive and finite");
  }
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  switch (v) {
    case Version::kLibCsr:
      STS_EXPECTS(csr.rows() == csb.rows());
      return run_bsp(&csr, csb, max_iterations, options);
    case Version::kLibCsb:
      return run_bsp(nullptr, csb, max_iterations, options);
    case Version::kDs:
    case Version::kFlux:
    case Version::kRgt:
      return run_task_version(csb, max_iterations, v, options);
  }
  throw support::Error("unknown solver version");
}

} // namespace sts::solver
