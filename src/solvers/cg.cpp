#include "solvers/cg.hpp"

#include <cmath>
#include <utility>

#include "bsp/kernels.hpp"
#include "flux/dataflow.hpp"
#include "la/blas.hpp"
#include "la/sptrsv.hpp"
#include "obs/obs.hpp"
#include "solvers/checkpoint.hpp"
#include "solvers/lowering.hpp"
#include "sparse/ic0.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::solver {

namespace {

/// Loss-of-positivity floor: p^T A p at or below it means A (or the
/// preconditioned operator) stopped looking SPD and the step length would
/// be garbage.
constexpr double kPositivityFloor = 0.0;

// ---- CSR triangular solves (the libcsr preconditioner path) --------------

/// x = L^-1 b over the lower-triangular CSR factor. Row entries are sorted
/// by column with the diagonal last (Csr::from_coo sorts; IC(0) patterns
/// always retain the diagonal). x must not alias b.
void csr_trsv_forward(const sparse::Csr& l, std::span<const double> b,
                      std::span<double> x) {
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  const index_t n = l.rows();
  for (index_t i = 0; i < n; ++i) {
    const std::int64_t lo = rp[static_cast<std::size_t>(i)];
    const std::int64_t hi = rp[static_cast<std::size_t>(i) + 1];
    double acc = b[static_cast<std::size_t>(i)];
    for (std::int64_t t = lo; t < hi - 1; ++t) {
      acc -= va[static_cast<std::size_t>(t)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])];
    }
    x[static_cast<std::size_t>(i)] =
        acc / va[static_cast<std::size_t>(hi - 1)];
  }
}

/// x = L^-T b, column-oriented: row i of L is column i of L^T, so each
/// solved entry scatters into the rows above it. x and b may alias.
void csr_trsv_backward(const sparse::Csr& l, std::span<const double> b,
                       std::span<double> x) {
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  for (index_t i = l.rows(); i-- > 0;) {
    const std::int64_t lo = rp[static_cast<std::size_t>(i)];
    const std::int64_t hi = rp[static_cast<std::size_t>(i) + 1];
    const double xi = x[static_cast<std::size_t>(i)] /
                      va[static_cast<std::size_t>(hi - 1)];
    x[static_cast<std::size_t>(i)] = xi;
    for (std::int64_t t = lo; t < hi - 1; ++t) {
      x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])] -=
          va[static_cast<std::size_t>(t)] * xi;
    }
  }
}

// ---- preconditioner ------------------------------------------------------

/// How apply_precond() runs the IC(0) triangular solves.
enum class TrsvMode { kCsr, kCsbSequential };

/// z = M^-1 r. `tmp` stages L^-1 r between the two IC(0) solves.
void apply_precond(const CgPreconditioner& pre, TrsvMode mode,
                   std::span<const double> r, std::span<double> z,
                   std::span<double> tmp) {
  switch (pre.kind) {
    case Precond::kNone:
      std::copy(r.begin(), r.end(), z.begin());
      return;
    case Precond::kJacobi: {
      const std::vector<double>& d = pre.inv_diag;
      for (std::size_t i = 0; i < z.size(); ++i) z[i] = r[i] * d[i];
      return;
    }
    case Precond::kIc0:
      if (mode == TrsvMode::kCsr) {
        csr_trsv_forward(pre.lower_csr, r, tmp);
        csr_trsv_backward(pre.lower_csr, tmp, z);
      } else {
        la::sptrsv_forward(pre.lower_csb, pre.plan, r, tmp);
        la::sptrsv_backward(pre.lower_csb, pre.plan, tmp, z);
      }
      return;
  }
}

// ---- shared state + checkpointing ----------------------------------------

struct State {
  index_t m = 0;
  double norm_b = 0.0;
  double rho = 0.0; // r . z at the current iteration boundary
  std::vector<double> b, x, r, p, z, q;
  std::vector<double> tmp; // L^-1 r staging between the two IC(0) solves
};

State make_state(index_t m, const SolverOptions& options) {
  State s;
  s.m = m;
  const std::size_t n = static_cast<std::size_t>(m);
  s.b.resize(n);
  support::Xoshiro256 rng(options.seed);
  for (double& v : s.b) v = rng.uniform(-1.0, 1.0);
  s.norm_b = la::nrm2(s.b);
  s.x.assign(n, 0.0);
  s.r = s.b;
  s.p.assign(n, 0.0);
  s.z.assign(n, 0.0);
  s.q.assign(n, 0.0);
  s.tmp.assign(n, 0.0);
  return s;
}

/// Applies options.restore (when set): x/r/p/rho come from the checkpoint,
/// b is regenerated from the (validated) seed. Returns the iteration to
/// resume from.
int apply_restore(const SolverOptions& options, State& s) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kCg) {
    throw support::Error(std::string("cg restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::CgState& st = c.cg;
  if (st.m != s.m) {
    throw support::Error("cg restore: checkpoint system size " +
                         std::to_string(st.m) + ", this solve needs " +
                         std::to_string(s.m));
  }
  if (st.seed != options.seed) {
    throw support::Error("cg restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  s.x = st.x;
  s.r = st.r;
  s.p = st.p;
  s.rho = st.rho;
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

void maybe_checkpoint(const SolverOptions& options, const State& s,
                      int completed, int every) {
  if (options.ckpt_path.empty() || completed % every != 0) return;
  ckpt::Checkpoint c;
  c.kind = ckpt::Kind::kCg;
  ckpt::CgState& st = c.cg;
  st.seed = options.seed;
  st.m = s.m;
  st.iterations = completed;
  st.rho = s.rho;
  st.x = s.x;
  st.r = s.r;
  st.p = s.p;
  try {
    ckpt::save(c, options.ckpt_path);
  } catch (const std::exception& e) {
    obs::counter("solver.ckpt_errors").add();
    obs::instant(std::string("ckpt: ") + e.what(), "solver");
  }
}

void publish_residual(double rel) {
  // Gauges carry integers; parts-per-billion keeps 9 digits of a relative
  // residual visible on the scrape endpoint without a float gauge type.
  obs::gauge("cg.residual_ppb")
      .observe(static_cast<std::int64_t>(rel * 1e9));
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

CgResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb,
                 const CgOptions& cg_options, const SolverOptions& options,
                 const CgPreconditioner& pre) {
  State s = make_state(csb.rows(), options);
  const TrsvMode mode =
      csr != nullptr ? TrsvMode::kCsr : TrsvMode::kCsbSequential;
  const char* label = csr != nullptr ? "cg.libcsr" : "cg.libcsb";

  CgResult result;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  if (start == 0) {
    apply_precond(pre, mode, s.r, s.z, s.tmp);
    s.p = s.z;
    s.rho = bsp::dot(s.r, s.z);
  }
  double rel = la::nrm2(s.r) / s.norm_b;

  const support::Timer timer;
  for (int i = start; i < cg_options.max_iterations && rel > cg_options.tol;
       ++i) {
    poll_cancel(options);
    obs::IterScope iter(label, i);
    if (csr != nullptr) {
      bsp::spmv(*csr, s.p, s.q);
    } else {
      bsp::spmv(csb, s.p, s.q);
    }
    const double pq = bsp::dot(s.p, s.q);
    if (!std::isfinite(pq)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    if (pq <= kPositivityFloor) {
      result.status = SolverStatus::kBreakdown;
      break;
    }
    const double alpha = s.rho / pq;
    bsp::axpy(alpha, s.p, s.x);
    bsp::axpy(-alpha, s.q, s.r);
    apply_precond(pre, mode, s.r, s.z, s.tmp);
    const double rho_new = bsp::dot(s.r, s.z);
    const double rr = bsp::dot(s.r, s.r);
    if (!std::isfinite(rho_new) || !std::isfinite(rr)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    const double beta = rho_new / s.rho;
    s.rho = rho_new;
    std::vector<double>* p = &s.p;
    const std::vector<double>* z = &s.z;
    const index_t m = s.m;
#pragma omp parallel for schedule(static)
    for (index_t rI = 0; rI < m; ++rI) {
      (*p)[static_cast<std::size_t>(rI)] =
          (*z)[static_cast<std::size_t>(rI)] +
          beta * (*p)[static_cast<std::size_t>(rI)];
    }
    rel = std::sqrt(rr) / s.norm_b;
    ++result.iterations;
    result.residual_norms.push_back(rel);
    iter.metric("residual", rel);
    publish_residual(rel);
    ++result.timing.iterations;
    maybe_checkpoint(options, s, i + 1, every);
  }
  result.timing.total_seconds = timer.seconds();
  result.relative_residual = rel;
  result.converged =
      result.status == SolverStatus::kOk && rel <= cg_options.tol;
  result.x = std::move(s.x);
  return result;
}

// --------------------------------------------------------------------------
// flux (HPX-style) version: each iteration is three waves of one task per
// block row plus, for IC(0), the DAG-scheduled triangular solves, threaded
// through futures. CG's two inner products are genuine synchronization
// points (alpha and beta are host-side scalars), so the host waits twice per
// iteration and sums the per-row partials in ascending order.
// --------------------------------------------------------------------------

CgResult run_flux(const sparse::Csb& csb, const CgOptions& cg_options,
                  const SolverOptions& options, const CgPreconditioner& pre) {
  State s = make_state(csb.rows(), options);
  const index_t b = options.block_size;
  STS_EXPECTS(csb.block_size() == b);
  const index_t np = csb.block_rows();
  const index_t m = s.m;
  const std::size_t nps = static_cast<std::size_t>(np);

  std::unique_ptr<flux::Scheduler> owned_sched;
  flux::Scheduler& sched = acquire_flux_pool(options, owned_sched);
  flux::QuiesceOnExit quiesce(sched);

  using Fut = flux::shared_future<void>;
  const sparse::Csb::DomainMap dmap =
      csb.partition_block_rows(options.numa_domains);
  // One traced task for block row bi (-1: no row, no hint) after `deps`.
  auto submit = [&](graph::KernelKind kind, index_t bi, auto fn,
                    auto&&... deps) {
    const int hint =
        options.numa_domains > 1 && bi >= 0 ? dmap.owner(bi) : -1;
    return flux::dataflow_hint(
               sched, hint,
               flux::unwrapping(flux_task(sched, kind,
                                          static_cast<std::int32_t>(bi),
                                          std::move(fn))),
               std::forward<decltype(deps)>(deps)...)
        .share();
  };

  const bool ic0 = pre.kind == Precond::kIc0;
  // A chain factor (every wave one block row wide) leaves the DAG nothing
  // to overlap, only task overhead to pay: both solves then run as one
  // sequential task, with bit-identical results.
  const bool chain = pre.plan.max_level_width() <= 1;
  // The factor's own stripe partition: its block grid differs from A's
  // (different nnz distribution), so the SpTRSV tasks hint through a map
  // computed on the factor, matching how place_csb would stripe it.
  sparse::Csb::DomainMap fdmap;
  const sparse::Csb::DomainMap* fdmap_ptr = nullptr;
  if (ic0 && !chain && options.numa_domains > 1) {
    fdmap = pre.lower_csb.partition_block_rows(options.numa_domains);
    fdmap_ptr = &fdmap;
  }

  // Block columns row i's SpMV applies, ascending.
  std::vector<std::vector<index_t>> cols(nps);
  for (index_t bi = 0; bi < np; ++bi) {
    for (index_t bj = 0; bj < np; ++bj) {
      if (options.skip_empty_blocks && csb.block_empty(bi, bj)) continue;
      cols[static_cast<std::size_t>(bi)].push_back(bj);
    }
  }

  CgResult result;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  if (start == 0) {
    // Setup (off the iteration clock): z0, p0, rho0 computed in place —
    // the scheduler is idle here, so the sequential apply is fine.
    apply_precond(pre, TrsvMode::kCsbSequential, s.r, s.z, s.tmp);
    s.p = s.z;
    s.rho = la::dot(s.r, s.z);
  }
  double rel = la::nrm2(s.r) / s.norm_b;

  // Dependences. Sync 1 waits on every spmv_dot[i], and spmv_dot[i] waited
  // on the writer of p_i, so from sync 1 on no task of an earlier
  // iteration is in flight: waves 2 and 3 and the solves read and write
  // without tracking earlier readers or writers. Only p's writers (wave 3)
  // carry over to the next iteration's wave 1.
  std::vector<Fut> p_w(nps, flux::make_ready_future());
  std::vector<double> pq_part(nps, 0.0);
  std::vector<double> rho_part(nps, 0.0);
  std::vector<double> rr_part(nps, 0.0);
  std::vector<double>* x = &s.x;
  std::vector<double>* r = &s.r;
  std::vector<double>* p = &s.p;
  std::vector<double>* z = &s.z;
  std::vector<double>* q = &s.q;
  std::vector<double>* pqp = &pq_part;
  std::vector<double>* rhop = &rho_part;
  std::vector<double>* rrp = &rr_part;
  const sparse::Csb* a = &csb;
  const CgPreconditioner* prep = &pre;
  // Block row bi of a vector.
  auto row = [b, m](std::vector<double>* v, index_t bi) {
    return std::span<double>(v->data() + bi * b,
                             static_cast<std::size_t>(std::min(b, m - bi * b)));
  };
  // rho partial of row i: r_i . z_i, once both are final.
  auto rho_row = [row, r, z, rhop](index_t bi) {
    (*rhop)[static_cast<std::size_t>(bi)] = la::dot(row(r, bi), row(z, bi));
  };
  auto sum = [](const std::vector<double>& parts) {
    double acc = 0.0;
    for (const double v : parts) acc += v;
    return acc;
  };

  const support::Timer timer;
  std::vector<Fut> wave(nps);
  for (int i = start; i < cg_options.max_iterations && rel > cg_options.tol;
       ++i) {
    poll_cancel(options);
    obs::IterScope iter("cg.flux", i);

    // Wave 1: q_i = sum_j A_ij p_j (ascending j) and the p_i . q_i partial.
    for (index_t bi = 0; bi < np; ++bi) {
      const std::vector<index_t>* cols_i = &cols[static_cast<std::size_t>(bi)];
      // The writers of the p pieces it reads; p_i (for the dot) may repeat.
      std::vector<Fut> deps{p_w[static_cast<std::size_t>(bi)]};
      for (const index_t bj : *cols_i) {
        deps.push_back(p_w[static_cast<std::size_t>(bj)]);
      }
      wave[static_cast<std::size_t>(bi)] = submit(
          graph::KernelKind::kSpMV, bi,
          [a, p, q, pqp, row, cols_i, bi] {
            const std::span<double> qi = row(q, bi);
            std::fill(qi.begin(), qi.end(), 0.0);
            for (const index_t bj : *cols_i) {
              sparse::csb_block_spmv(*a, bi, bj, *p, *q);
            }
            (*pqp)[static_cast<std::size_t>(bi)] = la::dot(row(p, bi), qi);
          },
          std::move(deps));
    }
    // Sync 1: alpha.
    for (Fut& f : wave) f.get(&sched);
    const double pq = sum(pq_part);
    if (!std::isfinite(pq)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    if (pq <= kPositivityFloor) {
      result.status = SolverStatus::kBreakdown;
      break;
    }
    const double alpha = s.rho / pq;

    // Wave 2: x_i += alpha p_i, r_i -= alpha q_i, the r_i . r_i partial
    // and, without IC(0), z_i = M^-1 r_i and its rho partial.
    for (index_t bi = 0; bi < np; ++bi) {
      wave[static_cast<std::size_t>(bi)] = submit(
          graph::KernelKind::kAxpy, bi,
          [x, r, p, q, z, rrp, prep, row, rho_row, alpha, ic0, bi, b] {
            const std::span<double> ri = row(r, bi);
            la::axpy(alpha, row(p, bi), row(x, bi));
            la::axpy(-alpha, row(q, bi), ri);
            (*rrp)[static_cast<std::size_t>(bi)] = la::dot(ri, ri);
            if (ic0) return;
            const std::span<double> zi = row(z, bi);
            if (prep->kind == Precond::kJacobi) {
              const double* d = prep->inv_diag.data() + bi * b;
              for (std::size_t k = 0; k < zi.size(); ++k) zi[k] = ri[k] * d[k];
            } else {
              std::copy(ri.begin(), ri.end(), zi.begin());
            }
            rho_row(bi);
          });
    }

    // z = L^-T L^-1 r, each forward row starting as soon as its r_i is
    // updated; backward row j computes its rho partial once z_j is final.
    if (ic0 && chain) {
      Fut solve = submit(
          graph::KernelKind::kSpTRSV, -1,
          [prep, r, z, s_tmp = &s.tmp, rho_row, np] {
            la::sptrsv_forward(prep->lower_csb, prep->plan, *r, *s_tmp);
            la::sptrsv_backward(prep->lower_csb, prep->plan, *s_tmp, *z);
            for (index_t bi = 0; bi < np; ++bi) rho_row(bi);
          },
          std::move(wave));
      wave.assign(nps, solve);
    } else if (ic0) {
      wave = la::sptrsv_backward(
          pre.lower_csb, pre.plan, s.tmp, s.z, sched, fdmap_ptr,
          la::sptrsv_forward(pre.lower_csb, pre.plan, s.r, s.tmp, sched,
                             fdmap_ptr, std::move(wave)),
          rho_row);
    }
    // Sync 2: beta and the residual.
    for (Fut& f : wave) f.get(&sched);
    const double rho_new = sum(rho_part);
    const double rr = sum(rr_part);
    if (!std::isfinite(rho_new) || !std::isfinite(rr)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    const double beta = rho_new / s.rho;
    s.rho = rho_new;

    // Wave 3: p_i = z_i + beta p_i.
    for (index_t bi = 0; bi < np; ++bi) {
      p_w[static_cast<std::size_t>(bi)] = submit(
          graph::KernelKind::kScale, bi, [p, z, row, beta, bi] {
            const std::span<double> pi = row(p, bi);
            const std::span<double> zi = row(z, bi);
            for (std::size_t k = 0; k < pi.size(); ++k) {
              pi[k] = zi[k] + beta * pi[k];
            }
          });
    }

    rel = std::sqrt(rr) / s.norm_b;
    ++result.iterations;
    result.residual_norms.push_back(rel);
    iter.metric("residual", rel);
    publish_residual(rel);
    ++result.timing.iterations;
    // Checkpointing needs x/r/p fully written, not just the syncs.
    if (!options.ckpt_path.empty() && (i + 1) % every == 0) {
      sched.wait_for_quiescence();
      maybe_checkpoint(options, s, i + 1, every);
    }
  }
  quiesce.dismiss();
  sched.wait_for_quiescence();
  result.timing.total_seconds = timer.seconds();
  result.relative_residual = rel;
  result.converged =
      result.status == SolverStatus::kOk && rel <= cg_options.tol;
  result.x = std::move(s.x);
  return result;
}

void check_args(const sparse::Csr& csr, const sparse::Csb& csb,
                const CgOptions& cg_options, const SolverOptions& options) {
  validate(options);
  if (cg_options.max_iterations < 1) {
    throw support::Error("cg: max_iterations must be >= 1, got " +
                         std::to_string(cg_options.max_iterations));
  }
  if (!(cg_options.tol > 0.0)) {
    throw support::Error("cg: tolerance must be positive");
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("cg: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error("cg: CSB block size " +
                         std::to_string(csb.block_size()) +
                         " does not match options.block_size " +
                         std::to_string(options.block_size));
  }
  STS_EXPECTS(csr.rows() == csb.rows());
}

} // namespace

const char* to_string(Precond p) {
  switch (p) {
    case Precond::kNone: return "none";
    case Precond::kJacobi: return "jacobi";
    case Precond::kIc0: return "ic0";
  }
  return "?";
}

CgPreconditioner CgPreconditioner::build(const sparse::Csr& a, Precond kind,
                                         index_t block_size) {
  CgPreconditioner pre;
  pre.kind = kind;
  if (kind == Precond::kJacobi) {
    pre.inv_diag = sparse::diagonal(a);
    for (double& d : pre.inv_diag) d = 1.0 / d;
  } else if (kind == Precond::kIc0) {
    sparse::Ic0Result fac = sparse::ic0_factor(a);
    pre.shift = fac.shift;
    pre.lower_csb = sparse::Csb::from_csr(fac.lower, block_size);
    pre.lower_csr = std::move(fac.lower);
    pre.plan = la::SptrsvPlan::build(pre.lower_csb);
  }
  return pre;
}

std::size_t CgPreconditioner::bytes() const {
  return inv_diag.size() * sizeof(double) + lower_csr.memory_bytes() +
         lower_csb.memory_bytes() + plan.memory_bytes();
}

CgResult cg(const sparse::Csr& csr, const sparse::Csb& csb, Version v,
            const CgPreconditioner& precond, const CgOptions& cg_options,
            const SolverOptions& options) {
  check_args(csr, csb, cg_options, options);
  const bool fits =
      precond.kind == cg_options.precond &&
      (precond.kind != Precond::kIc0 ||
       (precond.lower_csb.block_size() == options.block_size &&
        precond.lower_csr.rows() == csr.rows())) &&
      (precond.kind != Precond::kJacobi ||
       precond.inv_diag.size() == static_cast<std::size_t>(csr.rows()));
  if (!fits) {
    throw support::Error(std::string("cg: the ") + to_string(precond.kind) +
                         " preconditioner was not built for this solve (" +
                         to_string(cg_options.precond) + ", " +
                         std::to_string(csr.rows()) + " rows, block " +
                         std::to_string(options.block_size) + ")");
  }
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  CgResult result;
  switch (v) {
    case Version::kLibCsr:
      result = run_bsp(&csr, csb, cg_options, options, precond);
      break;
    case Version::kLibCsb:
      result = run_bsp(nullptr, csb, cg_options, options, precond);
      break;
    case Version::kFlux:
      result = run_flux(csb, cg_options, options, precond);
      break;
    case Version::kDs:
    case Version::kRgt:
      throw support::Error(std::string("cg: version ") + to_string(v) +
                           " is not implemented (cg supports libcsr, "
                           "libcsb, hpx)");
  }
  result.precond_shift = precond.shift;
  if (precond.kind == Precond::kIc0) {
    result.level_span = precond.plan.level_span();
  }
  return result;
}

CgResult cg(const sparse::Csr& csr, const sparse::Csb& csb, Version v,
            const CgOptions& cg_options, const SolverOptions& options) {
  // Checked before the build: a bad block size must throw, not reach the
  // re-blocking of the factor.
  check_args(csr, csb, cg_options, options);
  return cg(csr, csb, v,
            CgPreconditioner::build(csr, cg_options.precond,
                                    options.block_size),
            cg_options, options);
}

} // namespace sts::solver
