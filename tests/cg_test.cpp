#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "flux/future.hpp"
#include "flux/scheduler.hpp"
#include "la/blas.hpp"
#include "la/sptrsv.hpp"
#include "obs/obs.hpp"
#include "perf/trace.hpp"
#include "solvers/cg.hpp"
#include "solvers/checkpoint.hpp"
#include "sparse/generators.hpp"
#include "sparse/ic0.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sts::solver {
namespace {

using la::index_t;

struct Problem {
  sparse::Coo coo;
  sparse::Csr csr;
  sparse::Csb csb;

  Problem(sparse::Coo c, index_t block)
      : coo(std::move(c)),
        csr(sparse::Csr::from_coo(coo)),
        csb(sparse::Csb::from_coo(coo, block)) {}
};

Problem spd_problem(index_t block = 32) {
  return Problem(sparse::gen_laplacian3d(6, 6, 6, 1, 101), block);
}

/// Scattered block structure, so the IC(0) factor's SpTRSV DAG has real
/// width rather than being a chain; the diagonal is boosted to keep it SPD.
Problem wide_problem(index_t block = 16) {
  sparse::Coo coo = sparse::gen_block_random(12, 16, 0.25, 0.5, 11);
  for (index_t i = 0; i < coo.rows(); ++i) coo.add(i, i, 64.0);
  coo.finalize();
  return Problem(std::move(coo), block);
}

SolverOptions base_options(index_t block = 32) {
  SolverOptions o;
  o.block_size = block;
  o.threads = 2;
  return o;
}

/// Dense y = M x for a CSR matrix (reference kernel for the solve checks).
std::vector<double> csr_apply(const sparse::Csr& a,
                              const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto rp = a.rowptr();
  const auto ci = a.colidx();
  const auto va = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      acc += va[static_cast<std::size_t>(t)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// y = L^T x via the same CSR rows (column sweep).
std::vector<double> csr_apply_t(const sparse::Csr& l,
                                const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(l.rows()), 0.0);
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  for (index_t i = 0; i < l.rows(); ++i) {
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      y[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])] +=
          va[static_cast<std::size_t>(t)] * x[static_cast<std::size_t>(i)];
    }
  }
  return y;
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  support::Xoshiro256 rng(seed);
  for (double& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

double rel_err(const std::vector<double>& got,
               const std::vector<double>& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - want[i]) * (got[i] - want[i]);
    den += want[i] * want[i];
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

// ---- IC(0) ---------------------------------------------------------------

TEST(Ic0, FactorMatchesMatrixOnRetainedPattern) {
  const Problem p = spd_problem();
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  EXPECT_EQ(fac.shift, 0.0); // laplacian3d is strictly dominant SPD
  // L L^T must reproduce A exactly on tril(A)'s pattern (the defining
  // property of IC(0): no fill, exact match on retained entries).
  const la::DenseMatrix a = p.coo.to_dense();
  const la::DenseMatrix l = [&] {
    la::DenseMatrix d(p.csr.rows(), p.csr.rows());
    const auto rp = fac.lower.rowptr();
    const auto ci = fac.lower.colidx();
    const auto va = fac.lower.values();
    for (index_t i = 0; i < fac.lower.rows(); ++i) {
      for (std::int64_t t = rp[static_cast<std::size_t>(i)];
           t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
        d.at(i, ci[static_cast<std::size_t>(t)]) =
            va[static_cast<std::size_t>(t)];
      }
    }
    return d;
  }();
  const auto rp = fac.lower.rowptr();
  const auto ci = fac.lower.colidx();
  for (index_t i = 0; i < p.csr.rows(); ++i) {
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      const index_t j = ci[static_cast<std::size_t>(t)];
      double llt = 0.0;
      for (index_t k = 0; k <= j; ++k) llt += l.at(i, k) * l.at(j, k);
      EXPECT_NEAR(llt, a.at(i, j), 1e-9 * (1.0 + std::abs(a.at(i, j))))
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Ic0, MissingDiagonalThrows) {
  sparse::Coo coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 2.0);
  coo.add(2, 1, 1.0);
  coo.add(1, 2, 1.0); // row 2 has no diagonal
  coo.finalize();
  const sparse::Csr a = sparse::Csr::from_coo(coo);
  EXPECT_THROW((void)sparse::ic0_factor(a), support::Error);
}

TEST(Ic0, IndefiniteMatrixTriggersShift) {
  // [[1, 2], [2, 1]] is symmetric but indefinite: the unshifted pivot at
  // row 1 is 1 - 4 < 0, so the Manteuffel shift loop must kick in.
  sparse::Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.finalize();
  sparse::Ic0Options opts;
  opts.max_shift_attempts = 16; // (1+shift)^2 > 4 needs shift > 1
  const sparse::Ic0Result fac =
      sparse::ic0_factor(sparse::Csr::from_coo(coo), opts);
  EXPECT_GT(fac.shift, 0.0);
  EXPECT_GT(fac.shift_attempts, 0);
}

TEST(Ic0, DiagonalExtraction) {
  const Problem p = spd_problem();
  const std::vector<double> d = sparse::diagonal(p.csr);
  const la::DenseMatrix a = p.coo.to_dense();
  for (index_t i = 0; i < p.csr.rows(); ++i) {
    EXPECT_EQ(d[static_cast<std::size_t>(i)], a.at(i, i));
  }
}

// ---- SpTRSV --------------------------------------------------------------

class SptrsvBlockSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SptrsvBlockSizes, ForwardAndBackwardMatchReference) {
  const index_t block = GetParam();
  const Problem p = spd_problem(block);
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
  EXPECT_EQ(plan.block_rows(), lcsb.block_rows());
  EXPECT_GE(plan.level_span(), 1);
  EXPECT_GE(plan.max_level_width(), 1);

  const std::vector<double> b = random_vec(p.csr.rows(), 7);
  std::vector<double> x(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, x);
  EXPECT_LT(rel_err(csr_apply(fac.lower, x), b), 1e-12);

  std::vector<double> y(b.size(), 0.0);
  la::sptrsv_backward(lcsb, plan, b, y);
  EXPECT_LT(rel_err(csr_apply_t(fac.lower, y), b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, SptrsvBlockSizes,
                         ::testing::Values(4, 16, 64, 512));

TEST(Sptrsv, DagExecutionMatchesSequential) {
  const index_t block = 16;
  const Problem p = wide_problem(block);
  const sparse::Csr& a = p.csr;
  const sparse::Ic0Result fac = sparse::ic0_factor(a);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);

  const std::vector<double> b = random_vec(a.rows(), 13);
  std::vector<double> seq_f(b.size(), 0.0), seq_b(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, seq_f);
  la::sptrsv_backward(lcsb, plan, b, seq_b);

  flux::Scheduler::Config cfg;
  cfg.threads = 4;
  flux::Scheduler sched(cfg);
  std::vector<double> dag_f(b.size(), 0.0), dag_b(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, dag_f, sched, nullptr);
  la::sptrsv_backward(lcsb, plan, b, dag_b, sched, nullptr);
  sched.wait_for_quiescence();

  // Same per-block kernels in both paths: results are bit-identical.
  EXPECT_EQ(seq_f, dag_f);
  EXPECT_EQ(seq_b, dag_b);
}

// The dataflow forms start row i only once its input future is ready. The
// inputs come from held promises, released one row at a time right after
// that row of b is written; b starts as NaN, so a row that ran early would
// show in the result as well as in the hook's check.
TEST(Sptrsv, DataflowRowsWaitForTheirInputs) {
  const index_t block = 16;
  const Problem p = wide_problem(block);
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
  const index_t nb = lcsb.block_rows();
  const std::vector<double> b = random_vec(p.csr.rows(), 13);
  std::vector<double> seq_f(b.size(), 0.0), seq_b(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, seq_f);
  la::sptrsv_backward(lcsb, plan, b, seq_b);

  flux::Scheduler::Config cfg;
  cfg.threads = 4;
  flux::Scheduler sched(cfg);
  for (const bool forward : {true, false}) {
    SCOPED_TRACE(forward ? "forward" : "backward");
    std::vector<double> staged(b.size(), std::nan(""));
    std::vector<double> x(b.size(), 0.0);
    std::vector<flux::promise<void>> gates(static_cast<std::size_t>(nb));
    la::RowFutures in;
    for (const flux::promise<void>& g : gates) {
      in.push_back(g.get_shared_future());
    }
    std::vector<std::atomic<bool>> released(static_cast<std::size_t>(nb));
    std::atomic<int> ran{0};
    std::atomic<int> early{0};
    la::RowHook hook = [&](index_t row) {
      if (!released[static_cast<std::size_t>(row)].load()) early.fetch_add(1);
      ran.fetch_add(1);
    };
    la::RowFutures done =
        forward ? la::sptrsv_forward(lcsb, plan, staged, x, sched, nullptr,
                                     std::move(in), hook)
                : la::sptrsv_backward(lcsb, plan, staged, x, sched, nullptr,
                                      std::move(in), hook);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(ran.load(), 0);
    // Release against the solve's own order, so rows wait on the DAG too.
    for (index_t k = 0; k < nb; ++k) {
      const index_t row = forward ? nb - 1 - k : k;
      const std::size_t r0 = static_cast<std::size_t>(row * block);
      const std::size_t nr =
          static_cast<std::size_t>(lcsb.rows_in_block(row));
      std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(r0), nr,
                  staged.begin() + static_cast<std::ptrdiff_t>(r0));
      released[static_cast<std::size_t>(row)].store(true);
      gates[static_cast<std::size_t>(row)].set_value();
    }
    for (flux::shared_future<void>& f : done) f.get(&sched);
    EXPECT_EQ(early.load(), 0);
    EXPECT_EQ(ran.load(), nb);
    EXPECT_EQ(x, forward ? seq_f : seq_b);
  }
}

// ---- Randomized properties -----------------------------------------------

// One pass per seed over the three invariants the analytic tests pin down
// individually: IC(0) reproduces A exactly on the retained pattern, the
// triangular solves invert L / L^T to machine precision for a random
// right-hand side, and preconditioned CG converges below tolerance. Every
// generated Laplacian is SPD by construction, so a failure here is a
// solver bug, not a matrix-conditioning accident.
TEST(CgProperties, RandomizedLaplaciansFactorSolveConverge) {
  const std::uint64_t seeds[] = {3, 17, 29, 4242};
  const index_t blocks[] = {8, 16, 32, 64};
  for (std::size_t trial = 0; trial < std::size(seeds); ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seeds[trial]));
    const index_t block = blocks[trial];
    const Problem p(sparse::gen_laplacian3d(5, 5, 4, 1, seeds[trial]), block);
    const index_t n = p.csr.rows();

    // IC(0): unshifted success and the no-fill identity on tril(A).
    const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
    EXPECT_EQ(fac.shift, 0.0);
    const la::DenseMatrix a = p.coo.to_dense();
    la::DenseMatrix l(n, n);
    {
      const auto rp = fac.lower.rowptr();
      const auto ci = fac.lower.colidx();
      const auto va = fac.lower.values();
      for (index_t i = 0; i < n; ++i) {
        for (std::int64_t t = rp[static_cast<std::size_t>(i)];
             t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
          l.at(i, ci[static_cast<std::size_t>(t)]) =
              va[static_cast<std::size_t>(t)];
        }
      }
      for (index_t i = 0; i < n; ++i) {
        for (std::int64_t t = rp[static_cast<std::size_t>(i)];
             t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
          const index_t j = ci[static_cast<std::size_t>(t)];
          double llt = 0.0;
          for (index_t k = 0; k <= j; ++k) llt += l.at(i, k) * l.at(j, k);
          EXPECT_NEAR(llt, a.at(i, j), 1e-9 * (1.0 + std::abs(a.at(i, j))))
              << "at (" << i << "," << j << ")";
        }
      }
    }

    // SpTRSV: forward and backward solves against a random b.
    const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
    const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
    const std::vector<double> b =
        random_vec(n, seeds[trial] * 977 + 1);
    std::vector<double> x(b.size(), 0.0);
    la::sptrsv_forward(lcsb, plan, b, x);
    EXPECT_LT(rel_err(csr_apply(fac.lower, x), b), 1e-12);
    std::vector<double> y(b.size(), 0.0);
    la::sptrsv_backward(lcsb, plan, b, y);
    EXPECT_LT(rel_err(csr_apply_t(fac.lower, y), b), 1e-12);

    // CG: every preconditioner drives the relative residual below tol
    // (version coverage lives in the CgVersions parameterized suite).
    for (const Precond pre :
         {Precond::kNone, Precond::kJacobi, Precond::kIc0}) {
      CgOptions cg_options;
      cg_options.precond = pre;
      cg_options.tol = 1e-9;
      cg_options.max_iterations = 400;
      SolverOptions options = base_options(block);
      options.seed = seeds[trial] + 5;
      const CgResult r =
          cg(p.csr, p.csb, Version::kLibCsr, cg_options, options);
      EXPECT_TRUE(r.converged) << "precond " << to_string(pre);
      EXPECT_LE(r.relative_residual, cg_options.tol);
      EXPECT_EQ(r.status, SolverStatus::kOk);
    }
  }
}

TEST(Sptrsv, RejectsNonTriangularMatrix) {
  const Problem p = spd_problem(16);
  EXPECT_THROW((void)la::SptrsvPlan::build(p.csb), support::Error);
}

TEST(Sptrsv, LevelScheduleCoversAllBlockRowsOnce) {
  const Problem p = spd_problem(16);
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, 16);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
  std::vector<int> seen(static_cast<std::size_t>(plan.block_rows()), 0);
  for (const auto& wave : plan.levels()) {
    for (const index_t bi : wave) ++seen[static_cast<std::size_t>(bi)];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

// ---- CG ------------------------------------------------------------------

struct CgCase {
  Version version;
  Precond precond;
};

std::string cg_case_name(const ::testing::TestParamInfo<CgCase>& info) {
  std::string name = std::string(to_string(info.param.version)) + "_" +
                     to_string(info.param.precond);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

class CgVersions : public ::testing::TestWithParam<CgCase> {};

TEST_P(CgVersions, ConvergesOnLaplacian3d) {
  const Problem p = spd_problem();
  CgOptions cg_opts;
  cg_opts.precond = GetParam().precond;
  cg_opts.tol = 1e-9;
  cg_opts.max_iterations = 400;
  const SolverOptions opts = base_options();
  const CgResult r = cg(p.csr, p.csb, GetParam().version, cg_opts, opts);
  EXPECT_TRUE(r.converged) << "residual " << r.relative_residual;
  EXPECT_EQ(r.status, SolverStatus::kOk);
  EXPECT_LE(r.relative_residual, cg_opts.tol);
  EXPECT_EQ(r.iterations, static_cast<int>(r.residual_norms.size()));
  if (GetParam().precond == Precond::kIc0) {
    EXPECT_GE(r.level_span, 1);
  }
  // The returned x must actually solve A x = b for the b the solver drew.
  const std::vector<double> b = random_vec(p.csr.rows(), opts.seed);
  const std::vector<double> ax = csr_apply(p.csr, r.x);
  EXPECT_LT(rel_err(ax, b), cg_opts.tol * 100);
}

INSTANTIATE_TEST_SUITE_P(
    VersionsAndPreconds, CgVersions,
    ::testing::Values(CgCase{Version::kLibCsr, Precond::kNone},
                      CgCase{Version::kLibCsr, Precond::kJacobi},
                      CgCase{Version::kLibCsr, Precond::kIc0},
                      CgCase{Version::kLibCsb, Precond::kNone},
                      CgCase{Version::kLibCsb, Precond::kJacobi},
                      CgCase{Version::kLibCsb, Precond::kIc0},
                      CgCase{Version::kFlux, Precond::kNone},
                      CgCase{Version::kFlux, Precond::kJacobi},
                      CgCase{Version::kFlux, Precond::kIc0}),
    cg_case_name);

TEST(Cg, PreconditioningReducesIterationCount) {
  const Problem p = spd_problem();
  CgOptions plain;
  plain.tol = 1e-9;
  plain.max_iterations = 400;
  CgOptions ic0 = plain;
  ic0.precond = Precond::kIc0;
  const SolverOptions opts = base_options();
  const CgResult r_plain = cg(p.csr, p.csb, Version::kLibCsb, plain, opts);
  const CgResult r_ic0 = cg(p.csr, p.csb, Version::kLibCsb, ic0, opts);
  ASSERT_TRUE(r_plain.converged);
  ASSERT_TRUE(r_ic0.converged);
  EXPECT_LT(r_ic0.iterations, r_plain.iterations);
}

TEST(Cg, UnsupportedVersionsThrow) {
  const Problem p = spd_problem();
  const CgOptions cg_opts;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kDs, cg_opts, base_options()),
               support::Error);
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kRgt, cg_opts, base_options()),
               support::Error);
}

TEST(Cg, ResidualHistoryIsMonotonicallyReportedAndFinal) {
  const Problem p = spd_problem();
  CgOptions cg_opts;
  cg_opts.tol = 1e-9;
  cg_opts.max_iterations = 400;
  const CgResult r = cg(p.csr, p.csb, Version::kLibCsr, cg_opts,
                        base_options());
  ASSERT_TRUE(r.converged);
  ASSERT_FALSE(r.residual_norms.empty());
  EXPECT_EQ(r.residual_norms.back(), r.relative_residual);
}

TEST(Cg, CheckpointRoundTripResumesAndMatchesUninterrupted) {
  const Problem p = spd_problem();
  const std::string path = ::testing::TempDir() + "/cg_ckpt_test.stsckpt";
  CgOptions short_opts;
  short_opts.precond = Precond::kJacobi;
  short_opts.tol = 1e-30; // never converges: exercise the iteration cap
  short_opts.max_iterations = 6;
  SolverOptions opts = base_options();
  opts.ckpt_path = path;
  opts.ckpt_every = 3;
  const CgResult first = cg(p.csr, p.csb, Version::kLibCsr, short_opts, opts);
  EXPECT_EQ(first.iterations, 6);

  const ckpt::Checkpoint c = ckpt::load(path);
  ASSERT_EQ(c.kind, ckpt::Kind::kCg);
  EXPECT_EQ(c.cg.iterations, 6);
  EXPECT_EQ(c.cg.seed, opts.seed);

  // Resume for 6 more; compare with one uninterrupted 12-iteration run.
  CgOptions long_opts = short_opts;
  long_opts.max_iterations = 12;
  SolverOptions resume_opts = base_options();
  resume_opts.restore = &c;
  const CgResult resumed =
      cg(p.csr, p.csb, Version::kLibCsr, long_opts, resume_opts);
  EXPECT_EQ(resumed.iterations, 6); // 6 accepted after the restored 6

  const CgResult straight =
      cg(p.csr, p.csb, Version::kLibCsr, long_opts, base_options());
  ASSERT_EQ(straight.x.size(), resumed.x.size());
  EXPECT_LT(rel_err(resumed.x, straight.x), 1e-12);
  std::remove(path.c_str());
}

TEST(Cg, RestoreRejectsWrongKindAndSeed) {
  const Problem p = spd_problem();
  ckpt::Checkpoint wrong_kind;
  wrong_kind.kind = ckpt::Kind::kLanczos;
  SolverOptions opts = base_options();
  opts.restore = &wrong_kind;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, {}, opts),
               support::Error);

  ckpt::Checkpoint wrong_seed;
  wrong_seed.kind = ckpt::Kind::kCg;
  wrong_seed.cg.seed = 999;
  wrong_seed.cg.m = p.csr.rows();
  const std::size_t n = static_cast<std::size_t>(p.csr.rows());
  wrong_seed.cg.x.assign(n, 0.0);
  wrong_seed.cg.r.assign(n, 0.0);
  wrong_seed.cg.p.assign(n, 0.0);
  opts.restore = &wrong_seed;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, {}, opts),
               support::Error);
}

TEST(Cg, InvalidOptionsThrow) {
  const Problem p = spd_problem();
  CgOptions bad_tol;
  bad_tol.tol = 0.0;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, bad_tol,
                        base_options()),
               support::Error);
  CgOptions bad_it;
  bad_it.max_iterations = 0;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, bad_it,
                        base_options()),
               support::Error);
}

TEST(Cg, PrecondNamesRoundTrip) {
  EXPECT_STREQ(to_string(Precond::kNone), "none");
  EXPECT_STREQ(to_string(Precond::kJacobi), "jacobi");
  EXPECT_STREQ(to_string(Precond::kIc0), "ic0");
}

// ---- Prebuilt (shared) preconditioners -----------------------------------

void expect_bitwise_equal(const CgResult& got, const CgResult& want) {
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.residual_norms, want.residual_norms);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.precond_shift, want.precond_shift);
  EXPECT_EQ(got.level_span, want.level_span);
}

CgOptions tight(Precond pc) {
  CgOptions o;
  o.precond = pc;
  o.tol = 1e-9;
  o.max_iterations = 400;
  return o;
}

// A preconditioner built once and passed in must solve exactly like the
// per-call build, on a chain factor (spd_problem) and a wide one.
TEST(CgPrebuilt, MatchesSelfBuildingOverloadBitwise) {
  for (const Problem& p : {spd_problem(16), wide_problem(16)}) {
    const SolverOptions opts = base_options(16);
    for (const Precond pc :
         {Precond::kNone, Precond::kJacobi, Precond::kIc0}) {
      const CgPreconditioner pre = CgPreconditioner::build(p.csr, pc, 16);
      for (const Version v :
           {Version::kLibCsr, Version::kLibCsb, Version::kFlux}) {
        SCOPED_TRACE(std::string(to_string(v)) + "/" + to_string(pc));
        const CgResult fresh = cg(p.csr, p.csb, v, tight(pc), opts);
        ASSERT_TRUE(fresh.converged);
        expect_bitwise_equal(cg(p.csr, p.csb, v, pre, tight(pc), opts), fresh);
      }
    }
  }
}

TEST(CgPrebuilt, RejectsPreconditionerBuiltForAnotherSolve) {
  const Problem p = spd_problem(16);
  const CgPreconditioner ic0 = CgPreconditioner::build(p.csr, Precond::kIc0,
                                                       16);
  const SolverOptions opts = base_options(16);
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsb, ic0,
                        tight(Precond::kJacobi), opts),
               support::Error);
  const CgPreconditioner other_block =
      CgPreconditioner::build(p.csr, Precond::kIc0, 32);
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsb, other_block,
                        tight(Precond::kIc0), opts),
               support::Error);
  EXPECT_GT(ic0.bytes(), p.csr.memory_bytes() / 2); // holds L twice
}

/// Runs one flux IC(0)-CG solve and returns how many per-row SpTRSV task
/// events it logged. A chain factor's one sequential solve task carries
/// row -1, so it does not count.
std::uint64_t flux_sptrsv_tasks(const Problem& p, const CgPreconditioner& pre,
                                const SolverOptions& opts, CgResult& out) {
  obs::enable_tracing(""); // buffer only; clears earlier events
  out = cg(p.csr, p.csb, Version::kFlux, pre, tight(Precond::kIc0), opts);
  const std::vector<perf::TaskEvent> events = obs::task_events();
  obs::disable();
  return static_cast<std::uint64_t>(std::count_if(
      events.begin(), events.end(), [](const perf::TaskEvent& e) {
        return e.kind == graph::KernelKind::kSpTRSV && e.task_id >= 0;
      }));
}

// On a chain factor (every level one block row wide) flux runs the IC(0)
// solves sequentially: no SpTRSV task reaches the pool. With one block row
// the dots are one partial each, so the result is libcsb's bit for bit;
// with several the flux dots sum per-block partials, libcsb's do not.
TEST(CgChain, FluxRunsChainFactorWithoutDagTasks) {
  for (const index_t block : {16, 256}) {
    SCOPED_TRACE("block " + std::to_string(block));
    const Problem p = spd_problem(block);
    const CgPreconditioner pre =
        CgPreconditioner::build(p.csr, Precond::kIc0, block);
    ASSERT_EQ(pre.plan.max_level_width(), 1);
    ASSERT_EQ(pre.plan.level_span(), pre.plan.block_rows());

    SolverOptions opts = base_options(block);
    opts.threads = 1;
    CgResult flux;
    EXPECT_EQ(flux_sptrsv_tasks(p, pre, opts, flux), 0u);
    ASSERT_TRUE(flux.converged);

    const CgResult csb =
        cg(p.csr, p.csb, Version::kLibCsb, pre, tight(Precond::kIc0), opts);
    if (p.csb.block_rows() == 1) {
      expect_bitwise_equal(flux, csb);
    } else {
      EXPECT_EQ(flux.iterations, csb.iterations);
      EXPECT_LT(rel_err(flux.x, csb.x), 1e-12);
    }
  }
}

// The count above is not vacuous: a wide factor runs each solve as one
// SpTRSV task per block row, forward and backward.
TEST(CgChain, FluxRunsWideFactorAsDagTasks) {
  const Problem p = wide_problem(16);
  const CgPreconditioner pre =
      CgPreconditioner::build(p.csr, Precond::kIc0, 16);
  ASSERT_GT(pre.plan.max_level_width(), 1);
  CgResult flux;
  const std::uint64_t sptrsv =
      flux_sptrsv_tasks(p, pre, base_options(16), flux);
  ASSERT_TRUE(flux.converged);
  EXPECT_EQ(sptrsv, static_cast<std::uint64_t>(flux.iterations) * 2 *
                        static_cast<std::uint64_t>(pre.plan.block_rows()));
}

// Two solves on their own pools reading one preconditioner at once (the
// service's warm-job case): each gets exactly the single-solve result.
// Everything here stays outside OpenMP, so ThreadSanitizer can check it.
TEST(CgConcurrency, TwoFluxSolvesShareOnePreconditioner) {
  const Problem p = wide_problem(16);
  const CgPreconditioner pre =
      CgPreconditioner::build(p.csr, Precond::kIc0, 16);
  ASSERT_GT(pre.plan.max_level_width(), 1); // DAG tasks on both pools
  const SolverOptions opts = base_options(16);
  const CgResult alone =
      cg(p.csr, p.csb, Version::kFlux, pre, tight(Precond::kIc0), opts);

  std::vector<CgResult> results(2);
  std::vector<std::thread> threads;
  for (CgResult& out : results) {
    threads.emplace_back([&] {
      flux::Scheduler::Config cfg;
      cfg.threads = 2;
      flux::Scheduler pool(cfg);
      SolverOptions o = opts;
      o.flux_pool = &pool;
      out = cg(p.csr, p.csb, Version::kFlux, pre, tight(Precond::kIc0), o);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const CgResult& r : results) expect_bitwise_equal(r, alone);
}

// ---- flux CG task structure ---------------------------------------------

/// Flux CG's arithmetic as a plain host loop: rho0 by la::dot over the whole
/// vector, the in-loop dots as per-block-row partials summed in ascending
/// order, q_i accumulated over the nonempty blocks in ascending j, and z by
/// the sequential block SpTRSV.
CgResult block_order_reference(const Problem& p, const CgPreconditioner& pre,
                               const CgOptions& c, const SolverOptions& o) {
  const index_t m = p.csr.rows();
  const index_t b = o.block_size;
  const index_t np = p.csb.block_rows();
  const std::size_t n = static_cast<std::size_t>(m);
  std::vector<double> rhs(n);
  support::Xoshiro256 rng(o.seed);
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  const double norm_b = la::nrm2(rhs);
  std::vector<double> x(n, 0.0), r = rhs, z(n), q(n), tmp(n);
  auto precond = [&] {
    if (pre.kind == Precond::kIc0) {
      la::sptrsv_forward(pre.lower_csb, pre.plan, r, tmp);
      la::sptrsv_backward(pre.lower_csb, pre.plan, tmp, z);
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        z[k] = pre.kind == Precond::kJacobi ? r[k] * pre.inv_diag[k] : r[k];
      }
    }
  };
  auto block_dot = [&](const std::vector<double>& u,
                       const std::vector<double>& v) {
    double acc = 0.0;
    for (index_t bi = 0; bi < np; ++bi) {
      const std::size_t r0 = static_cast<std::size_t>(bi * b);
      const std::size_t nr = static_cast<std::size_t>(std::min(b, m - bi * b));
      acc += la::dot({u.data() + r0, nr}, {v.data() + r0, nr});
    }
    return acc;
  };

  precond();
  std::vector<double> dir = z;
  double rho = la::dot(r, z);
  double rel = la::nrm2(r) / norm_b;
  CgResult out;
  for (int it = 0; it < c.max_iterations && rel > c.tol; ++it) {
    std::fill(q.begin(), q.end(), 0.0);
    for (index_t bi = 0; bi < np; ++bi) {
      for (index_t bj = 0; bj < np; ++bj) {
        if (!p.csb.block_empty(bi, bj)) {
          sparse::csb_block_spmv(p.csb, bi, bj, dir, q);
        }
      }
    }
    const double alpha = rho / block_dot(dir, q);
    la::axpy(alpha, dir, x);
    la::axpy(-alpha, q, r);
    precond();
    const double rho_new = block_dot(r, z);
    const double beta = rho_new / rho;
    rho = rho_new;
    for (std::size_t k = 0; k < n; ++k) dir[k] = z[k] + beta * dir[k];
    rel = std::sqrt(block_dot(r, r)) / norm_b;
    ++out.iterations;
    out.residual_norms.push_back(rel);
  }
  out.x = std::move(x);
  return out;
}

// Fusing the per-row work into waves changes the task graph, not the
// arithmetic: flux CG equals the block-order reference bit for bit, for
// every preconditioner, on a chain factor and on a wide one.
TEST(CgFlux, MatchesBlockOrderReferenceBitwise) {
  for (const Problem& p : {spd_problem(16), wide_problem(16)}) {
    ASSERT_GT(p.csb.block_rows(), 1);
    const SolverOptions opts = base_options(16);
    for (const Precond pc :
         {Precond::kNone, Precond::kJacobi, Precond::kIc0}) {
      const CgPreconditioner pre = CgPreconditioner::build(p.csr, pc, 16);
      SCOPED_TRACE(std::string(to_string(pc)) + ", widest SpTRSV level " +
                   std::to_string(pre.plan.max_level_width()));
      const CgResult want = block_order_reference(p, pre, tight(pc), opts);
      const CgResult got =
          cg(p.csr, p.csb, Version::kFlux, pre, tight(pc), opts);
      ASSERT_TRUE(got.converged);
      EXPECT_EQ(got.x, want.x);
      EXPECT_EQ(got.residual_norms, want.residual_norms);
      EXPECT_EQ(got.iterations, want.iterations);
    }
  }
}

/// Tasks one flux CG solve ran on a pool of its own, per iteration.
double flux_tasks_per_iteration(const Problem& p, Precond pc) {
  const CgPreconditioner pre = CgPreconditioner::build(p.csr, pc, 16);
  flux::Scheduler::Config cfg;
  cfg.threads = 2;
  flux::Scheduler pool(cfg);
  SolverOptions opts = base_options(16);
  opts.flux_pool = &pool;
  const CgResult r = cg(p.csr, p.csb, Version::kFlux, pre, tight(pc), opts);
  EXPECT_TRUE(r.converged);
  return static_cast<double>(pool.stats().executed) / r.iterations;
}

// Each iteration is three waves of one task per block row (SpMV + p.q,
// the updates, p = z + beta p); a wide IC(0) factor adds one forward and
// one backward SpTRSV task per block row, a chain factor one task for both
// solves. There are no set-up tasks: z0, p0 and rho0 are computed on the
// host, and the host itself sums the dot partials at its two syncs.
TEST(CgFlux, ThreeTasksPerBlockRowPerIteration) {
  const Problem wide = wide_problem(16);
  const double np = static_cast<double>(wide.csb.block_rows());
  EXPECT_EQ(flux_tasks_per_iteration(wide, Precond::kNone), 3 * np);
  EXPECT_EQ(flux_tasks_per_iteration(wide, Precond::kJacobi), 3 * np);
  ASSERT_GT(CgPreconditioner::build(wide.csr, Precond::kIc0, 16)
                .plan.max_level_width(),
            1);
  EXPECT_EQ(flux_tasks_per_iteration(wide, Precond::kIc0), 5 * np);

  const Problem chain = spd_problem(16);
  EXPECT_EQ(flux_tasks_per_iteration(chain, Precond::kIc0),
            3 * static_cast<double>(chain.csb.block_rows()) + 1);
}

} // namespace
} // namespace sts::solver
