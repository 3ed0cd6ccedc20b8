#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "flux/scheduler.hpp"
#include "la/eig.hpp"
#include "obs/obs.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "solvers/lowering.hpp"
#include "sparse/generators.hpp"
#include "support/fault.hpp"
#include "tuning/block_select.hpp"

namespace sts::solver {
namespace {

struct Problem {
  sparse::Coo coo;
  sparse::Csr csr;
  sparse::Csb csb;
  la::EigenResult reference;

  Problem(sparse::Coo c, index_t block)
      : coo(std::move(c)),
        csr(sparse::Csr::from_coo(coo)),
        csb(sparse::Csb::from_coo(coo, block)),
        reference(la::jacobi_eigen(coo.to_dense().view())) {}
};

Problem fem_problem(index_t block = 32) {
  return Problem(sparse::gen_fem3d(6, 6, 6, 1, 101), block);
}

SolverOptions base_options(index_t block = 32) {
  SolverOptions o;
  o.block_size = block;
  o.threads = 2;
  return o;
}

class LanczosVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LanczosVersions, LargestRitzValueMatchesDense) {
  Problem p = fem_problem();
  auto r = lanczos(p.csr, p.csb, 30, GetParam(), base_options());
  ASSERT_FALSE(r.ritz_values.empty());
  EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-5);
  EXPECT_EQ(r.timing.iterations, 30);
  EXPECT_GT(r.timing.total_seconds, 0.0);
}

TEST_P(LanczosVersions, CoefficientsMatchLibcsrExactly) {
  Problem p = fem_problem();
  const auto ref = lanczos(p.csr, p.csb, 12, Version::kLibCsr, base_options());
  const auto got = lanczos(p.csr, p.csb, 12, GetParam(), base_options());
  ASSERT_EQ(ref.alphas.size(), got.alphas.size());
  for (std::size_t i = 0; i < ref.alphas.size(); ++i) {
    // Different summation orders: allow rounding-level divergence only.
    EXPECT_NEAR(got.alphas[i], ref.alphas[i], 1e-8 * std::abs(ref.alphas[i]) + 1e-10);
    EXPECT_NEAR(got.betas[i], ref.betas[i], 1e-8 * std::abs(ref.betas[i]) + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, LanczosVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "hpx-flux"
                                      ? "hpx_flux"
                                      : std::string(to_string(info.param)) == "regent-rgt"
                                            ? "regent_rgt"
                                            : to_string(info.param);
                         });

class LobpcgVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LobpcgVersions, LowestEigenvaluesMatchDense) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 4;
  o.tolerance = 1e-7;
  auto r = lobpcg(p.csr, p.csb, 35, GetParam(), o);
  ASSERT_EQ(r.eigenvalues.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                p.reference.values[static_cast<std::size_t>(j)], 1e-5)
        << "eigenpair " << j;
  }
  EXPECT_GT(r.converged, 0);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, LobpcgVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "hpx-flux"
                                      ? "hpx_flux"
                                      : std::string(to_string(info.param)) == "regent-rgt"
                                            ? "regent_rgt"
                                            : to_string(info.param);
                         });

TEST(LanczosOptions, SkipEmptyOffStillCorrect) {
  Problem p = fem_problem(16); // small blocks: many empty ones
  SolverOptions o = base_options(16);
  o.skip_empty_blocks = false;
  for (Version v : {Version::kDs, Version::kFlux, Version::kRgt}) {
    auto r = lanczos(p.csr, p.csb, 30, v, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4)
        << to_string(v);
  }
}

TEST(LanczosOptions, ReductionBasedSpmmCorrectForDsAndRgt) {
  Problem p = fem_problem();
  SolverOptions o = base_options();
  o.dependency_based_spmm = false;
  for (Version v : {Version::kDs, Version::kRgt}) {
    auto r = lanczos(p.csr, p.csb, 30, v, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4)
        << to_string(v);
  }
}

TEST(LobpcgOptions, ReductionBasedSpmmCorrect) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 3;
  o.dependency_based_spmm = false;
  for (Version v : {Version::kDs, Version::kRgt}) {
    auto r = lobpcg(p.csr, p.csb, 30, v, o);
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                  p.reference.values[static_cast<std::size_t>(j)], 1e-4)
          << to_string(v);
    }
  }
}

TEST(SolverOptions, NumaDomainsAndNoFirstTouch) {
  Problem p = fem_problem();
  SolverOptions o = base_options();
  o.numa_domains = 2;
  o.first_touch = false;
  auto r = lanczos(p.csr, p.csb, 30, Version::kFlux, o);
  EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4);
}

TEST(Solvers, TraceRecordingProducesEvents) {
  Problem p = fem_problem();
  obs::enable_tracing(""); // buffer only; clears earlier events
  (void)lanczos(p.csr, p.csb, 3, Version::kFlux, base_options());
  EXPECT_GT(obs::task_events().size(), 10u);
  obs::disable();
}

TEST(Solvers, TaskRuntimesAgreeBitwise) {
  // ds, flux and rgt lower the same kernel-call script with the same
  // per-piece kernels and reduction orders, so their results must match to
  // the last bit (libcsr/libcsb use OpenMP reductions and are left out).
  const sparse::Coo coo = sparse::gen_fem3d(6, 6, 6, 1, 101);
  const sparse::Csr csr = sparse::Csr::from_coo(coo);
  for (const index_t block : {16, 32}) {
    const sparse::Csb csb = sparse::Csb::from_coo(coo, block);
    for (const bool skip : {true, false}) {
      SolverOptions o = base_options(block);
      o.skip_empty_blocks = skip;
      LobpcgOptions lo;
      static_cast<SolverOptions&>(lo) = o;
      lo.nev = 4;
      const auto lz = lanczos(csr, csb, 12, Version::kDs, o);
      const auto lb = lobpcg(csr, csb, 10, Version::kDs, lo);
      for (Version v : {Version::kFlux, Version::kRgt}) {
        SCOPED_TRACE(std::string(to_string(v)) + " block " +
                     std::to_string(block) + (skip ? " skip" : " noskip"));
        const auto lz2 = lanczos(csr, csb, 12, v, o);
        EXPECT_EQ(lz2.alphas, lz.alphas);
        EXPECT_EQ(lz2.betas, lz.betas);
        const auto lb2 = lobpcg(csr, csb, 10, v, lo);
        EXPECT_EQ(lb2.timing.iterations, lb.timing.iterations);
        EXPECT_EQ(lb2.eigenvalues, lb.eigenvalues);
        EXPECT_EQ(lb2.residual_norms, lb.residual_norms);
      }
    }
  }
}

TEST(Solvers, DifferentMatrixClassesConverge) {
  struct Case {
    sparse::Coo coo;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({sparse::gen_banded_random(400, 12, 0.4, 7), "banded"});
  cases.push_back({sparse::gen_block_random(30, 10, 0.15, 0.6, 8), "block"});
  cases.push_back({sparse::gen_rmat(8, 6, 0.57, 0.19, 0.19, 9), "rmat"});
  for (auto& c : cases) {
    Problem p(std::move(c.coo), 64);
    SolverOptions o = base_options(64);
    auto r = lanczos(p.csr, p.csb, 40, Version::kDs, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(),
                1e-4 * std::abs(p.reference.values.back()) + 1e-6)
        << c.name;
  }
}

TEST(Solvers, LobpcgResidualsDecrease) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 4;
  o.tolerance = 1e-12; // prevent early exit
  auto r5 = lobpcg(p.csr, p.csb, 5, Version::kLibCsb, o);
  auto r25 = lobpcg(p.csr, p.csb, 25, Version::kLibCsb, o);
  EXPECT_LT(r25.residual_norms[0], r5.residual_norms[0]);
}

TEST(Solvers, DsGraphBuildTimeRecorded) {
  Problem p = fem_problem();
  auto r = lanczos(p.csr, p.csb, 5, Version::kDs, base_options());
  EXPECT_GT(r.timing.graph_build_seconds, 0.0);
}

TEST(Tuning, RecommendedBlockSizeWorksEndToEnd) {
  Problem p = fem_problem();
  (void)p;
  const index_t rows = 216;
  const index_t size = tune::recommended_block_size(Version::kDs, 28, rows);
  EXPECT_GT(size, 0);
  // A fresh CSB at the recommended size still solves correctly.
  sparse::Coo coo = sparse::gen_fem3d(6, 6, 6, 1, 101);
  sparse::Csb csb = sparse::Csb::from_coo(coo, size);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  SolverOptions o = base_options(size);
  auto r = lanczos(csr, csb, 20, Version::kDs, o);
  EXPECT_FALSE(r.ritz_values.empty());
}

// ---- flux graph replay ----------------------------------------------------
// These stay outside OpenMP (first_touch off, no ds), so ThreadSanitizer
// can check them.

/// A script that counts its issue() calls. Each iteration: y += x, then
/// s = y . y.
struct CountingScript {
  la::DenseMatrix x;
  la::DenseMatrix y;
  double s = 0.0;
  int issued = 0;
  DataId xd = -1, yd = -1, sd = -1;

  explicit CountingScript(index_t rows) : x(rows, 1), y(rows, 1) {
    x.fill(1.0);
  }

  template <typename L>
  void declare(L& l) {
    xd = l.vec("x", &x);
    yd = l.vec("y", &y);
    sd = l.scalar("s", &s);
  }

  template <typename L>
  void issue(L& l) {
    ++issued;
    l.axpy(1.0, xd, yd);
    l.dot(yd, yd, sd);
  }

  bool accept(obs::IterScope& /*iter*/, int /*it*/) { return true; }
  void checkpoint(int /*completed*/, int /*every*/) {}
};

TEST(FluxReplay, IssuesTheScriptOnce) {
  const sparse::Csb csb =
      sparse::Csb::from_coo(sparse::gen_fem3d(6, 6, 6, 1, 101), 32);
  SolverOptions o = base_options();
  o.first_touch = false;
  const int k = 5;
  const index_t m = csb.rows();
  for (Version v : {Version::kFlux, Version::kRgt}) {
    SCOPED_TRACE(to_string(v));
    CountingScript script(m);
    const IterationTiming t = run_tasks(v, "count", csb, o, 0, k, script);
    EXPECT_EQ(t.iterations, k);
    EXPECT_EQ(script.issued, v == Version::kFlux ? 1 : k);
    // Every iteration ran, whether replayed or issued: y = k x.
    for (index_t i = 0; i < m; ++i) ASSERT_EQ(script.y.at(i, 0), k);
    EXPECT_EQ(script.s, static_cast<double>(m) * k * k);
  }
}

// A task of the second iteration, a replayed one, fails on a shared pool:
// the solve rethrows instead of waiting on the successors it stranded, and
// the pool runs the next solve as if nothing happened.
TEST(FluxReplay, LateTaskFailureSurfacesAndPoolStaysUsable) {
  const sparse::Coo coo = sparse::gen_fem3d(6, 6, 6, 1, 101);
  const sparse::Csr csr = sparse::Csr::from_coo(coo);
  const sparse::Csb csb = sparse::Csb::from_coo(coo, 32);
  SolverOptions o = base_options();
  o.first_touch = false;
  const int k = 8;
  const LanczosResult fresh = lanczos(csr, csb, k, Version::kFlux, o);

  flux::Scheduler::Config cfg;
  cfg.threads = 2;
  flux::Scheduler pool(cfg);
  o.flux_pool = &pool;
  auto tasks_for = [&](int iterations) {
    const std::uint64_t before = pool.stats().executed;
    (void)lanczos(csr, csb, iterations, Version::kFlux, o);
    return pool.stats().executed - before;
  };
  const std::uint64_t first = tasks_for(1);
  const std::uint64_t per_iteration = tasks_for(2) - first;
  ASSERT_GT(per_iteration, 2u);

  {
    support::fault::ScopedFault inject(
        "flux:task:hit=" + std::to_string(first + per_iteration / 2));
    std::packaged_task<void()> solve(
        [&] { (void)lanczos(csr, csb, k, Version::kFlux, o); });
    std::future<void> done = solve.get_future();
    std::thread runner(std::move(solve));
    if (done.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "FluxReplay: the failed task's solve still "
                           "runs after 30 s\n");
      std::_Exit(1); // the runner is stuck; nothing can join it
    }
    runner.join();
    EXPECT_THROW(done.get(), support::fault::Injected);
  }
  EXPECT_FALSE(pool.cancelled());
  const LanczosResult again = lanczos(csr, csb, k, Version::kFlux, o);
  EXPECT_EQ(again.alphas, fresh.alphas);
  EXPECT_EQ(again.betas, fresh.betas);
}

} // namespace
} // namespace sts::solver
