// End-to-end failure containment: deterministic fault injection through the
// solvers, breakdown detection, and option validation. These tests carry the
// ctest label "faults" (run with `ctest -L faults`).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <sstream>

#include "obs/obs.hpp"
#include "proc_util.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/generators.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace sts {
namespace {

using solver::SolverStatus;
using solver::Version;

/// gtest parameter names must be alphanumeric; version names carry dashes.
std::string version_name(const ::testing::TestParamInfo<Version>& info) {
  std::string name = solver::to_string(info.param);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

TEST(FaultSpec, ParsesSiteAndOptions) {
  const auto s = support::fault::parse_spec("spmv_block:hit=3:kind=nan");
  EXPECT_EQ(s.site, "spmv_block");
  EXPECT_EQ(s.hit, 3u);
  EXPECT_EQ(s.kind, support::fault::Kind::kNan);

  const auto d = support::fault::parse_spec("x:kind=delay:delay_ms=7");
  EXPECT_EQ(d.kind, support::fault::Kind::kDelay);
  EXPECT_EQ(d.delay_ms, 7u);

  const auto plain = support::fault::parse_spec("flux:task");
  EXPECT_EQ(plain.site, "flux:task"); // ':' without '=' stays in the site
  EXPECT_EQ(plain.hit, 1u);
  EXPECT_EQ(plain.kind, support::fault::Kind::kThrow);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)support::fault::parse_spec(""), support::Error);
  EXPECT_THROW((void)support::fault::parse_spec("site:hit=0"),
               support::Error);
  EXPECT_THROW((void)support::fault::parse_spec("site:kind=explode"),
               support::Error);
  EXPECT_THROW((void)support::fault::parse_spec("site:prob=0"),
               support::Error);
  EXPECT_THROW((void)support::fault::parse_spec("site:prob=1.5"),
               support::Error);
  EXPECT_THROW((void)support::fault::parse_spec("site:seed=0"),
               support::Error);
  // hit and prob select contradictory firing models.
  EXPECT_THROW((void)support::fault::parse_spec("site:hit=2:prob=0.5"),
               support::Error);
}

TEST(FaultSpec, RejectsDuplicateKeysNamingTheOffendingToken) {
  try {
    (void)support::fault::parse_spec("site:hit=2:kind=nan:hit=3");
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key in 'hit=3'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)support::fault::parse_spec("site:kind=nan:kind=throw"),
               support::Error);
  EXPECT_THROW(
      (void)support::fault::parse_spec("site:prob=0.1:prob=0.2"),
      support::Error);
}

TEST(FaultSpec, ParsesProbSeedAndCrash) {
  const auto s =
      support::fault::parse_spec("journal:append:kind=crash:prob=0.25:seed=9");
  EXPECT_EQ(s.site, "journal:append");
  EXPECT_EQ(s.kind, support::fault::Kind::kCrash);
  EXPECT_DOUBLE_EQ(s.prob, 0.25);
  EXPECT_EQ(s.seed, 9u);
}

TEST(FaultRegistry, ProbabilisticFiringIsSeededAndRepeatable) {
  // Same seed -> the same visits fire, and (unlike hit=) firing does not
  // latch: the site keeps flipping its coin forever.
  constexpr int kVisits = 200;
  std::vector<int> first_run;
  for (int run = 0; run < 2; ++run) {
    support::fault::ScopedFault f("prob_site:prob=0.3:seed=42");
    std::vector<int> fired;
    for (int i = 0; i < kVisits; ++i) {
      try {
        (void)support::fault::check("prob_site");
      } catch (const support::fault::Injected&) {
        fired.push_back(i);
      }
    }
    EXPECT_GT(fired.size(), 20u); // ~60 expected at p=0.3
    EXPECT_LT(fired.size(), 120u);
    if (run == 0) {
      first_run = fired;
    } else {
      EXPECT_EQ(fired, first_run);
    }
  }
}

TEST(FaultRegistry, UnseededProbDerivesFromTheSiteName) {
  // No seed: arming the same site twice replays the same schedule; a
  // different site name gets a different one.
  auto schedule = [](const char* site, const std::string& spec) {
    support::fault::ScopedFault f(spec);
    std::vector<int> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        (void)support::fault::check(site);
      } catch (const support::fault::Injected&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const auto a1 = schedule("prob_a", "prob_a:prob=0.4");
  const auto a2 = schedule("prob_a", "prob_a:prob=0.4");
  const auto b = schedule("prob_b", "prob_b:prob=0.4");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(FaultCrash, CrashKindAbortsTheProcess) {
  // End to end in a scratch process: a crash fault at the second spmv block
  // takes stsolve down with SIGABRT — no unwinding, no exit code.
  const int code =
      testutil::spawn({STSOLVE_BIN, "--suite", "inline_1", "--scale", "0.02",
                       "--solver", "lanczos", "--version", "libcsb",
                       "--iterations", "8", "--threads", "2", "--block",
                       "64"},
                      {"STS_FAULT=spmv_block:hit=2:kind=crash"},
                      "/tmp/sts-faults-test-crash.log")
          .wait();
  EXPECT_EQ(code, -SIGABRT);
}

TEST(FaultRegistry, FiresExactlyOnceAtTheArmedVisit) {
  support::fault::ScopedFault f("reg_test:hit=3");
  EXPECT_FALSE(support::fault::check("reg_test"));
  EXPECT_FALSE(support::fault::check("reg_test"));
  EXPECT_THROW(support::fault::check("reg_test"),
               support::fault::Injected);
  // Fired once: later visits pass through.
  EXPECT_FALSE(support::fault::check("reg_test"));
  EXPECT_EQ(support::fault::visits("reg_test"), 4u);
  EXPECT_FALSE(support::fault::check("other_site")); // unarmed site
  EXPECT_EQ(support::fault::visits("other_site"), 0u);
}

TEST(FaultRegistry, ClearDisarmsAndResetsCounters) {
  support::fault::arm("reg_test2:hit=1");
  EXPECT_THROW(support::fault::check("reg_test2"),
               support::fault::Injected);
  support::fault::clear();
  EXPECT_FALSE(support::fault::check("reg_test2"));
  EXPECT_EQ(support::fault::visits("reg_test2"), 0u);
}

TEST(FaultRegistry, DelayKindStallsTheCaller) {
  support::fault::ScopedFault f("reg_test3:kind=delay:delay_ms=50");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(support::fault::check("reg_test3"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 40);
}

struct SolverFixture {
  sparse::Coo coo;
  sparse::Csr csr;
  sparse::Csb csb;
  solver::SolverOptions options;

  SolverFixture()
      : coo(sparse::gen_fem3d(5, 5, 5, 1, 31)),
        csr(sparse::Csr::from_coo(coo)),
        csb(sparse::Csb::from_coo(coo, 32)) {
    options.block_size = 32;
    options.threads = 2;
  }
};

class LanczosFaultVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LanczosFaultVersions, ThrowFaultInSpmvSurfacesAsCatchableError) {
  SolverFixture f;
  support::fault::ScopedFault inject("spmv_block:hit=4:kind=throw");
  // The injected throw escapes the runtime as one support::Error (the task
  // runtimes wrap it in TaskError naming the failing task; the BSP versions
  // surface the Injected itself) — never std::terminate, never a hang.
  EXPECT_THROW((void)solver::lanczos(f.csr, f.csb, 8, GetParam(), f.options),
               support::Error);
}

TEST_P(LanczosFaultVersions, NanFaultYieldsTruncatedNotFiniteResult) {
  SolverFixture f;
  support::fault::ScopedFault inject("spmv_block:hit=4:kind=nan");
  const auto r = solver::lanczos(f.csr, f.csb, 8, GetParam(), f.options);
  EXPECT_EQ(r.status, SolverStatus::kNotFinite);
  EXPECT_LT(r.alphas.size(), 8u); // the poisoned iteration was dropped
  for (const double v : r.ritz_values) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(AllCsbVersions, LanczosFaultVersions,
                         ::testing::Values(Version::kLibCsb, Version::kDs,
                                           Version::kFlux, Version::kRgt),
                         version_name);

class LanczosBreakdownVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LanczosBreakdownVersions, ScaledIdentityBreaksDownCleanly) {
  // A = 2I: the Krylov space collapses after one step (A q = alpha q, so
  // beta_1 ~ 0). The solver must stop with kBreakdown and return the
  // truncated — still exact — factorization instead of NaN Ritz values.
  const la::index_t n = 64;
  sparse::Coo coo(n, n);
  for (la::index_t i = 0; i < n; ++i) coo.add(i, i, 2.0);
  coo.finalize();
  const sparse::Csr csr = sparse::Csr::from_coo(coo);
  const sparse::Csb csb = sparse::Csb::from_coo(coo, 16);
  solver::SolverOptions options;
  options.block_size = 16;
  options.threads = 2;
  const auto r = solver::lanczos(csr, csb, 10, GetParam(), options);
  EXPECT_EQ(r.status, SolverStatus::kBreakdown);
  ASSERT_GE(r.ritz_values.size(), 1u);
  for (const double v : r.ritz_values) {
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 2.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, LanczosBreakdownVersions,
                         ::testing::ValuesIn(solver::kAllVersions),
                         version_name);

TEST(FaultTelemetry, InjectedFaultAppearsAsInstantEventInTrace) {
  SolverFixture f;
  obs::enable_tracing(""); // buffer only; clears earlier events
  support::fault::ScopedFault inject("spmv_block:hit=4:kind=nan");
  const auto r = solver::lanczos(f.csr, f.csb, 8, Version::kDs, f.options);
  EXPECT_EQ(r.status, SolverStatus::kNotFinite);
  std::ostringstream os;
  obs::write_trace_json(os);
  obs::disable();
  const std::string json = os.str();
  // The fault observer emits an instant event named after the site with
  // category "fault" on the thread that tripped it.
  EXPECT_NE(json.find("\"fault:spmv_block\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(LobpcgFaults, NanFaultStopsCleanlyWithStatus) {
  SolverFixture f;
  solver::LobpcgOptions options;
  options.block_size = 32;
  options.threads = 2;
  options.nev = 4;
  // hit=20 poisons the first iteration's SpMM (the setup A*X takes the
  // earlier hits). The NaN surfaces in the Rayleigh-Ritz task, so every
  // task runtime must stop on that same iteration — flux included, whose
  // iteration boundary has to wait for that task. Repeated because a
  // missing wait only shows up under some interleavings.
  for (int rep = 0; rep < 20; ++rep) {
    for (Version v : {Version::kDs, Version::kFlux, Version::kRgt}) {
      support::fault::ScopedFault inject("spmv_block:hit=20:kind=nan");
      const auto r = solver::lobpcg(f.csr, f.csb, 10, v, options);
      EXPECT_EQ(r.status, SolverStatus::kNotFinite)
          << solver::to_string(v) << " rep " << rep;
      EXPECT_EQ(r.timing.iterations, 1)
          << solver::to_string(v) << " rep " << rep;
    }
  }
}

TEST(OptionValidation, BadOptionsThrowInsteadOfAborting) {
  SolverFixture f;
  EXPECT_THROW((void)solver::lanczos(f.csr, f.csb, 0, Version::kLibCsb,
                                     f.options),
               support::Error);
  solver::SolverOptions bad = f.options;
  bad.threads = 0;
  EXPECT_THROW((void)solver::lanczos(f.csr, f.csb, 4, Version::kLibCsb, bad),
               support::Error);
  bad = f.options;
  bad.block_size = -1;
  EXPECT_THROW((void)solver::lanczos(f.csr, f.csb, 4, Version::kLibCsb, bad),
               support::Error);
  // CSB block size disagreeing with the options is caught up front.
  bad = f.options;
  bad.block_size = 64;
  EXPECT_THROW((void)solver::lanczos(f.csr, f.csb, 4, Version::kDs, bad),
               support::Error);

  solver::LobpcgOptions lo;
  lo.block_size = 32;
  lo.threads = 2;
  lo.nev = 0;
  EXPECT_THROW((void)solver::lobpcg(f.csr, f.csb, 4, Version::kLibCsb, lo),
               support::Error);
  lo.nev = 4;
  lo.tolerance = -1.0;
  EXPECT_THROW((void)solver::lobpcg(f.csr, f.csb, 4, Version::kLibCsb, lo),
               support::Error);
}

TEST(Timeout, DeadlineCancelsSolveAtIterationBoundary) {
  SolverFixture f;
  support::CancelToken cancel;
  f.options.cancel = &cancel;
  // Stall one spmv block long enough for the 50 ms deadline to expire; the
  // solver observes the requested token at its next iteration boundary and
  // unwinds with Cancelled instead of finishing all 8 iterations.
  support::fault::ScopedFault stall(
      "spmv_block:hit=2:kind=delay:delay_ms=400");
  support::Deadline deadline(cancel, std::chrono::milliseconds(50),
                             "unit-timeout");
  try {
    (void)solver::lanczos(f.csr, f.csb, 8, Version::kLibCsb, f.options);
    FAIL() << "expected support::Cancelled";
  } catch (const support::Cancelled& e) {
    EXPECT_EQ(e.reason(), "unit-timeout");
  }
}

TEST(Timeout, StsolveTimeoutFlagExitsFive) {
  // Same shape end to end: a delay fault stalls iteration one past the
  // 100 ms --timeout budget, and the stsolve binary reports the documented
  // timeout exit code 5 (not breakdown's 4, not bad-input's 3).
  const int code =
      testutil::spawn({STSOLVE_BIN, "--suite", "inline_1", "--scale", "0.02",
                       "--solver", "lanczos", "--version", "libcsb",
                       "--iterations", "50", "--threads", "2", "--block",
                       "64", "--timeout", "0.1"},
                      {"STS_FAULT=spmv_block:hit=2:kind=delay:delay_ms=600"},
                      "/tmp/sts-faults-test-stsolve.log")
          .wait();
  EXPECT_EQ(code, 5);
}

} // namespace
} // namespace sts
