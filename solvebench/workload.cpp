#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "inputs.hpp"
#include "solvers/cg.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/csb.hpp"
#include "sparse/mm_io.hpp"
#include "support/rng.hpp"
#include "tuning/block_select.hpp"

namespace solvebench {

namespace sp = sts::sparse;
namespace svc = sts::svc;
namespace solver = sts::solver;
using svc::wire::Json;

namespace {

// ---- workload constants ----------------------------------------------------
// Sizes and rates are fixed here, never derived from the seed or measured
// at run time, so every seed and every commit gets the same load.

// cg-ic0: IC(0)-CG to 1e-8 on a 27^3 Laplacian (heuristic block, which
// makes the SpTRSV DAG a chain) and a block-random SPD matrix whose tiles
// align with its explicit block (96 block rows, a wide DAG).
constexpr index_t kLapSide = 27;
constexpr index_t kScatterTiles = 192;
constexpr index_t kScatterTileDim = 50;
constexpr double kScatterFill = 0.005;
constexpr double kScatterBoost = 0.005;
constexpr index_t kScatterBlock = 100;
constexpr double kCgTol = 1e-8;
constexpr int kCgMaxit = 500;

// lobpcg: nev = 8 for a fixed iteration count; the tolerance is far below
// what that many iterations reach, so every job runs all of them.
constexpr double kLobpcgScale = 0.2;
constexpr int kLobpcgIterations = 8;
constexpr double kLobpcgTol = 1e-30;

// svc-mix: Poisson arrivals from one generator, two job classes, about
// 25% busy. At 60% the host's steal-time bursts pushed the queue into
// overload and run-to-run spread past every bound. Batch jobs outnumber
// interactive ones because the per-version metrics are taken over them.
constexpr double kInteractiveRate = 2.0; // jobs/s, Lanczos on a warm plan
constexpr double kBatchRate = 6.0;       // jobs/s, IC(0)-CG on unseen files
constexpr index_t kInteractiveSide = 22;
constexpr int kLanczosIterations = 20;
constexpr index_t kBatchSide = 14;
// Distinct batch matrices; each arrival gets its own link under a fresh
// path, so the service parses and plans every batch job from scratch.
constexpr int kBatchVariants = 12;
// Plan-cache budget in plans: the interactive plan plus this many batch
// plans, so batch inserts keep evicting.
constexpr int kBatchPlansCached = 3;

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Input load_input(const std::string& name, const std::string& path, bool spd) {
  svc::RunSpec spec;
  spec.matrix_path = path;
  Input in;
  in.name = name;
  in.path = path;
  in.csr = sp::Csr::from_coo(spec.load());
  in.spd = spd;
  return in;
}

Input write_input(const std::string& name, const std::string& dir,
                  const sp::Coo& coo, bool spd) {
  const std::string path = dir + "/" + name + ".mtx";
  sp::write_matrix_market_file(path, coo, /*symmetric=*/true);
  return load_input(name, path, spd);
}

svc::RunSpec cg_spec(const std::string& path, Version v, index_t block) {
  svc::RunSpec s;
  s.matrix_path = path;
  s.solver = svc::SolverKind::kCg;
  s.version = v;
  s.precond = solver::Precond::kIc0;
  s.tolerance = kCgTol;
  s.iterations = kCgMaxit;
  s.block = block;
  return s;
}

/// Exponential inter-arrival times at `rate` over [0, seconds).
std::vector<double> poisson_times(double rate, double seconds,
                                  std::uint64_t seed) {
  sts::support::Xoshiro256 rng(seed);
  std::vector<double> t;
  double now = 0.0;
  for (;;) {
    now += -std::log(1.0 - rng.uniform()) / rate;
    if (now >= seconds) return t;
    t.push_back(now);
  }
}

} // namespace

unsigned job_threads() {
  return std::max(1u, host_threads() / 2);
}

const char* version_name(Version v) {
  switch (v) {
    case Version::kLibCsr: return "libcsr";
    case Version::kLibCsb: return "libcsb";
    case Version::kDs: return "ds";
    case Version::kFlux: return "flux";
    case Version::kRgt: return "rgt";
  }
  return "?";
}

std::string check_answer(const JobKind& kind, const Json& info) {
  const std::string state = info.string_or("state", "?");
  if (state != "DONE") {
    return "job ended " + state + ": " + info.string_or("error", "");
  }
  const Json& summary = info.get("summary");
  switch (kind.spec.solver) {
    case svc::SolverKind::kCg: return check_cg(summary, kind.cg);
    case svc::SolverKind::kLobpcg:
      return check_lobpcg(summary, kind.eigs, kind.spec.iterations);
    case svc::SolverKind::kLanczos: return check_lanczos(summary, kind.eigs);
  }
  return "unknown solver";
}

void compute_reference(JobKind& kind, const Input& input, unsigned threads) {
  const svc::RunSpec& spec = kind.spec;
  const index_t block = spec.resolve_block(input.csr).block;
  const sp::Csb csb = sp::Csb::from_csr(input.csr, block);
  switch (spec.solver) {
    case svc::SolverKind::kCg: {
      solver::SolverOptions o = spec.solver_options(block);
      o.threads = threads;
      const auto r = solver::cg(input.csr, csb, Version::kLibCsr,
                                spec.cg_options(), o);
      // True residual with a plain CSR loop, b regenerated from the seed
      // the solver draws it from.
      const sp::Csr& a = input.csr;
      sts::support::Xoshiro256 rng(o.seed);
      double rr = 0.0;
      double bb = 0.0;
      const auto rowptr = a.rowptr();
      const auto col = a.colidx();
      const auto val = a.values();
      for (index_t i = 0; i < a.rows(); ++i) {
        const double b = rng.uniform(-1.0, 1.0);
        double ax = 0.0;
        for (auto k = rowptr[i]; k < rowptr[i + 1]; ++k) {
          ax += val[static_cast<std::size_t>(k)] *
                r.x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
        }
        rr += (b - ax) * (b - ax);
        bb += b * b;
      }
      const double rel = std::sqrt(rr / bb);
      if (!r.converged || !(rel <= 10.0 * spec.tolerance)) {
        throw std::runtime_error(
            "reference cg on " + input.name + " misses tol: ||b-Ax||/||b|| = " +
            std::to_string(rel));
      }
      kind.cg = {spec.tolerance, r.iterations};
      return;
    }
    case svc::SolverKind::kLobpcg: {
      solver::LobpcgOptions o = spec.lobpcg_options(block);
      o.threads = threads;
      kind.eigs = solver::lobpcg(input.csr, csb, spec.iterations,
                                 Version::kLibCsr, o)
                      .eigenvalues;
      return;
    }
    case svc::SolverKind::kLanczos: {
      solver::SolverOptions o = spec.solver_options(block);
      o.threads = threads;
      kind.eigs = solver::lanczos(input.csr, csb, spec.iterations,
                                  Version::kLibCsr, o)
                      .ritz_values;
      return;
    }
  }
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, const std::string& dir) {
  Workload w;
  w.name = name;
  // Every job runs on half the host's CPUs. With a slot of all of them, a
  // BSP barrier waits for whichever vCPU a shared host has descheduled:
  // in steal-time bursts that doubled job times and the run-to-run spread
  // passed 0.3; on half the CPUs jobs were faster in bursts and steadier.
  w.service.threads = job_threads();
  if (name == "cg-ic0") {
    w.versions = {Version::kLibCsr, Version::kLibCsb, Version::kFlux};
    w.inputs.push_back(write_input(
        "lap", dir, make_laplacian(kLapSide, derive_seed(seed, 1)), true));
    w.inputs.push_back(write_input(
        "scatter", dir,
        make_scatter(kScatterTiles, kScatterTileDim, kScatterFill,
                     kScatterBoost, derive_seed(seed, 2)),
        true));
    for (const Version v : w.versions) {
      for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        JobKind k;
        k.input = i;
        k.spec = cg_spec(w.inputs[i].path, v, i == 0 ? 0 : kScatterBlock);
        w.kinds.push_back(std::move(k));
      }
    }
  } else if (name == "lobpcg") {
    w.versions = {Version::kLibCsr, Version::kLibCsb, Version::kDs,
                  Version::kFlux, Version::kRgt};
    w.inputs.push_back(write_input(
        "Nm7", dir, make_suite("Nm7", kLobpcgScale, derive_seed(seed, 3)),
        false));
    w.inputs.push_back(write_input(
        "twitter7", dir,
        make_suite("twitter7", kLobpcgScale, derive_seed(seed, 4)), false));
    for (const Version v : w.versions) {
      for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        JobKind k;
        k.input = i;
        k.spec.matrix_path = w.inputs[i].path;
        k.spec.solver = svc::SolverKind::kLobpcg;
        k.spec.version = v;
        k.spec.nev = 8;
        k.spec.iterations = kLobpcgIterations;
        k.spec.tolerance = kLobpcgTol;
        // Each version's heuristic block, made explicit so versions that
        // agree on it share one cached plan.
        k.spec.block = sts::tune::recommended_block_size(
            v, job_threads(), w.inputs[i].csr.rows());
        w.kinds.push_back(std::move(k));
      }
    }
  } else if (name == "svc-mix") {
    w.open_loop = true;
    w.versions = {Version::kLibCsr, Version::kLibCsb, Version::kFlux};
    w.service.slots = 2;
    w.service.policy = svc::dispatch::Policy::kFair;
    w.service.journal_path = dir + "/journal";
    w.inputs.push_back(write_input(
        "interactive", dir,
        make_laplacian(kInteractiveSide, derive_seed(seed, 5)), true));
    for (int b = 0; b < kBatchVariants + 1; ++b) {
      w.inputs.push_back(write_input(
          "batch" + std::to_string(b), dir,
          make_laplacian(kBatchSide, derive_seed(seed, 100 + b)), true));
    }
    const unsigned threads = job_threads();
    const index_t interactive_block = sts::tune::recommended_block_size(
        Version::kFlux, threads, w.inputs[0].csr.rows());
    auto interactive_spec = [&](Version v) {
      svc::RunSpec s;
      s.matrix_path = w.inputs[0].path;
      s.solver = svc::SolverKind::kLanczos;
      s.version = v;
      s.iterations = kLanczosIterations;
      s.block = interactive_block;
      s.priority = "interactive";
      return s;
    };
    // Budget: the interactive plan plus a few batch plans.
    auto plan_bytes = [](const sp::Csr& csr, index_t block) {
      return csr.memory_bytes() + sp::Csb::from_csr(csr, block).memory_bytes();
    };
    const sp::Csr& batch_csr = w.inputs[1].csr;
    w.service.cache_bytes =
        plan_bytes(w.inputs[0].csr, interactive_block) +
        kBatchPlansCached *
            plan_bytes(batch_csr, sts::tune::recommended_block_size(
                                      Version::kLibCsr, host_threads(),
                                      batch_csr.rows()));
    // Warm-up kinds: one interactive job per version on the shared plan and
    // one batch job per version on the spare variant (input 1 + variants).
    for (const Version v : w.versions) {
      JobKind k;
      k.input = 0;
      k.spec = interactive_spec(v);
      w.kinds.push_back(std::move(k));
    }
    const std::size_t spare = 1 + kBatchVariants;
    for (const Version v : w.versions) {
      JobKind k;
      k.input = spare;
      k.spec = cg_spec(w.inputs[spare].path, v, 0);
      w.kinds.push_back(std::move(k));
    }
    // The timed schedule: seeded arrivals, versions round-robin per class.
    const auto ti =
        poisson_times(kInteractiveRate, seconds, derive_seed(seed, 6));
    const auto tb = poisson_times(kBatchRate, seconds, derive_seed(seed, 7));
    std::size_t ni = 0;
    std::size_t nb = 0;
    const std::size_t nv = w.versions.size();
    while (ni < ti.size() || nb < tb.size()) {
      const bool inter =
          nb >= tb.size() || (ni < ti.size() && ti[ni] <= tb[nb]);
      JobKind k;
      if (inter) {
        w.due_s.push_back(ti[ni]);
        k.input = 0;
        k.spec = interactive_spec(w.versions[ni % nv]);
        k.spec.client_key = (ni % 2 == 0 ? "tenant-a/" : "tenant-b/") +
                            std::to_string(ni);
        ++ni;
      } else {
        w.due_s.push_back(tb[nb]);
        const std::size_t variant = 1 + nb % kBatchVariants;
        const std::string path =
            dir + "/job" + std::to_string(nb) + ".mtx";
        std::filesystem::create_hard_link(w.inputs[variant].path, path);
        k.input = variant;
        k.spec = cg_spec(path, w.versions[nb % nv], 0);
        k.spec.client_key = "batch/" + std::to_string(nb);
        ++nb;
      }
      w.open_kinds.push_back(std::move(k));
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  // References: one direct libcsr solve per distinct (input, solver) pair
  // at the service's per-job worker count.
  const unsigned threads = job_threads();
  std::vector<const JobKind*> done;
  auto reference = [&](JobKind& k) {
    for (const JobKind* d : done) {
      if (d->input == k.input && d->spec.solver == k.spec.solver) {
        k.cg = d->cg;
        k.eigs = d->eigs;
        return;
      }
    }
    compute_reference(k, w.inputs[k.input], threads);
    done.push_back(&k);
  };
  for (JobKind& k : w.kinds) reference(k);
  for (JobKind& k : w.open_kinds) reference(k);
  return w;
}

} // namespace solvebench
