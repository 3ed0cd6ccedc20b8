// The traced run: replays each job's stages by calling the layers' public
// functions directly, wraps every call in a span, and turns the spans and
// the program's own counters (obs registry, flux::Scheduler::stats(),
// IterationTiming) into the per-layer ledger.
//
// Every per-layer figure is per round, like job_ms: times and counts are
// summed over the workload's inputs and ratios are formed from those sums.
// Layers a workload's jobs do not use (IC(0) and SpTRSV on lobpcg, ds and
// rgt on cg-ic0 and svc-mix) are still measured on the workload's own
// matrices, so every workload reports every layer; README.md says which
// figures move which end-to-end metric where.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "bsp/kernels.hpp"
#include "flux/scheduler.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/sptrsv.hpp"
#include "obs/obs.hpp"
#include "solvers/cg.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/csb.hpp"
#include "sparse/ic0.hpp"
#include "spans.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace solvebench {

namespace sp = sts::sparse;
namespace la = sts::la;
namespace svc = sts::svc;
namespace solver = sts::solver;
namespace obs = sts::obs;
namespace flux = sts::flux;
using sts::la::index_t;

namespace {

constexpr int kReps = 3;          // replays per job kind and per plan
constexpr int kKernelReps = 7;    // calls per kernel probe
constexpr index_t kNev = 8;       // LOBPCG block width for the dense probes
constexpr int kProbeLanczos = 20; // ds/rgt probe iterations off lobpcg

/// Counter and histogram sums the ledger reads, at one instant.
struct Counters {
  double ds_spawned = 0;
  double rgt_edges = 0;
  double rgt_run_ns = 0;
  double flux_run_ns = 0;

  static Counters now() {
    const obs::RegistrySnapshot s = obs::Registry::instance().snapshot();
    Counters c;
    for (const auto& r : s.counters) {
      const auto v = static_cast<double>(r.value);
      if (r.name == "ds.tasks_spawned") c.ds_spawned = v;
      if (r.name == "rgt.dependence_edges") c.rgt_edges = v;
    }
    for (const auto& h : s.histograms) {
      const auto v = static_cast<double>(h.data.sum);
      if (h.name == "rgt.task_run_ns") c.rgt_run_ns = v;
      if (h.name == "flux.task_run_ns") c.flux_run_ns = v;
    }
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {ds_spawned - o.ds_spawned, rgt_edges - o.rgt_edges,
            rgt_run_ns - o.rgt_run_ns, flux_run_ns - o.flux_run_ns};
  }
};

/// One solver call as IterationTiming reports it.
struct Call {
  double wall_ms = 0.0;
  double loop_ms = 0.0;
  double graph_build_ms = 0.0;
  int iterations = 0;
};

Call call_solver(const svc::RunSpec& spec, const sp::Csr& csr,
                 const sp::Csb& csb, Version v, unsigned threads,
                 int iterations, flux::Scheduler* pool) {
  const sts::support::Timer t;
  solver::IterationTiming timing;
  const unsigned domains = pool != nullptr ? pool->domain_count() : 1;
  if (spec.solver == svc::SolverKind::kLobpcg) {
    solver::LobpcgOptions o = spec.lobpcg_options(csb.block_size());
    o.threads = threads;
    o.numa_domains = domains;
    o.flux_pool = pool;
    timing = solver::lobpcg(csr, csb, iterations, v, o).timing;
  } else {
    solver::SolverOptions o = spec.solver_options(csb.block_size());
    o.threads = threads;
    o.numa_domains = domains;
    o.flux_pool = pool;
    timing = spec.solver == svc::SolverKind::kCg
                 ? solver::cg(csr, csb, v, spec.cg_options(), o).timing
                 : solver::lanczos(csr, csb, iterations, v, o).timing;
  }
  return {t.seconds() * 1e3, timing.total_seconds * 1e3,
          timing.graph_build_seconds * 1e3, timing.iterations};
}

std::unique_ptr<flux::Scheduler> make_pool(unsigned threads) {
  return std::make_unique<flux::Scheduler>(
      flux::Scheduler::Config::topology_aware(threads));
}

/// SPD matrix with `a`'s pattern: off-diagonals -|a_ij|, diagonal 1.01
/// times the absolute row sum. IC(0) and SpTRSV are probed on it when the
/// input itself is not SPD.
sp::Csr spd_companion(const sp::Csr& a) {
  sp::Coo coo(a.rows(), a.cols());
  const auto rowptr = a.rowptr();
  const auto col = a.colidx();
  const auto val = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (auto k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const auto j = col[static_cast<std::size_t>(k)];
      if (j == i) continue;
      const double v = std::abs(val[static_cast<std::size_t>(k)]);
      sum += v;
      coo.add(i, j, -v);
    }
    coo.add(i, i, 1.01 * sum + 1e-3);
  }
  return sp::Csr::from_coo(std::move(coo));
}

la::DenseMatrix random_block(index_t rows, index_t cols, std::uint64_t seed) {
  la::DenseMatrix m(rows, cols);
  sts::support::Xoshiro256 rng(seed);
  for (double& x : m.flat()) x = rng.uniform(-1.0, 1.0);
  return m;
}

/// Triad bandwidth (median of kKernelReps) over three arrays totalling
/// `bytes`.
double stream_gbs(double bytes, unsigned threads) {
  const auto n =
      std::max<std::size_t>(static_cast<std::size_t>(bytes / 24), 1024);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  std::vector<double> t;
  for (int r = 0; r < kKernelReps; ++r) {
    const sts::support::Timer timer;
#pragma omp parallel for num_threads(static_cast<int>(threads)) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 0.5 * c[i];
    t.push_back(timer.seconds());
  }
  return 24.0 * static_cast<double>(n) / median(t) * 1e-9;
}

/// One replay of one job kind. Per kind the replay keeps the field-wise
/// median over replays; per version it sums those over the inputs.
struct Replay {
  double untraced_ms = 0, traced_ms = 0, loop_ms = 0, setup_ms = 0,
         graph_ms = 0, iterations = 0, tasks = 0, steals = 0,
         flux_run_ns = 0, ds_spawned = 0, rgt_edges = 0, rgt_run_ns = 0;

  static constexpr double Replay::*kFields[] = {
      &Replay::untraced_ms, &Replay::traced_ms, &Replay::loop_ms,
      &Replay::setup_ms,    &Replay::graph_ms,  &Replay::iterations,
      &Replay::tasks,       &Replay::steals,    &Replay::flux_run_ns,
      &Replay::ds_spawned,  &Replay::rgt_edges, &Replay::rgt_run_ns};

  static Replay median_of(const std::vector<Replay>& rs) {
    Replay m;
    for (const auto f : kFields) {
      std::vector<double> v;
      for (const Replay& r : rs) v.push_back(r.*f);
      m.*f = median(v);
    }
    return m;
  }
  Replay& operator+=(const Replay& o) {
    for (const auto f : kFields) this->*f += o.*f;
    return *this;
  }
  [[nodiscard]] double loop_per_iter() const {
    return iterations > 0 ? loop_ms / iterations : 0.0;
  }
  [[nodiscard]] double per_iter(double count) const {
    return iterations > 0 ? count / iterations : 0.0;
  }
};

class Replayer {
public:
  Replayer(const Workload& w, Report& report)
      : w_(w),
        report_(report),
        threads_(job_threads()) {
    for (const JobKind& k : w.kinds) {
      if (first_kind_.emplace(k.input, &k).second) inputs_.push_back(k.input);
      const index_t block = block_of(k);
      auto& csb = csbs_[{k.input, block}];
      if (!csb) {
        csb = std::make_unique<sp::Csb>(
            sp::Csb::from_csr(w.inputs[k.input].csr, block));
      }
    }
  }

  void run(const std::string& trace_path) {
    obs::enable_metrics(""); // collect only: counters and task-body timings
    for (const std::size_t i : inputs_) replay_plan(i);
    std::map<Version, Replay> per_version;
    for (const JobKind& k : w_.kinds) {
      per_version[k.spec.version] += replay_job(k);
    }
    report_versions(per_version);
    for (const std::size_t i : inputs_) probe_layers(i);
    report_layers(per_version);
    print_spans();
    spans_.write_chrome(trace_path);
    obs::disable();
  }

private:
  void add(const std::string& name, double v) { ledger_[name] += v; }

  [[nodiscard]] index_t block_of(const JobKind& k) const {
    return k.spec.resolve_block(w_.inputs[k.input].csr).block;
  }
  [[nodiscard]] const sp::Csb& csb_for(const JobKind& k) const {
    return *csbs_.at({k.input, block_of(k)});
  }

  /// Median per-call ms of `f` over `reps` calls, each in its own span.
  template <class F>
  double probe(const std::string& name, F&& f, int reps = kKernelReps) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      const int id = spans_.open(name, job_);
      f();
      spans_.close(id);
      t.push_back(spans_.at(id).ms());
    }
    return median(t);
  }

  /// The plan stages a cache miss runs: load, CSR, block choice, CSB.
  void replay_plan(std::size_t i) {
    const Input& in = w_.inputs[i];
    const svc::RunSpec& spec = first_kind_.at(i)->spec;
    std::vector<double> load, csr_t, tune_t, csb_t;
    double block_rows = 0.0;
    double bytes_per_nnz = 0.0;
    for (int r = 0; r < kReps; ++r) {
      const int root = spans_.open("plan " + in.name, ++job_);
      sp::Coo coo = spans_.time("svc.load", job_, [&] { return spec.load(); });
      const sp::Csr csr = spans_.time("sparse.csr_build", job_, [&] {
        return sp::Csr::from_coo(std::move(coo));
      });
      const auto choice = spans_.time("tuning.block", job_,
                                      [&] { return spec.resolve_block(csr); });
      const sp::Csb csb = spans_.time("sparse.csb_build", job_, [&] {
        return sp::Csb::from_csr(csr, choice.block);
      });
      spans_.close(root);
      load.push_back(spans_.at(root + 1).ms());
      csr_t.push_back(spans_.at(root + 2).ms());
      tune_t.push_back(spans_.at(root + 3).ms());
      csb_t.push_back(spans_.at(root + 4).ms());
      block_rows = static_cast<double>(csb.block_rows());
      bytes_per_nnz = csb.bytes_per_nnz();
    }
    add("svc.load_ms", median(load));
    add("sparse.csr_build_ms", median(csr_t));
    add("tuning.block_ms", median(tune_t));
    add("sparse.csb_build_ms", median(csb_t));
    add("tuning.block_rows", block_rows);
    add("sparse.bytes_per_nnz",
                bytes_per_nnz / static_cast<double>(inputs_.size()));
  }

  /// A warm job as a slot runs it: flux pool build, the solver call (split
  /// into set-up and loop by the solver's own timing), pool join. Each
  /// traced replay follows an untraced run of the same call.
  Replay replay_job(const JobKind& k) {
    const Input& in = w_.inputs[k.input];
    const sp::Csb& csb = csb_for(k);
    const Version v = k.spec.version;
    const bool is_flux = v == Version::kFlux;
    std::vector<Replay> reps;
    for (int r = 0; r < kReps; ++r) {
      Replay rp;
      obs::disable();
      {
        const sts::support::Timer t;
        auto pool = is_flux ? make_pool(threads_) : nullptr;
        (void)call_solver(k.spec, in.csr, csb, v, threads_, k.spec.iterations,
                          pool.get());
        pool.reset();
        rp.untraced_ms = t.seconds() * 1e3;
      }
      obs::enable_metrics("");
      const Counters c0 = Counters::now();
      const int root =
          spans_.open("job " + in.name + "/" + version_name(v), ++job_);
      std::unique_ptr<flux::Scheduler> pool;
      if (is_flux) {
        spans_.time("flux.pool_start", job_,
                    [&] { pool = make_pool(threads_); });
      }
      const auto st0 = pool ? pool->stats() : flux::Scheduler::Stats{};
      const int call = spans_.open("solver.call", job_);
      const Call c = call_solver(k.spec, in.csr, csb, v, threads_,
                                 k.spec.iterations, pool.get());
      spans_.close(call);
      const auto st1 = pool ? pool->stats() : flux::Scheduler::Stats{};
      if (is_flux) spans_.time("flux.pool_stop", job_, [&] { pool.reset(); });
      spans_.close(root);
      const Counters dc = Counters::now() - c0;
      const Span& cs = spans_.at(call);
      const auto loop_ns = static_cast<std::int64_t>(c.loop_ms * 1e6);
      spans_.add("solver.setup", cs.start_ns, cs.end_ns - loop_ns, call, job_);
      spans_.add("solver.loop", cs.end_ns - loop_ns, cs.end_ns, call, job_);
      rp.traced_ms = spans_.at(root).ms();
      rp.loop_ms = c.loop_ms;
      rp.setup_ms = c.wall_ms - c.loop_ms;
      rp.graph_ms = c.graph_build_ms;
      rp.iterations = c.iterations;
      rp.tasks = static_cast<double>(st1.executed - st0.executed);
      rp.steals = static_cast<double>(st1.steals - st0.steals);
      rp.flux_run_ns = dc.flux_run_ns;
      rp.ds_spawned = dc.ds_spawned;
      rp.rgt_edges = dc.rgt_edges;
      rp.rgt_run_ns = dc.rgt_run_ns;
      reps.push_back(rp);
    }
    return Replay::median_of(reps);
  }

  void report_versions(std::map<Version, Replay>& pv) {
    // Serial baseline: 1-thread libcsr loop on each input's first kind.
    Replay serial;
    for (const std::size_t i : inputs_) {
      const JobKind& k = *first_kind_.at(i);
      const Call c = call_solver(k.spec, w_.inputs[i].csr, csb_for(k),
                                 Version::kLibCsr, 1, k.spec.iterations,
                                 nullptr);
      serial.loop_ms += c.loop_ms;
      serial.iterations += c.iterations;
      report_.add("solvers.iterations." + w_.inputs[i].name, c.iterations,
                  "count", 1);
    }
    report_.add("solvers.iterations", pv[Version::kLibCsr].iterations, "count",
                inputs_.size());
    Replay total;
    for (const auto& [v, p] : pv) {
      const std::string vn = version_name(v);
      report_.add("solvers.loop_ms_per_iter." + vn, p.loop_per_iter(), "ms",
                  kReps);
      report_.add("solvers.setup_ms." + vn, p.setup_ms, "ms", kReps);
      report_.add("solvers.speedup_vs_serial." + vn,
                  serial.loop_per_iter() / p.loop_per_iter(), "x", kReps);
      report_.add("trace.job_ms.traced." + vn, p.traced_ms, "ms", kReps);
      report_.add("trace.job_ms.untraced." + vn, p.untraced_ms, "ms", kReps);
      total += p;
    }
    report_.add("trace.job_ms.traced", total.traced_ms, "ms", kReps);
    report_.add("trace.job_ms.untraced", total.untraced_ms, "ms", kReps);
    report_.add("trace.overhead", total.traced_ms / total.untraced_ms - 1.0,
                "ratio", kReps);

    // flux: tasks and steals from Scheduler::stats(), body time from the
    // flux.task_run_ns histogram, overhead against libcsb on the same CSB.
    const Replay& fx = pv[Version::kFlux];
    const Replay& cb = pv[Version::kLibCsb];
    report_.add("flux.tasks_per_iter", fx.per_iter(fx.tasks), "count", kReps);
    report_.add("flux.steals_per_iter", fx.per_iter(fx.steals), "count", kReps);
    report_.add("flux.overhead_ms_per_iter",
                fx.loop_per_iter() - cb.loop_per_iter(), "ms", kReps);
    report_.add("flux.body_share",
                fx.flux_run_ns * 1e-6 / (fx.loop_ms * threads_), "ratio",
                kReps);
    // Pool build and join, as the service pays them once per flux job.
    std::vector<double> start, stop;
    for (const Span& s : spans_.spans()) {
      if (s.name == "flux.pool_start") start.push_back(s.ms());
      if (s.name == "flux.pool_stop") stop.push_back(s.ms());
    }
    report_.add("flux.pool_start_ms", median(start) + median(stop), "ms",
                start.size());
  }

  /// Kernel, dense, IC(0)/SpTRSV and (off lobpcg) ds/rgt probes on input i.
  void probe_layers(std::size_t i) {
    const Input& in = w_.inputs[i];
    const sp::Csb& csb = csb_for(*first_kind_.at(i));
    const sp::Csr& csr = in.csr;
    const index_t m = csr.rows();
    const int root = spans_.open("layers " + in.name, ++job_);
    omp_set_num_threads(static_cast<int>(threads_));

    // bsp kernels, with the bytes they must move: matrix arrays plus the
    // vectors read and written.
    std::vector<double> x(static_cast<std::size_t>(m), 1.0), y(x.size(), 0.0);
    la::DenseMatrix X = random_block(m, kNev, 11);
    la::DenseMatrix Y(m, kNev);
    la::DenseMatrix Z = random_block(kNev, kNev, 12);
    la::DenseMatrix P(kNev, kNev);
    const double vec = 8.0 * static_cast<double>(m);
    const auto csr_b = static_cast<double>(csr.memory_bytes());
    const auto csb_b = static_cast<double>(csb.memory_bytes());
    const index_t chunk = csb.block_size();
    kernel("bsp.spmv_csr", csr_b + 2 * vec, [&] { sts::bsp::spmv(csr, x, y); });
    kernel("bsp.spmv_csb", csb_b + 2 * vec, [&] { sts::bsp::spmv(csb, x, y); });
    kernel("bsp.spmm_csb", csb_b + 2 * vec * kNev,
           [&] { sts::bsp::spmm(csb, X.view(), Y.view()); });
    kernel("bsp.xy", 2 * vec * kNev,
           [&] { sts::bsp::xy(X.view(), Z.view(), Y.view(), chunk); });
    kernel("bsp.xty", 2 * vec * kNev,
           [&] { sts::bsp::xty(X.view(), Y.view(), P.view(), chunk); });

    // Dense LOBPCG pieces: the Gram matrix of [X W P] (m x 3nev), the
    // 3nev pencil, and orthonormalizing an m x nev block.
    const index_t w3 = 3 * kNev;
    la::DenseMatrix S = random_block(m, w3, 13);
    la::DenseMatrix S2 = random_block(m, w3, 14);
    la::DenseMatrix G(w3, w3);
    la::DenseMatrix A(w3, w3);
    add("la.gram_ms", probe("la.gram", [&] {
      la::gemm_tn(1.0, S.view(), S.view(), 0.0, G.view());
    }));
    la::gemm_tn(0.5, S.view(), S2.view(), 0.0, A.view());
    la::gemm_tn(0.5, S2.view(), S.view(), 1.0, A.view()); // symmetric
    add("la.rr_ms", probe("la.rr", [&] {
      (void)la::sym_generalized_eigen(A.view(), G.view());
    }));
    add("la.orth_ms", probe("la.orth", [&] {
      la::DenseMatrix Q = X.clone();
      (void)la::orthonormalize_columns(Q.view());
    }));

    // IC(0) and SpTRSV on the input, or on its SPD companion.
    const sp::Csr companion = in.spd ? sp::Csr() : spd_companion(csr);
    const sp::Csr& a = in.spd ? csr : companion;
    sp::Ic0Result fac;
    add("sparse.ic0_ms",
                probe("sparse.ic0", [&] { fac = sp::ic0_factor(a); }, kReps));
    add("sparse.ic0_shift_attempts", fac.shift_attempts);
    sp::Csb lower;
    add("sparse.ic0_reblock_ms", probe("sparse.ic0_reblock", [&] {
      lower = sp::Csb::from_csr(fac.lower, csb.block_size());
    }, kReps));
    la::SptrsvPlan plan;
    add("la.sptrsv_plan_ms", probe("la.sptrsv_plan", [&] {
      plan = la::SptrsvPlan::build(lower);
    }, kReps));
    std::vector<double> tmp(x.size()), z(x.size());
    add("la.sptrsv_seq_ms", probe("la.sptrsv_seq", [&] {
      la::sptrsv_forward(lower, plan, x, tmp);
      la::sptrsv_backward(lower, plan, tmp, z);
    }));
    auto pool = make_pool(threads_);
    add("la.sptrsv_dag_ms", probe("la.sptrsv_dag", [&] {
      la::sptrsv_forward(lower, plan, x, tmp, *pool, nullptr);
      la::sptrsv_backward(lower, plan, tmp, z, *pool, nullptr);
    }));
    pool.reset();
    add("la.sptrsv.level_span", static_cast<double>(plan.level_span()));
    add("la.sptrsv.max_level_width",
                static_cast<double>(plan.max_level_width()));
    add("la.sptrsv.block_rows", static_cast<double>(plan.block_rows()));

    // ds and rgt where the jobs do not run them: Lanczos against libcsb.
    if (first_version(Version::kDs) == nullptr) {
      svc::RunSpec ls;
      ls.solver = svc::SolverKind::kLanczos;
      auto lanczos = [&](Version v) {
        return spans_.time(std::string("probe.lanczos.") + version_name(v),
                           job_, [&] {
                             return call_solver(ls, csr, csb, v, threads_,
                                                kProbeLanczos, nullptr);
                           });
      };
      const Call cb = lanczos(Version::kLibCsb);
      const Counters c1 = Counters::now();
      const Call cd = lanczos(Version::kDs);
      const Counters c2 = Counters::now();
      const Call cr = lanczos(Version::kRgt);
      const Counters c3 = Counters::now();
      add("ds.graph_build_ms", cd.graph_build_ms);
      add("ds.spawned", (c2 - c1).ds_spawned);
      add("ds.loop_ms", cd.loop_ms);
      add("rgt.edges", (c3 - c2).rgt_edges);
      add("rgt.run_ns", (c3 - c2).rgt_run_ns);
      add("rgt.loop_ms", cr.loop_ms);
      add("libcsb.loop_ms", cb.loop_ms);
      add("probe.iterations", kProbeLanczos);
    }
    spans_.close(root);
  }

  /// Times `f` as a kernel probe moving `bytes` per call, after one
  /// untimed call that lets the OpenMP team settle.
  template <class F>
  void kernel(const std::string& name, double bytes, F&& f) {
    f();
    add(name + "_ms", probe(name, f));
    add(name + ".bytes", bytes);
    double& ws = working_set_[name];
    ws = std::max(ws, bytes);
  }

  [[nodiscard]] const JobKind* first_version(Version v) const {
    for (const JobKind& k : w_.kinds) {
      if (k.spec.version == v) return &k;
    }
    return nullptr;
  }

  void report_layers(std::map<Version, Replay>& pv) {
    const std::size_t n_in = inputs_.size();
    for (const char* n :
         {"svc.load_ms", "sparse.csr_build_ms", "tuning.block_ms",
          "sparse.csb_build_ms", "la.gram_ms", "la.rr_ms", "la.orth_ms",
          "sparse.ic0_ms", "sparse.ic0_reblock_ms", "la.sptrsv_plan_ms",
          "la.sptrsv_seq_ms", "la.sptrsv_dag_ms"}) {
      report_.add(n, ledger_.at(n), "ms", kReps);
    }
    report_.add("tuning.block_rows", ledger_.at("tuning.block_rows"), "count",
                n_in);
    report_.add("sparse.bytes_per_nnz", ledger_.at("sparse.bytes_per_nnz"),
                "B", n_in);
    report_.add("sparse.ic0_shift_attempts",
                ledger_.at("sparse.ic0_shift_attempts"), "count", n_in);
    report_.add(
        "la.sptrsv_dag_speedup",
        ledger_.at("la.sptrsv_seq_ms") / ledger_.at("la.sptrsv_dag_ms"), "x",
        kKernelReps);
    for (const char* n : {"la.sptrsv.level_span", "la.sptrsv.max_level_width",
                          "la.sptrsv.block_rows"}) {
      report_.add(n, ledger_.at(n), "count", n_in);
    }

    // Each kernel's bandwidth against a triad over its own working set;
    // machine.stream_gbs is the one at the SpMM working set.
    for (const auto& [name, bytes] : working_set_) {
      const double stream = stream_gbs(bytes, threads_);
      if (name == "bsp.spmm_csb") {
        report_.add("machine.stream_gbs", stream, "GB/s", kKernelReps);
      }
      const double t = ledger_.at(name + "_ms");
      const double gbs = ledger_.at(name + ".bytes") / (t * 1e-3) * 1e-9;
      report_.add(name + "_ms", t, "ms", kKernelReps);
      report_.add(name + ".gbs", gbs, "GB/s", kKernelReps);
      report_.add(name + ".bw_frac", gbs / stream, "ratio", kKernelReps);
    }

    // ds and rgt: from the lobpcg jobs themselves, else from the probes.
    const double cb_iter = pv[Version::kLibCsb].loop_per_iter();
    Replay d;
    Replay g;
    if (first_version(Version::kDs) != nullptr) {
      d = pv[Version::kDs];
      g = pv[Version::kRgt];
    } else {
      d.iterations = g.iterations = ledger_.at("probe.iterations");
      d.graph_ms = ledger_.at("ds.graph_build_ms");
      d.ds_spawned = ledger_.at("ds.spawned");
      d.loop_ms = ledger_.at("ds.loop_ms");
      g.rgt_edges = ledger_.at("rgt.edges");
      g.rgt_run_ns = ledger_.at("rgt.run_ns");
      g.loop_ms = ledger_.at("rgt.loop_ms");
    }
    const double base_iter = first_version(Version::kDs) != nullptr
                                 ? cb_iter
                                 : ledger_.at("libcsb.loop_ms") / d.iterations;
    report_.add("ds.graph_build_ms", d.graph_ms, "ms", kReps);
    report_.add("ds.tasks_per_iter", d.per_iter(d.ds_spawned), "count", kReps);
    report_.add("ds.overhead_ms_per_iter", d.loop_per_iter() - base_iter, "ms",
                kReps);
    report_.add("rgt.edges_per_iter", g.per_iter(g.rgt_edges), "count", kReps);
    report_.add("rgt.overhead_ms_per_iter", g.loop_per_iter() - base_iter,
                "ms", kReps);
    report_.add("rgt.body_share", g.rgt_run_ns * 1e-6 / (g.loop_ms * threads_),
                "ratio", kReps);
  }

  /// Median total and self time per span name.
  void print_spans() const {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    const auto& all = spans_.spans();
    for (std::size_t s = 0; s < all.size(); ++s) {
      auto& [total, self] = by_name[all[s].name];
      total.push_back(all[s].ms());
      self.push_back(spans_.self_ms(static_cast<int>(s)));
    }
    std::cout << "spans (median total / median self, ms):\n";
    for (const auto& [name, v] : by_name) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "  %-36s n=%-4zu total %10.3f  self %10.3f\n", name.c_str(),
                    v.first.size(), median(v.first), median(v.second));
      std::cout << buf;
    }
  }

  const Workload& w_;
  Report& report_;
  const unsigned threads_;
  Spans spans_;
  int job_ = 0;
  std::map<std::string, double> ledger_; // per-layer sums over inputs
  std::vector<std::size_t> inputs_;                        // replayed inputs
  std::map<std::size_t, const JobKind*> first_kind_;       // per input
  std::map<std::pair<std::size_t, index_t>, std::unique_ptr<sp::Csb>> csbs_;
  std::map<std::string, double> working_set_; // per kernel, largest input
};

} // namespace

void run_traced(const Workload& w, Report& report,
                const std::string& trace_path) {
  Replayer(w, report).run(trace_path);
}

} // namespace solvebench
