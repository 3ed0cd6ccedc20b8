// One kernel-call script per solver, one lowering per task runtime.
//
// Lanczos and LOBPCG write their iteration once, as a member template
// `issue(L&)` over the kernel-call vocabulary of ds::Program (the paper's
// Listing 1): vec / small / scalar registration, spmm, xy, xty, axpy, copy,
// copy_into_column, scale_into, dot and small_task. run_tasks() runs that
// script on one of three lowerings, none of which knows any solver:
//
//   ds    ds::Program itself: the script is issued once into a task
//         dependency graph that every iteration re-executes (DeepSparse).
//   flux  FluxLowering: the first iteration's calls are captured into a
//         flux::TaskGraph, wired by per-piece last writer and readers
//         (the discipline of HPX's Listing 2); every iteration replays it.
//   rgt   RgtLowering: every call launches region tasks with privileges;
//         rgt's dependence analysis wires them (Regent, Listing 3).
//
// flux and rgt share PieceLowering, which expands each call into the
// per-piece tasks ds::Program would build; they differ only in how a task
// is issued.
//
// Iteration boundary: a full barrier in every runtime. ds and flux run
// their graph to completion; rgt issues the iteration, then wait_all().
// Host state a call depends on (the copy_into_column column, registered
// scalars) is read when the task executes, in every runtime: ds and flux
// run one graph for every iteration, and the host changes that state only
// in accept(), after the barrier.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ds/executor.hpp"
#include "ds/program.hpp"
#include "flux/scheduler.hpp"
#include "flux/task_graph.hpp"
#include "obs/obs.hpp"
#include "rgt/runtime.hpp"
#include "solvers/checkpoint.hpp"
#include "solvers/common.hpp"
#include "support/timer.hpp"

namespace sts::solver {

using ds::DataId;

/// Wraps a flux task body in obs::run_task, as the worker that runs it.
template <typename Fn>
auto flux_task(flux::Scheduler& sched, graph::KernelKind kind,
               std::int32_t id, Fn fn) {
  return [sched = &sched, kind, id, fn = std::move(fn)]() {
    obs::run_task("flux", kind, id, sched->current_worker(), fn);
  };
}

/// One task of a piece lowering: its kernel body and the pieces it uses.
struct PieceTask {
  /// One use of registered data. piece -1 is the whole structure.
  struct Use {
    DataId data = -1;
    index_t piece = -1;
    graph::Access::Mode mode = graph::Access::Mode::kRead;
  };
  graph::KernelKind kind = graph::KernelKind::kOther;
  std::int32_t id = -1; // task id in trace events: the row piece, or -1
  index_t home = -1;    // row piece it works on (NUMA hint), or -1
  std::vector<Use> uses;
  std::function<void()> body;
  const char* name = "task"; // rgt task label
};

/// The kernel-call vocabulary of ds::Program, expanded into per-piece tasks
/// over the CSB partition (the same tasks, bodies and reduction orders as
/// ds::Program, so results are bit-identical). Each task is handed to the
/// runtime as it is issued. A runtime supplies how data is registered, how
/// a task is issued and how an iteration ends.
class PieceLowering {
public:
  PieceLowering(const PieceLowering&) = delete;
  PieceLowering& operator=(const PieceLowering&) = delete;

  DataId vec(std::string name, la::DenseMatrix* storage);
  DataId small(std::string name, la::DenseMatrix* storage);
  DataId scalar(std::string name, double* value);

  /// Dependency-based: per output piece, a zero task, then one task per
  /// CSB block of that row chained on it.
  virtual void spmm(DataId x, DataId y);
  void xy(DataId x, DataId z, DataId y, double alpha = 1.0, double beta = 0.0);
  void xty(DataId x, DataId y, DataId p);
  void axpy(double alpha, DataId x, DataId y);
  void copy(DataId x, DataId y);
  /// The column is read when the task executes.
  void copy_into_column(DataId x, DataId y, const index_t* col);
  /// The scalar is read when the task executes.
  void scale_into(DataId x, DataId s, bool reciprocal, DataId y);
  void dot(DataId x, DataId y, DataId s);
  void small_task(graph::KernelKind kind, std::function<void()> body,
                  std::vector<DataId> reads, std::vector<DataId> writes);

  /// Waits until the host may read every small and scalar, then rewinds
  /// the per-call-site partial buffers for the next iteration.
  void end_iteration();
  /// Drains every in-flight task (before a checkpoint write).
  virtual void quiesce() {}
  /// Drains at the normal exit, rethrowing a latched task failure.
  virtual void finish() {}
  /// True when end_iteration() replays an iteration captured earlier, so
  /// the script must not issue its calls again.
  [[nodiscard]] virtual bool replaying() const { return false; }

protected:
  PieceLowering(const sparse::Csb& a, const SolverOptions& options);
  virtual ~PieceLowering() = default;

  /// Registers data id `id`: np_ row pieces when partitioned (vectors and
  /// partial buffers), else one whole structure (smalls and scalars).
  virtual void on_register(DataId id, std::string name,
                           std::span<double> storage, bool partitioned) = 0;
  virtual void issue(PieceTask task) = 0;
  /// Issues make(p) for every row piece p (rgt: as one index launch).
  virtual void issue_pieces(const std::function<PieceTask(index_t)>& make);
  /// Blocks until every small and scalar has its final value.
  virtual void wait() = 0;

  [[nodiscard]] la::DenseMatrix* matrix(DataId id) const {
    return records_[static_cast<std::size_t>(id)].matrix;
  }

  const sparse::Csb* a_;
  bool skip_empty_;
  index_t np_;

private:
  struct Record {
    la::DenseMatrix* matrix = nullptr;
    double* cell = nullptr;
    bool partitioned = false;
  };

  DataId add(std::string name, la::DenseMatrix* matrix, double* cell,
             std::span<double> storage, bool partitioned);
  DataId partial(index_t cols, const char* name);
  [[nodiscard]] index_t rows_in(index_t p) const {
    return std::min(b_, m_ - p * b_);
  }
  /// issue_pieces for a task on rows [r0, r0 + rows) of piece p:
  /// make(p, r0, rows).
  template <typename Make>
  void per_piece(Make make) {
    issue_pieces([&](index_t p) { return make(p, p * b_, rows_in(p)); });
  }

  index_t b_;
  index_t m_;
  std::vector<Record> records_;
  std::vector<std::unique_ptr<la::DenseMatrix>> partial_storage_;
  std::vector<DataId> partials_; // xty / dot partial buffer per call site
  std::size_t cursor_ = 0;
};

/// flux: the first iteration's tasks are captured into a flux::TaskGraph
/// and every iteration replays it. Edges follow the discipline an HPX
/// programmer applies by hand in Listing 2, applied per piece: a task runs
/// after the last writer of what it reads, and after the last writer and
/// every reader of what it writes. An iteration ends when the whole graph
/// has run.
class FluxLowering final : public PieceLowering {
public:
  /// Runs on options.flux_pool when set, else on a private scheduler.
  FluxLowering(const sparse::Csb& a, const SolverOptions& options);

  void quiesce() override { sched_->wait_for_quiescence(); }
  void finish() override;
  /// True once the first end_iteration() has captured the graph.
  [[nodiscard]] bool replaying() const override { return captured_; }

private:
  using NodeId = flux::TaskGraph::NodeId;
  /// Capture state of one registered data, per piece.
  struct Pieces {
    std::vector<std::int64_t> writer;        // last writer node, or -1
    std::vector<std::vector<NodeId>> readers; // readers since that write
  };

  void on_register(DataId id, std::string name, std::span<double> storage,
                   bool partitioned) override;
  void issue(PieceTask task) override;
  void wait() override;

  unsigned numa_domains_;
  sparse::Csb::DomainMap dmap_; // stripe owners, shared with place_stripes
  std::unique_ptr<flux::Scheduler> owned_; // empty when the pool is shared
  flux::Scheduler* sched_;
  std::vector<Pieces> pieces_; // indexed by DataId; freed once captured
  bool captured_ = false;
  flux::TaskGraph graph_;
  // Last member: destroyed first, so an unwinding solve drains every task
  // before the state it touches goes away (the destructor swallows the
  // latched failure; the unwinding exception is the one to report).
  flux::QuiesceOnExit quiesce_;
};

/// rgt: every task carries region privileges and rgt's program-order
/// dependence analysis wires it; per-piece calls are index launches. An
/// iteration ends with wait_all().
class RgtLowering final : public PieceLowering {
public:
  RgtLowering(const sparse::Csb& a, const SolverOptions& options);

  /// Dependency-based chains, or (options.dependency_based_spmm false)
  /// reduce-privilege updates of the whole output (paper Fig. 7).
  void spmm(DataId x, DataId y) override;

private:
  void on_register(DataId id, std::string name, std::span<double> storage,
                   bool partitioned) override;
  void issue(PieceTask task) override;
  void issue_pieces(const std::function<PieceTask(index_t)>& make) override;
  void wait() override { rt_.wait_all(); }
  [[nodiscard]] rgt::TaskLaunch launch(PieceTask task) const;
  template <typename Fn>
  rgt::TaskBody traced(graph::KernelKind kind, std::int32_t id, Fn fn) const;

  bool dependency_based_;
  rgt::Runtime rt_;
  std::vector<rgt::RegionId> regions_; // indexed by DataId
};

/// Short runtime name used in iteration labels: "ds", "flux" or "rgt".
[[nodiscard]] const char* runtime_label(Version v);

/// Runs iterations [start, end) of `script` on task runtime `v` (kDs, kFlux
/// or kRgt). The script provides:
///   declare(L&)          registers its data with the lowering (once);
///   issue(L&)            issues one iteration's kernel calls;
///   accept(iter, it)     after the boundary: records metrics and returns
///                        false to stop (convergence, breakdown, NaN);
///   checkpoint(n, every) writes a checkpoint after n iterations (called
///                        only when one is due, with every task drained).
/// Each iteration polls cancellation and runs under an obs::IterScope
/// named "<solver>.<runtime>".
template <typename Script>
IterationTiming run_tasks(Version v, const char* solver,
                          const sparse::Csb& csb, const SolverOptions& options,
                          int start, int end, Script& script) {
  const std::string label = std::string(solver) + "." + runtime_label(v);
  const int every = ckpt::effective_every(options.ckpt_every);
  IterationTiming timing;
  auto loop = [&](auto&& step, auto&& drain, auto&& finish) {
    const support::Timer timer;
    for (int it = start; it < end; ++it) {
      poll_cancel(options);
      obs::IterScope iter(label.c_str(), it);
      step();
      ++timing.iterations;
      if (!script.accept(iter, it)) break;
      if (!options.ckpt_path.empty() && (it + 1) % every == 0) {
        drain();
        script.checkpoint(it + 1, every);
      }
    }
    finish();
    timing.total_seconds = timer.seconds();
  };
  auto nothing = [] {};
  auto run_pieces = [&](auto& lowering) {
    script.declare(lowering);
    loop(
        [&] {
          if (!lowering.replaying()) script.issue(lowering);
          lowering.end_iteration();
        },
        [&] { lowering.quiesce(); }, [&] { lowering.finish(); });
  };

  switch (v) {
    case Version::kDs: {
      ds::Program prog(&csb, {.skip_empty_blocks = options.skip_empty_blocks,
                              .dependency_based_spmm =
                                  options.dependency_based_spmm,
                              .spmm_buffers =
                                  static_cast<std::int32_t>(options.threads)});
      script.declare(prog);
      const support::Timer build_timer;
      script.issue(prog);
      const graph::Tdg graph = prog.build();
      timing.graph_build_seconds = build_timer.seconds();
      const ds::ExecOptions exec{.mode = ds::ExecMode::kOmpTasks};
      loop([&] { ds::execute(graph, exec); }, nothing, nothing);
      break;
    }
    case Version::kFlux: {
      FluxLowering flux(csb, options);
      run_pieces(flux);
      break;
    }
    case Version::kRgt: {
      RgtLowering rgt(csb, options);
      run_pieces(rgt);
      break;
    }
    default:
      throw support::Error(std::string("run_tasks: ") + to_string(v) +
                           " is not a task runtime");
  }
  return timing;
}

} // namespace sts::solver
