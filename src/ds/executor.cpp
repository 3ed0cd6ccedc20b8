#include "ds/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::ds {

namespace {

/// Unique successor lists (the Tdg may carry duplicate edges).
std::vector<std::vector<graph::TaskId>> unique_successors(
    const graph::Tdg& g) {
  std::vector<std::vector<graph::TaskId>> out(g.task_count());
  for (std::size_t u = 0; u < g.task_count(); ++u) {
    out[u] = g.successors(static_cast<graph::TaskId>(u));
    std::sort(out[u].begin(), out[u].end());
    out[u].erase(std::unique(out[u].begin(), out[u].end()), out[u].end());
  }
  return out;
}

void invoke_body(const graph::Task& task) {
  support::fault::check("ds:task");
  if (task.body) task.body();
}

obs::Counter& spawned_counter() {
  static obs::Counter& c = obs::counter("ds.tasks_spawned");
  return c;
}
obs::Counter& ready_counter() {
  static obs::Counter& c = obs::counter("ds.ready_events");
  return c;
}
obs::Counter& poisoned_counter() {
  static obs::Counter& c = obs::counter("ds.tasks_poisoned");
  return c;
}

/// Runs one task; any exception escaping the body is wrapped in a
/// support::TaskError naming the failing task.
void run_task(const graph::Tdg& g, graph::TaskId id, unsigned worker) {
  const graph::Task& task = g.task(id);
  try {
    obs::run_task("ds", task.kind, id, static_cast<std::int32_t>(worker),
                  [&] { invoke_body(task); });
  } catch (const support::TaskError&) {
    throw;
  } catch (const std::exception& e) {
    throw support::TaskError(graph::task_label(task), e.what());
  } catch (...) {
    throw support::TaskError(graph::task_label(task), "unknown exception");
  }
}

void execute_serial(const graph::Tdg& g) {
  for (graph::TaskId id : g.depth_first_topological_order()) {
    run_task(g, id, 0);
  }
}

#ifdef _OPENMP

struct OmpContext {
  const graph::Tdg* graph;
  std::vector<std::vector<graph::TaskId>> succ;
  std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
  std::uint64_t job; // the master's job tag, taken by every task
  // Failure containment: the first exception is latched; a failed task does
  // NOT decrement its successors' counters, so everything downstream of the
  // failure stays unspawned (poisoned readiness), and `cancelled` makes
  // already-spawned-but-not-started tasks skip their bodies.
  std::atomic<bool> cancelled{false};
  std::atomic<std::uint64_t> suppressed{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

void spawn_task(OmpContext& ctx, graph::TaskId id);

void finish_task(OmpContext& ctx, graph::TaskId id) {
  for (graph::TaskId s : ctx.succ[static_cast<std::size_t>(id)]) {
    if (ctx.remaining[static_cast<std::size_t>(s)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      ready_counter().add(1);
      spawn_task(ctx, s);
    }
  }
}

void spawn_task(OmpContext& ctx, graph::TaskId id) {
  OmpContext* c = &ctx;
  spawned_counter().add(1);
#pragma omp task firstprivate(c, id) untied
  {
    obs::set_current_job(c->job);
    if (c->cancelled.load(std::memory_order_acquire)) {
      c->suppressed.fetch_add(1, std::memory_order_relaxed);
      poisoned_counter().add(1);
      obs::instant("ds:poisoned", "cancel",
                   "{\"task\":\"" +
                       support::json_escape(
                           graph::task_label(c->graph->task(id))) +
                       "\"}");
    } else {
      try {
        run_task(*c->graph, id, static_cast<unsigned>(omp_get_thread_num()));
        finish_task(*c, id);
      } catch (...) {
        bool latched = false;
        {
          const std::lock_guard<std::mutex> lock(c->error_mutex);
          if (!c->error) {
            c->error = std::current_exception();
            latched = true;
          }
        }
        c->cancelled.store(true, std::memory_order_release);
        if (latched) obs::instant("ds:cancel", "cancel");
      }
    }
  }
}

void execute_omp(const graph::Tdg& g) {
  OmpContext ctx;
  ctx.graph = &g;
  ctx.succ = unique_successors(g);
  ctx.job = obs::current_job();
  const std::size_t n = g.task_count();
  ctx.remaining = std::make_unique<std::atomic<std::int32_t>[]>(n);
  const std::vector<std::int32_t> indeg = g.indegrees();
  for (std::size_t i = 0; i < n; ++i) {
    ctx.remaining[i].store(indeg[i], std::memory_order_relaxed);
  }
  const std::vector<graph::TaskId> order = g.depth_first_topological_order();
#pragma omp parallel
#pragma omp single nowait
  {
    // Master spawns all initially-ready tasks in depth-first topological
    // order (DeepSparse's spawn policy); the rest are spawned by their
    // final predecessor as counters drain.
    for (graph::TaskId id : order) {
      if (indeg[static_cast<std::size_t>(id)] == 0) spawn_task(ctx, id);
    }
  }
  // Implicit barrier of the parallel region waits for all spawned tasks —
  // and only for spawned ones, so the poisoned (never-spawned) successors
  // of a failed task don't stall it. Surface the single latched failure
  // here, on the calling thread, where it is catchable.
  if (ctx.error) std::rethrow_exception(ctx.error);
}

#endif // _OPENMP

} // namespace

void execute(const graph::Tdg& g, const ExecOptions& options) {
  STS_EXPECTS(g.is_acyclic());
  switch (options.mode) {
    case ExecMode::kSerial:
      execute_serial(g);
      return;
    case ExecMode::kOmpTasks:
#ifdef _OPENMP
      execute_omp(g);
#else
      execute_serial(g);
#endif
      return;
  }
}

} // namespace sts::ds
