// Unified telemetry layer: activation, the task-event log, and the
// instrumentation primitives used by the runtimes and solvers.
//
// Activation is environment- or CLI-driven:
//
//   STS_TRACE=<file.json>        buffer a Chrome trace, write it at exit
//   STS_METRICS=stderr|<f.csv>   dump the metrics registry at exit
//   STS_PROF=<file.folded>       sample workers, write folded stacks at exit
//   stsolve --trace=f --metrics=f --prof=f   same, per invocation
//
// and near-zero-cost when off: every instrumentation site gates on one
// relaxed atomic load (plus a thread-local job tag) before touching a clock
// or allocating.
//
// Every task event, span and instant is recorded once, in the task-event
// log (obs/trace_sink.hpp), and tagged with the job of the thread that
// emitted it. The process trace, per-job traces and flow graphs
// (task_events()) all read that one log. A thread's events are recorded
// while process tracing is on, or while the thread holds a job tag and job
// capture is on.
//
// All task execution — flux tasks, ds OpenMP tasks, rgt region tasks, the
// dataflow SpTRSV rows and BSP parallel-for regions — runs through
// run_task(), which marks the profiler slot, times the body and publishes
// one event to the log and to the per-runtime/per-kernel latency
// histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/tdg.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "perf/trace.hpp"
#include "support/timer.hpp"

namespace sts::obs {

// -- Activation ------------------------------------------------------------

[[nodiscard]] bool tracing_enabled() noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;
/// True when either sink wants per-task timestamps (gate for clock reads).
[[nodiscard]] bool task_timing_enabled() noexcept;

/// Starts recording every thread's events; `path` is where flush() writes
/// the JSON (empty = buffer only, for tests that export via
/// write_trace_json() or read task_events()). Clears the event log,
/// per-job slices included.
void enable_tracing(const std::string& path);

/// Starts metrics collection; `dest` is where flush() dumps the registry:
/// "stderr" for the text form, anything else a CSV path (empty = collect
/// only).
void enable_metrics(const std::string& dest);

/// Starts the sampling profiler (obs/profiler.hpp); `path` is where flush()
/// writes the folded stacks (empty = sample only, export via
/// prof::write_folded()).
void enable_profiling(const std::string& path);

/// Stops both collectors (buffers and registry contents are kept).
void disable() noexcept;

/// Writes the configured sinks (trace JSON to its path, metrics to stderr
/// or CSV), then disables collection. Registered via atexit on first
/// activation, so an early exit — including a fault-injected failure —
/// still produces the dumps; an explicit earlier call makes the atexit one
/// a no-op.
void flush() noexcept;

/// Export without disabling (test/inspection path).
void write_trace_json(std::ostream& os);
/// The logged task events, sorted by start and rebased to 0: the input of
/// perf::build_flow_graph (paper Figs. 10/13).
[[nodiscard]] std::vector<perf::TaskEvent> task_events();
void write_metrics_csv(std::ostream& os);

// -- Metrics handles -------------------------------------------------------
// Lookup is mutex-protected; call sites cache the returned reference in a
// function-local static. Counters/gauges/histograms accumulate for the
// process lifetime (no reset — cached references must stay valid).

Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

// -- Job tags and per-job traces -------------------------------------------
// stsd's live-trace path. Each thread carries a job tag (0 = none). A
// service slot tags itself around a job; a flux::Scheduler hands the tag of
// the thread that built it to its workers, and the OpenMP paths
// (RegionTimer, ds::execute) hand the master's tag to the team. While job
// capture is on, every event a tagged thread emits is logged under its
// job, whatever else runs in other slots.

[[nodiscard]] std::uint64_t current_job() noexcept;
void set_current_job(std::uint64_t job) noexcept;

/// Byte budget for job-tagged events (oldest finished job evicted first);
/// 0 disables capture, and begin_job_trace then tags nothing.
void set_job_trace_capacity(std::size_t bytes) noexcept;

/// Records `job` (> 0) and tags the calling thread with it. `trace_id` is
/// the client-supplied correlation id recorded in the exported JSON.
void begin_job_trace(std::uint64_t job, const std::string& trace_id) noexcept;

/// Marks the calling thread's job finished and clears its tag.
void end_job_trace() noexcept;

/// True while the calling thread holds a job tag and capture is on (gate
/// for clock reads, like task_timing_enabled()).
[[nodiscard]] bool job_trace_active() noexcept;

/// Chrome trace JSON for one job; false when nothing is logged for it
/// (never captured, or evicted by the byte budget).
bool write_job_trace_json(std::uint64_t job, std::ostream& os);

/// Drops every job's events and records. A fresh stsd service calls this
/// so a previous instance's slices (whose job-id space it is about to
/// reuse) cannot bleed into its own exports.
void clear_job_traces() noexcept;

// -- Event stream ----------------------------------------------------------

/// Publishes one executed task: logs it on the calling thread's lane when
/// its events are recorded, and feeds `<runtime>.task_ns.<kernel>` when
/// metrics are on. `runtime` must be a literal. Never throws.
void publish_task(const char* runtime, const perf::TaskEvent& event) noexcept;

/// Runs one task body: marks the profiler slot and, when task timing is on,
/// times the body and publishes its event (worker -1: a thread outside the
/// pool, such as the host helping inside future::get). Returns the body's
/// duration in ns, 0 when untimed.
template <typename Fn>
std::int64_t run_task(const char* runtime, graph::KernelKind kind,
                      std::int32_t task_id, std::int32_t worker, Fn&& body) {
  const prof::TaskMark mark(runtime, kind);
  if (!task_timing_enabled()) {
    body();
    return 0;
  }
  const std::int64_t start = support::now_ns();
  body();
  const std::int64_t end = support::now_ns();
  publish_task(runtime, {task_id, kind, worker, start, end});
  return end - start;
}

/// Emits a span on the calling thread's track when its events are recorded.
/// `args` must be a pre-rendered JSON object ("{...}") or empty. Never
/// throws.
void span(const std::string& name, const std::string& cat,
          std::int64_t start_ns, std::int64_t end_ns,
          const std::string& args = {}) noexcept;

/// Emits an instant event (fault fired, task cancelled, watchdog tripped)
/// on the calling thread's track when its events are recorded. Never
/// throws.
void instant(const std::string& name, const std::string& cat,
             const std::string& args = {}) noexcept;

// -- Structured helpers ----------------------------------------------------

/// Times the per-thread portions of one BSP parallel region: each thread
/// runs its share through run_task (one event per participating thread,
/// tagged with the job of the thread that built the timer), and the
/// destructor feeds the barrier imbalance max(thread time) - min(thread
/// time) into `<runtime>.imbalance_ns.<kernel>`. Intended use:
///
///   RegionTimer region("bsp", kind, omp_get_max_threads());
///   #pragma omp parallel
///   region.run(omp_get_thread_num(), [&] {
///   #pragma omp for nowait
///     ...
///   });  // implicit barrier; destructor publishes the imbalance
///
/// When telemetry is off the constructor is an atomic and a thread-local
/// load, and run() is a branch around the body.
class RegionTimer {
public:
  RegionTimer(const char* runtime, graph::KernelKind kind, int threads);
  ~RegionTimer();
  RegionTimer(const RegionTimer&) = delete;
  RegionTimer& operator=(const RegionTimer&) = delete;

  template <typename Fn>
  void run(int tid, Fn&& body) {
    set_current_job(job_);
    const std::int64_t ns = run_task(runtime_, kind_, -1, tid, body);
    if (tid >= 0 && static_cast<std::size_t>(tid) < busy_ns_.size()) {
      busy_ns_[static_cast<std::size_t>(tid)] = ns;
    }
  }

private:
  const char* runtime_;
  graph::KernelKind kind_;
  std::uint64_t job_;
  std::vector<std::int64_t> busy_ns_; // -1 = did not run; empty = no metrics
};

/// Scopes one solver iteration: emits a `iter[n]` span (category =
/// `label`), feeds `<label>.iter_ns`, and bumps `<label>.iterations`.
/// Up to four named values (beta, residual, ...) attach as span args, so
/// the per-iteration convergence history is readable off the trace. When
/// the kernel permits perf_event counters (see obs/profiler.hpp), the
/// iteration's cycles / instructions / LLC misses attach as span args and
/// feed `<label>.iter_{cycles,instructions,cache_misses}` histograms — the
/// paper's cache-efficiency lens on live runs.
class IterScope {
public:
  IterScope(const char* label, int iteration) noexcept;
  ~IterScope();
  IterScope(const IterScope&) = delete;
  IterScope& operator=(const IterScope&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return start_ns_ != 0; }
  void metric(const char* name, double value) noexcept;

private:
  const char* label_;
  int iteration_;
  std::int64_t start_ns_ = 0;
  int values_ = 0;
  const char* names_[4] = {};
  double data_[4] = {};
  prof::HwCounts hw_begin_;
};

} // namespace sts::obs
