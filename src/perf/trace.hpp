// Flow-graph export (paper Figs. 10 & 13).
//
// A TaskEvent is one executed task: which worker ran it, when it started
// and finished, and its kernel kind. Real runs read them from the
// task-event log (obs::task_events()), the simulator produces its own. The
// flow graph the paper plots is the per-kernel count of running tasks over
// time; render_flow_graph() produces that series (CSV for plotting plus an
// ASCII rendering for bench stdout).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/tdg.hpp"

namespace sts::perf {

struct TaskEvent {
  std::int32_t task_id = -1;
  graph::KernelKind kind = graph::KernelKind::kOther;
  std::int32_t worker = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One row of a flow graph: time bucket -> number of tasks of each kernel
/// kind executing during that bucket.
struct FlowGraph {
  std::int64_t bucket_ns = 0;
  std::vector<graph::KernelKind> kinds; // columns, in first-seen order
  std::vector<std::vector<double>> counts; // [bucket][kind] avg concurrency
};

/// Builds a flow graph with `buckets` time buckets covering the trace.
[[nodiscard]] FlowGraph build_flow_graph(const std::vector<TaskEvent>& events,
                                         int buckets);

/// Writes `fg` as CSV (time_ms, one column per kernel).
void write_flow_graph_csv(std::ostream& os, const FlowGraph& fg);

/// Coarse terminal rendering: one row per kernel, intensity ramp over time.
void render_flow_graph(std::ostream& os, const FlowGraph& fg, int width = 72);

} // namespace sts::perf
