// DeepSparse Task Executor.
//
// Runs an explicit graph::Tdg. The OpenMP mode mirrors the paper: the
// master thread walks the depth-first topological order and spawns every
// task as an OpenMP task; readiness is tracked with atomic predecessor
// counters (a task is spawned the moment its last predecessor finishes),
// and OpenMP's scheduler executes them. A serial mode provides the
// reference semantics property tests compare against.
#pragma once

#include "graph/tdg.hpp"

namespace sts::ds {

enum class ExecMode {
  kSerial,   // topological order on the calling thread
  kOmpTasks, // OpenMP task spawning (DeepSparse's execution model)
};

struct ExecOptions {
  ExecMode mode = ExecMode::kOmpTasks;
};

/// Executes every task in `g` respecting dependencies. Blocks until done.
/// Every task runs through obs::run_task under the calling thread's job
/// tag, whichever OpenMP thread runs it.
///
/// Failure contract: an exception escaping a task body is wrapped in a
/// support::TaskError naming the task (e.g. "spmv[3,2]"). In kOmpTasks mode
/// the first failure is latched, the failed task's successors are never
/// spawned (their readiness counters stay poisoned), queued-but-unstarted
/// tasks skip their bodies, and the single latched TaskError is rethrown
/// from execute() after the region drains. In kSerial mode the TaskError
/// propagates directly and later tasks never run.
void execute(const graph::Tdg& g, const ExecOptions& options);

} // namespace sts::ds
