// A task graph captured once and replayed with counters.
//
// The flux lowering of Lanczos and LOBPCG issues the same tasks with the
// same dependencies every iteration. Threading each of them through
// futures (dataflow) pays for a shared state, a continuation list and a
// join per task, every iteration. TaskGraph records the tasks once — body,
// trace label, domain hint, successor list and join count per node — and
// each run() only resets the join counters: a finished node decrements its
// successors and submits the ones that reach zero. This is the flux
// analogue of DeepSparse's build-once TDG and of rgt's dynamic tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "flux/scheduler.hpp"
#include "graph/tdg.hpp"

namespace sts::flux {

class TaskGraph {
public:
  using NodeId = std::uint32_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Appends a node that runs `body` once every node in `preds` (earlier
  /// nodes; duplicates are dropped) has finished. `kind` and `id` label its
  /// task event; `domain` is its scheduling hint (-1: anywhere). Returns
  /// the node's index.
  NodeId add(std::function<void()> body, graph::KernelKind kind,
             std::int32_t id, int domain, std::vector<NodeId> preds);

  /// Runs every node once on the workers of `sched` and returns when all
  /// have finished; the calling thread runs none of them. It must not be a
  /// worker of `sched`, and no other work may share the pool meanwhile: the
  /// wait is the pool's quiescence. The last node's completion drains the
  /// pool and wakes the caller. A node that fails, or that cancellation
  /// drops, never releases its successors, but the pool still drains, so
  /// run() rethrows the first failure instead of hanging and leaves the
  /// pool reusable.
  void run(Scheduler& sched);

private:
  struct Node {
    std::function<void()> body;
    graph::KernelKind kind = graph::KernelKind::kOther;
    std::int32_t id = -1;
    int domain = -1;
    std::uint32_t joins = 0; // predecessor count
    std::vector<NodeId> successors;
  };

  void submit(NodeId n);
  void execute(NodeId n);

  std::vector<Node> nodes_;
  std::vector<NodeId> roots_; // nodes without predecessors
  /// Joins still outstanding per node during run().
  std::vector<std::atomic<std::uint32_t>> pending_;
  Scheduler* sched_ = nullptr; // the pool of the running run()
};

} // namespace sts::flux
