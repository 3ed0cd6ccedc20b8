#include "flux/task_graph.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace sts::flux {

TaskGraph::NodeId TaskGraph::add(std::function<void()> body,
                                 graph::KernelKind kind, std::int32_t id,
                                 int domain, std::vector<NodeId> preds) {
  const auto n = static_cast<NodeId>(nodes_.size());
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  for (const NodeId p : preds) {
    STS_EXPECTS(p < n);
    nodes_[p].successors.push_back(n);
  }
  if (preds.empty()) roots_.push_back(n);
  nodes_.push_back({std::move(body), kind, id, domain,
                    static_cast<std::uint32_t>(preds.size()), {}});
  return n;
}

void TaskGraph::run(Scheduler& sched) {
  if (pending_.size() != nodes_.size()) {
    pending_ = std::vector<std::atomic<std::uint32_t>>(nodes_.size());
  }
  // Relaxed is enough: submitting a root publishes these stores to the
  // worker that runs it, and every other node is reached from a root.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    pending_[i].store(nodes_[i].joins, std::memory_order_relaxed);
  }
  sched_ = &sched;
  for (const NodeId r : roots_) submit(r);
  sched.wait_for_quiescence();
}

void TaskGraph::submit(NodeId n) {
  // A worker releasing a hint-less successor pushes it onto its own ring.
  sched_->submit([this, n] { execute(n); }, nodes_[n].domain);
}

void TaskGraph::execute(NodeId n) {
  const Node& node = nodes_[n];
  obs::run_task("flux", node.kind, node.id, sched_->current_worker(),
                node.body);
  // acq_rel: the last predecessor to finish sees every other one's writes
  // before it submits the successor.
  for (const NodeId s : node.successors) {
    if (pending_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) submit(s);
  }
}

} // namespace sts::flux
