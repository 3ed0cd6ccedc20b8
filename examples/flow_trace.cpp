// Execution-flow tracing (the instrument behind the paper's Figs. 10/13):
// runs task-parallel Lanczos under the flux runtime with tracing on, reads
// its task events back from the event log (obs::task_events()), renders
// the flow graph in the terminal, writes it as CSV, and dumps the
// Listing-1 task graph (paper Fig. 3) as Graphviz DOT.
//
//   ./flow_trace [out-prefix]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "ds/program.hpp"
#include "obs/obs.hpp"
#include "perf/trace.hpp"
#include "solvers/lanczos.hpp"
#include "sparse/generators.hpp"

int main(int argc, char** argv) {
  using namespace sts;
  const std::string prefix = argc > 1 ? argv[1] : "flow_trace";

  sparse::Coo coo = sparse::gen_fem3d(14, 14, 14, 1, 5);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  const la::index_t block = 256;
  sparse::Csb csb = sparse::Csb::from_coo(coo, block);

  solver::SolverOptions options;
  options.block_size = block;
  options.threads = 2;
  obs::enable_tracing(""); // record in memory; nothing written at exit
  (void)solver::lanczos(csr, csb, 3, solver::Version::kFlux, options);
  const auto events = obs::task_events();
  obs::disable();
  std::printf("recorded %zu task events over 3 Lanczos iterations\n\n",
              events.size());
  const perf::FlowGraph fg = perf::build_flow_graph(events, 120);
  perf::render_flow_graph(std::cout, fg);

  const std::string csv_path = prefix + "_flow.csv";
  std::ofstream csv(csv_path);
  perf::write_flow_graph_csv(csv, fg);
  std::printf("\nflow graph CSV written to %s\n", csv_path.c_str());

  // Fig. 3 artifact: the task graph of Listing 1 (SpMM + XY + XTY) for a
  // 3-partition toy problem.
  sparse::Coo toy_coo = sparse::gen_banded_random(12, 4, 1.0, 3);
  sparse::Csb toy = sparse::Csb::from_coo(toy_coo, 4);
  la::DenseMatrix x(12, 2), y(12, 2), q(12, 2), z(2, 2), p(2, 2);
  ds::Program prog(&toy, {});
  const ds::DataId xid = prog.vec("X", &x);
  const ds::DataId yid = prog.vec("Y", &y);
  const ds::DataId qid = prog.vec("Q", &q);
  const ds::DataId zid = prog.small("Z", &z);
  const ds::DataId pid = prog.small("P", &p);
  prog.spmm(xid, yid);      // Y = A * X
  prog.xy(yid, zid, qid);   // Q = Y * Z
  prog.xty(yid, qid, pid);  // P = Y' * Q
  const graph::Tdg g = prog.build();

  const std::string dot_path = prefix + "_fig3.dot";
  std::ofstream dot(dot_path);
  dot << g.to_dot();
  std::printf("Listing-1 task graph (%zu tasks, critical path %lld) written "
              "to %s\n",
              g.task_count(),
              static_cast<long long>(g.critical_path_tasks()),
              dot_path.c_str());
  return 0;
}
