// Workload definitions shared by the service path (main.cpp) and
// the traced replay (traced.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "solvers/common.hpp"
#include "sparse/csr.hpp"
#include "svc/run_spec.hpp"
#include "svc/service.hpp"

namespace solvebench {

using sts::solver::Version;

/// Short version names used in metric names ("job_ms.flux").
[[nodiscard]] const char* version_name(Version v);

/// One generated matrix as the service sees it.
struct Input {
  std::string name;
  std::string path;         // Matrix Market file handed to the service
  sts::sparse::Csr csr;     // the same file loaded through RunSpec::load
  bool spd = false;         // CG-able (IC(0) runs on it directly)
};

/// One kind of job a workload submits, with the answer it must give.
struct JobKind {
  std::size_t input = 0;    // index into Workload::inputs
  sts::svc::RunSpec spec;   // submitted verbatim (matrix_path set)
  // Reference answers, filled at setup from direct libcsr solves.
  CgReference cg;
  std::vector<double> eigs; // LOBPCG eigenvalues or Lanczos Ritz values
};

/// Everything a run needs: inputs, job kinds and the service shape.
struct Workload {
  std::string name;
  std::vector<Input> inputs;
  std::vector<Version> versions;
  /// Closed loops: one entry per (input, version), version-major so that
  /// kinds [v * inputs.size(), (v + 1) * inputs.size()) form version v's
  /// round. svc-mix: warm-up kinds (one per class and version).
  std::vector<JobKind> kinds;
  sts::svc::Service::Config service;
  bool open_loop = false;

  // svc-mix only: the timed jobs in arrival order, each due `due_s[i]`
  // seconds after the timed phase starts.
  std::vector<JobKind> open_kinds;
  std::vector<double> due_s;
};

/// Workers each job runs on: half the host's CPUs (Service::Config::threads
/// for the closed loops, each slot's partition on svc-mix).
[[nodiscard]] unsigned job_threads();

/// Empty when the finished job's summary is the right answer.
[[nodiscard]] std::string check_answer(const JobKind& kind,
                                       const sts::svc::wire::Json& info);

/// Direct libcsr solve of `kind` on the loaded input with `threads`
/// workers (the service's per-job count), filling its
/// reference. For CG also recomputes ||b - Ax|| / ||b|| with a plain CSR
/// loop and throws when the solver's own answer misses the tolerance.
void compute_reference(JobKind& kind, const Input& input, unsigned threads);

/// Builds the named workload from `seed` under `work_dir` (inputs written,
/// loaded and referenced). Throws std::invalid_argument for unknown names.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, double seconds,
                                     const std::string& work_dir);

/// Per-layer ledger of the traced run (traced.cpp): replays the jobs'
/// stages through the layers' public functions, adds the per-layer rows
/// to `report` and writes the span file to `trace_path`.
void run_traced(const Workload& w, Report& report,
                const std::string& trace_path);

} // namespace solvebench
