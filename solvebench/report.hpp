// Statistics, answer checks and result printing for the end-to-end solve
// benchmark. Everything here is pure bookkeeping over numbers the benchmark
// measured, so the self-tests (selftest.cpp) can pin it down exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "svc/wire.hpp"

namespace solvebench {

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> v);

/// The highest whole percentile that leaves at least `beyond` samples above
/// it, and its nearest-rank value. Below 2 * beyond samples no percentile
/// from the median up has that many beyond; the tail is then the median
/// (`pct` 50), so it never reads below the median.
struct Tail {
  double value = 0.0;
  int pct = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Median and tail of one timing, with its sample count.
struct Summary {
  double median = 0.0;
  Tail tail;
  std::size_t count = 0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& v);

/// Open-loop accounting: a job is timed from when it was due, not from
/// when the generator got round to sending it, so a stall that delays
/// later sends is charged to every job it delays.
struct Arrival {
  std::int64_t due_ns = 0;  // scheduled arrival
  std::int64_t sent_ns = 0; // submit actually issued
  std::int64_t done_ns = 0; // result received
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
  [[nodiscard]] double lag_ms() const {
    return static_cast<double>(sent_ns - due_ns) * 1e-6;
  }
};

/// Jobs attempted and failed; a job fails when it is rejected, ends in
/// any state but DONE, or its answer does not check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// What a correct CG job reports: converged within `tol` in exactly the
/// iteration count the reference solve took.
struct CgReference {
  double tol = 0.0;
  int iterations = 0;
};

/// Relative tolerance on eigenvalues against the libcsr reference, scaled
/// by the largest reference magnitude. Versions, and repeated runs of one
/// version, differ only in summation order; a fixed-iteration LOBPCG does
/// not converge its highest Ritz values, which amplifies that to ~3e-8 on
/// most twitter7 analogues and to 1.1e-6 on some seeds, where a Ritz value
/// sits in a tight cluster. A wrong kernel moves them by far more.
inline constexpr double kEigRelTol = 1e-5;

/// Empty when a job's summary matches the reference, else the reason.
[[nodiscard]] std::string check_cg(const sts::svc::wire::Json& summary,
                                   const CgReference& ref);
/// LOBPCG: eigenvalues and the fixed iteration count.
[[nodiscard]] std::string check_lobpcg(const sts::svc::wire::Json& summary,
                                       const std::vector<double>& ref,
                                       int iterations);
/// Lanczos: the two Ritz extremes the service reports against the
/// reference's lowest and highest Ritz values.
[[nodiscard]] std::string check_lanczos(const sts::svc::wire::Json& summary,
                                        const std::vector<double>& ref_ritz);

/// One reported number: a measured value with its unit and sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t count = 0;
};

/// Collects metrics in report order and renders them.
class Report {
public:
  void add(std::string name, double value, std::string unit,
           std::size_t count);
  /// Adds the summary's median as `name` and its tail as `tail_name`.
  void add_summary(const std::string& name, const std::string& tail_name,
                   const Summary& s, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// One human-readable line per metric.
  void print_table(std::ostream& os) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} where
  /// metrics holds exactly `names`. Throws std::logic_error when one was
  /// not measured or is not a finite number.
  [[nodiscard]] std::string result_json(const std::vector<std::string>& names,
                                        bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

private:
  std::vector<Metric> rows_;
};

} // namespace solvebench
