#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace solvebench {

using sts::svc::wire::Json;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank of percentile p; it must leave n - rank >= beyond samples
  // above it. Take the largest whole p that does, but never less than the
  // median.
  const auto rank = [n](int p) {
    return static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
  };
  for (int p = 99; p > 50; --p) {
    if (n - rank(p) >= beyond) {
      t.pct = p;
      t.value = v[rank(p) - 1];
      return t;
    }
  }
  t.pct = 50;
  t.value = median(std::move(v));
  return t;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.median = median(v);
  s.tail = tail(v);
  s.count = v.size();
  return s;
}

std::string check_cg(const Json& summary, const CgReference& ref) {
  if (!summary.is_object()) return "no summary";
  if (!summary.bool_or("converged", false)) return "cg did not converge";
  const double res = summary.number_or("relative_residual", 1.0);
  if (!(res <= ref.tol)) {
    return "cg residual " + std::to_string(res) + " above tol " +
           std::to_string(ref.tol);
  }
  const auto it = summary.int_or("iterations", -1);
  if (it != ref.iterations) {
    return "cg took " + std::to_string(it) + " iterations, reference " +
           std::to_string(ref.iterations);
  }
  return {};
}

namespace {

/// Empty when `got` matches `ref` within kEigRelTol of the largest |ref|.
std::string check_eigs(const std::vector<double>& got,
                       const std::vector<double>& ref) {
  const double rel_tol = kEigRelTol;
  if (got.size() != ref.size() || ref.empty()) {
    return "got " + std::to_string(got.size()) + " eigenvalues, reference " +
           std::to_string(ref.size());
  }
  double scale = 0.0;
  for (const double r : ref) scale = std::max(scale, std::abs(r));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!(std::abs(got[i] - ref[i]) <= rel_tol * scale)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "eigenvalue %zu is %.15g, reference %.15g (rel tol %g)", i,
                    got[i], ref[i], rel_tol);
      return buf;
    }
  }
  return {};
}

std::vector<double> numbers(const Json& arr) {
  std::vector<double> out;
  if (!arr.is_array()) return out;
  for (const Json& x : arr.items()) {
    out.push_back(x.is_number() ? x.as_number() : std::nan(""));
  }
  return out;
}
} // namespace

std::string check_lobpcg(const Json& summary, const std::vector<double>& ref,
                         int iterations) {
  if (!summary.is_object()) return "no summary";
  const auto it = summary.int_or("iterations", -1);
  if (it != iterations) {
    return "lobpcg ran " + std::to_string(it) + " iterations, expected " +
           std::to_string(iterations);
  }
  return check_eigs(numbers(summary.get("eigenvalues")), ref);
}

std::string check_lanczos(const Json& summary,
                          const std::vector<double>& ref_ritz) {
  if (!summary.is_object()) return "no summary";
  if (ref_ritz.empty()) return "empty reference";
  return check_eigs(numbers(summary.get("ritz_extremes")),
                    {ref_ritz.front(), ref_ritz.back()});
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t count) {
  rows_.push_back({std::move(name), value, std::move(unit), count});
}

void Report::add_summary(const std::string& name, const std::string& tail_name,
                         const Summary& s, const std::string& unit) {
  add(name, s.median, unit, s.count);
  add(tail_name, s.tail.value, unit, s.count);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : rows_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print_table(std::ostream& os) const {
  for (const Metric& m : rows_) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %-36s %14.6g %-6s n=%zu\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.count);
    os << buf;
  }
}

std::string Report::result_json(const std::vector<std::string>& names,
                                bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = find(name);
    if (m == nullptr) throw std::logic_error("metric not measured: " + name);
    if (!std::isfinite(m->value)) {
      throw std::logic_error("metric not finite: " + name);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m->value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m->unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

} // namespace solvebench
