#include "perf/trace.hpp"

#include <algorithm>
#include <ostream>

#include "support/error.hpp"
#include "support/escape.hpp"

namespace sts::perf {

FlowGraph build_flow_graph(const std::vector<TaskEvent>& events, int buckets) {
  STS_EXPECTS(buckets > 0);
  FlowGraph fg;
  if (events.empty()) return fg;
  std::int64_t t_end = 0;
  for (const TaskEvent& e : events) t_end = std::max(t_end, e.end_ns);
  fg.bucket_ns = std::max<std::int64_t>(1, (t_end + buckets - 1) / buckets);

  auto kind_column = [&](graph::KernelKind k) -> std::size_t {
    for (std::size_t i = 0; i < fg.kinds.size(); ++i) {
      if (fg.kinds[i] == k) return i;
    }
    fg.kinds.push_back(k);
    for (auto& row : fg.counts) row.push_back(0.0);
    return fg.kinds.size() - 1;
  };

  fg.counts.assign(static_cast<std::size_t>(buckets), {});
  for (const TaskEvent& e : events) {
    const std::size_t col = kind_column(e.kind);
    const std::int64_t b0 = e.start_ns / fg.bucket_ns;
    const std::int64_t b1 = std::min<std::int64_t>(
        buckets - 1, std::max(b0, (e.end_ns - 1) / fg.bucket_ns));
    for (std::int64_t b = b0; b <= b1; ++b) {
      // Fraction of the bucket the task occupies (average concurrency).
      const std::int64_t bucket_start = b * fg.bucket_ns;
      const std::int64_t overlap =
          std::min(e.end_ns, bucket_start + fg.bucket_ns) -
          std::max(e.start_ns, bucket_start);
      auto& row = fg.counts[static_cast<std::size_t>(b)];
      if (row.size() < fg.kinds.size()) row.resize(fg.kinds.size(), 0.0);
      row[col] += static_cast<double>(std::max<std::int64_t>(0, overlap)) /
                  static_cast<double>(fg.bucket_ns);
    }
  }
  for (auto& row : fg.counts) row.resize(fg.kinds.size(), 0.0);
  return fg;
}

void write_flow_graph_csv(std::ostream& os, const FlowGraph& fg) {
  os << "time_ms";
  for (graph::KernelKind k : fg.kinds) {
    os << ',' << support::csv_field(graph::to_string(k));
  }
  os << '\n';
  for (std::size_t b = 0; b < fg.counts.size(); ++b) {
    os << (static_cast<double>(fg.bucket_ns) * static_cast<double>(b) / 1e6);
    for (double c : fg.counts[b]) os << ',' << c;
    os << '\n';
  }
}

void render_flow_graph(std::ostream& os, const FlowGraph& fg, int width) {
  if (fg.kinds.empty()) {
    os << "(empty trace)\n";
    return;
  }
  static constexpr char kRamp[] = " .:-=+*#%@";
  double peak = 1e-12;
  for (const auto& row : fg.counts) {
    for (double c : row) peak = std::max(peak, c);
  }
  const int buckets = static_cast<int>(fg.counts.size());
  for (std::size_t col = 0; col < fg.kinds.size(); ++col) {
    os << graph::to_string(fg.kinds[col]);
    for (std::size_t pad = std::char_traits<char>::length(
             graph::to_string(fg.kinds[col]));
         pad < 8; ++pad) {
      os << ' ';
    }
    os << '|';
    for (int x = 0; x < width; ++x) {
      // Down-sample buckets to terminal columns.
      const int b0 = x * buckets / width;
      const int b1 = std::max(b0 + 1, (x + 1) * buckets / width);
      double v = 0.0;
      for (int b = b0; b < b1; ++b) {
        v = std::max(v, fg.counts[static_cast<std::size_t>(b)][col]);
      }
      const int level = std::min<int>(
          9, static_cast<int>(v / peak * 9.0 + 0.5));
      os << kRamp[level];
    }
    os << "|\n";
  }
  os << "(time -> right; intensity = concurrent tasks, peak="
     << peak << ")\n";
}

} // namespace sts::perf
