#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace solvebench {

int Spans::open(std::string name, int job) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const int id = add(std::move(name), sts::support::now_ns(), 0, parent, job);
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of order: " + at(id).name);
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = sts::support::now_ns();
}

int Spans::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
               int parent, int job) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

double Spans::self_ms(int id) const {
  const Span& s = at(id);
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    kids.emplace_back(std::max(c.start_ns, s.start_ns),
                      std::min(c.end_ns, s.end_ns));
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = s.start_ns;
  for (const auto& [a, b] : kids) {
    const std::int64_t lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
}

void Spans::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  s.job, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job
        << ",\"self_ms\":" << self_ms(static_cast<int>(i)) << "}}";
  }
  out << "\n]}\n";
}

} // namespace solvebench
