// In-memory span recorder for the traced run: each span has a name, start,
// end, parent and the id of the job it belongs to. Spans are written out
// once, as Chrome-trace JSON, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/timer.hpp"

namespace solvebench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1; // index of the enclosing span, -1 for a root
  int job = 0;     // shared by every span of one job
  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class Spans {
public:
  /// Opens a span under the innermost open one.
  int open(std::string name, int job);
  void close(int id);
  /// Records an already measured interval as a child of `parent`.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int job);

  /// Runs `f` inside a span and returns its result.
  template <class F>
  auto time(std::string name, int job, F&& f) {
    const int id = open(std::move(name), job);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(id);
    } else {
      auto r = f();
      close(id);
      return r;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Duration minus the union of the direct children's intervals.
  [[nodiscard]] double self_ms(int id) const;

  /// Chrome trace ("traceEvents" of complete events, one thread lane per
  /// job), with parent and self time in each event's args.
  void write_chrome(const std::string& path) const;

private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

} // namespace solvebench
