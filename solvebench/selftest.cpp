// Self-tests of the benchmark's own statistics and answer checks. Run by
// `python3 solvebench/run.py --selftest` and registered with CTest in the
// benchmark's build.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

using namespace solvebench;
using sts::svc::wire::Json;

void median_and_tail() {
  EXPECT(median({}) == 0.0);
  EXPECT(median({3.0}) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0}) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);

  // 100 samples 1..100: p90 has exactly 10 above it; p91 would leave 9.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Tail t = tail(v);
  EXPECT(t.pct == 90);
  EXPECT(t.value == 90.0);

  // 25 samples: ceil(p * 25 / 100) <= 15 holds up to p = 60.
  v.clear();
  for (int i = 1; i <= 25; ++i) v.push_back(i);
  t = tail(v);
  EXPECT(t.pct == 60);
  EXPECT(t.value == 15.0);

  // Too few samples for ten beyond the median: the tail is the median.
  v.clear();
  for (int i = 15; i >= 1; --i) v.push_back(i);
  t = tail(v);
  EXPECT(t.pct == 50);
  EXPECT(t.value == 8.0);
  t = tail({1.0, 2.0, 3.0});
  EXPECT(t.pct == 50);
  EXPECT(t.value == 2.0);
  // 20 samples: p50 leaves exactly 10 beyond; the tail is the median.
  v.clear();
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  t = tail(v);
  EXPECT(t.pct == 50);
  EXPECT(t.value == 10.5);
  EXPECT(tail({}).value == 0.0);

  const Summary s = summarize({5.0, 1.0, 3.0});
  EXPECT(s.count == 3);
  EXPECT(s.median == 3.0);
}

void open_loop_latency() {
  // Due at 1.000 s, sent 30 ms late, answered at 1.250 s: the job is
  // charged 250 ms, of which the generator's lag is 30 ms.
  Arrival a;
  a.due_ns = 1'000'000'000;
  a.sent_ns = 1'030'000'000;
  a.done_ns = 1'250'000'000;
  EXPECT(near(a.latency_ms(), 250.0));
  EXPECT(near(a.lag_ms(), 30.0));
}

void failed_share_counting() {
  Tally t;
  EXPECT(t.failed_share() == 0.0);
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  EXPECT(t.attempted == 4);
  EXPECT(t.failed == 1);
  EXPECT(near(t.failed_share(), 0.25));
}

Json eig_summary(const std::vector<double>& ev, int iterations) {
  Json s = Json::object();
  s.set("iterations", iterations);
  Json arr = Json::array();
  for (const double e : ev) arr.push(e);
  s.set("eigenvalues", std::move(arr));
  return s;
}

void answer_checker() {
  const std::vector<double> ref = {-7.25, -7.0, -6.5};
  EXPECT(check_lobpcg(eig_summary(ref, 8), ref, 8).empty());
  // Rounding-level differences pass.
  EXPECT(check_lobpcg(eig_summary({-7.25 + 1e-9, -7.0, -6.5}, 8), ref, 8)
             .empty());
  // A perturbed eigenvalue is rejected, as is a changed iteration count.
  EXPECT(!check_lobpcg(eig_summary({-7.25, -7.0 + 1e-4, -6.5}, 8), ref, 8)
              .empty());
  EXPECT(!check_lobpcg(eig_summary(ref, 7), ref, 8).empty());

  Json lz = Json::object();
  Json ext = Json::array();
  ext.push(-7.25);
  ext.push(-6.5);
  lz.set("ritz_extremes", std::move(ext));
  EXPECT(check_lanczos(lz, ref).empty());
  EXPECT(!check_lanczos(lz, {-7.25, -6.4}).empty());

  const CgReference cg{1e-8, 41};
  Json ok = Json::object();
  ok.set("converged", true);
  ok.set("relative_residual", 9e-9);
  ok.set("iterations", 41);
  EXPECT(check_cg(ok, cg).empty());
  Json unconverged = Json::object();
  unconverged.set("converged", false);
  unconverged.set("relative_residual", 3e-5);
  unconverged.set("iterations", 500);
  EXPECT(!check_cg(unconverged, cg).empty());
  Json loose = Json::object();
  loose.set("converged", true);
  loose.set("relative_residual", 2e-8);
  loose.set("iterations", 41);
  EXPECT(!check_cg(loose, cg).empty());
  Json other_count = Json::object();
  other_count.set("converged", true);
  other_count.set("relative_residual", 9e-9);
  other_count.set("iterations", 40);
  EXPECT(!check_cg(other_count, cg).empty());
  EXPECT(!check_cg(Json(), cg).empty());
}

void self_time() {
  Spans s;
  const int root = s.add("job", 0, 100'000'000, -1, 1);
  s.add("a", 10'000'000, 40'000'000, root, 1);
  s.add("b", 30'000'000, 60'000'000, root, 1); // overlaps a
  s.add("c", 80'000'000, 90'000'000, root, 1);
  const int d = s.add("d", 12'000'000, 20'000'000, 1, 1); // grandchild
  EXPECT(near(s.self_ms(root), 100.0 - 50.0 - 10.0));
  EXPECT(near(s.self_ms(1), 30.0 - 8.0));
  EXPECT(near(s.self_ms(d), 8.0));
}

void result_line() {
  Report r;
  r.add("job_ms.flux", 12.5, "ms", 30);
  r.add("setup_s", 0.8127, "s", 3);
  const std::string line =
      r.result_json({"setup_s", "job_ms.flux"}, true, 90, 0);
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 90, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}, "
         "\"job_ms.flux\": {\"value\": 12.5, \"unit\": \"ms\"}}}");
  bool threw = false;
  try {
    (void)r.result_json({"missing"}, true, 1, 0);
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

} // namespace

int main() {
  median_and_tail();
  open_loop_latency();
  failed_share_counting();
  answer_checker();
  self_time();
  result_line();
  if (failures == 0) std::puts("solvebench selftest: all checks passed");
  return failures == 0 ? 0 : 1;
}
