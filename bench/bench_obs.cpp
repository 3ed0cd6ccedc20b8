// Observability overhead microbenchmarks, exported to BENCH_obs.json (see
// bench_json.hpp). The obs layer's contract is "near-zero cost when off":
// every instrumentation site gates on one relaxed atomic load. These
// benchmarks put numbers on that claim, and on the price of each collector
// when it is on:
//
//   - counter/histogram writes (the always-hot primitives),
//   - coherent histogram + registry snapshots (the scrape path),
//   - Prometheus text rendering,
//   - publish_task with everything off, with metrics, and from a job-tagged
//     thread (the stsd live path),
//   - the profiler's TaskMark with sampling off and on,
//   - IterScope with telemetry off and with metrics enabled.
#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_json.hpp"
#include "obs/expo.hpp"
#include "obs/obs.hpp"
#include "support/timer.hpp"

namespace {

using namespace sts;

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram& h = obs::histogram("bench.hist");
  std::int64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = (v * 2 + 1) & 0xFFFFF; // walk the buckets
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_HistogramObserveContended(benchmark::State& state) {
  obs::Histogram& h = obs::histogram("bench.hist_contended");
  for (auto _ : state) {
    h.observe(4096);
  }
}
BENCHMARK(BM_HistogramObserveContended)->Threads(4);

void BM_HistogramSnapshot(benchmark::State& state) {
  obs::Histogram& h = obs::histogram("bench.hist_snap");
  for (int i = 0; i < 10000; ++i) h.observe(i);
  for (auto _ : state) {
    const obs::Histogram::Snapshot s = h.snapshot();
    benchmark::DoNotOptimize(s.count);
  }
}
BENCHMARK(BM_HistogramSnapshot);

void BM_RegistrySnapshot(benchmark::State& state) {
  // A registry populated the way a real run leaves it: a few dozen series.
  for (int i = 0; i < 32; ++i) {
    obs::counter("bench.reg.c" + std::to_string(i)).add(1);
    obs::histogram("bench.reg.h" + std::to_string(i)).observe(i * 100);
  }
  for (auto _ : state) {
    const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
    benchmark::DoNotOptimize(snap.histograms.size());
  }
}
BENCHMARK(BM_RegistrySnapshot);

void BM_PrometheusRender(benchmark::State& state) {
  for (int i = 0; i < 32; ++i) {
    obs::counter("bench.prom.c" + std::to_string(i)).add(1);
    obs::histogram("bench.prom.h" + std::to_string(i)).observe(i * 100);
  }
  for (auto _ : state) {
    std::ostringstream os;
    obs::write_prometheus(os);
    benchmark::DoNotOptimize(os.str().size());
  }
}
BENCHMARK(BM_PrometheusRender);

perf::TaskEvent bench_event() {
  perf::TaskEvent ev;
  ev.task_id = 1;
  ev.kind = graph::KernelKind::kSpMV;
  ev.worker = 0;
  ev.start_ns = support::now_ns();
  ev.end_ns = ev.start_ns + 1000;
  return ev;
}

void BM_PublishTaskOff(benchmark::State& state) {
  obs::disable();
  const perf::TaskEvent ev = bench_event();
  for (auto _ : state) {
    obs::publish_task("bench", ev);
  }
}
BENCHMARK(BM_PublishTaskOff);

void BM_PublishTaskMetrics(benchmark::State& state) {
  obs::enable_metrics(""); // collect only
  const perf::TaskEvent ev = bench_event();
  for (auto _ : state) {
    obs::publish_task("bench", ev);
  }
  obs::disable();
}
BENCHMARK(BM_PublishTaskMetrics);

void BM_PublishTaskJobCapture(benchmark::State& state) {
  // The stsd live path: no global tracing, but the thread holds a job tag,
  // so every event lands in the log under the job's byte budget.
  obs::disable();
  obs::set_job_trace_capacity(std::size_t{4} << 20);
  obs::begin_job_trace(1, "bench-trace");
  const perf::TaskEvent ev = bench_event();
  for (auto _ : state) {
    obs::publish_task("bench", ev);
  }
  obs::end_job_trace();
}
BENCHMARK(BM_PublishTaskJobCapture);

void BM_TaskMarkOff(benchmark::State& state) {
  obs::prof::stop_sampling();
  for (auto _ : state) {
    const obs::prof::TaskMark mark("bench", graph::KernelKind::kSpMV);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TaskMarkOff);

void BM_TaskMarkSampling(benchmark::State& state) {
  obs::prof::start_sampling(97.0); // modest rate; publish cost is the point
  for (auto _ : state) {
    const obs::prof::TaskMark mark("bench", graph::KernelKind::kSpMV);
    benchmark::ClobberMemory();
  }
  obs::prof::stop_sampling();
  obs::prof::reset_samples();
}
BENCHMARK(BM_TaskMarkSampling);

void BM_IterScopeOff(benchmark::State& state) {
  obs::disable();
  int i = 0;
  for (auto _ : state) {
    obs::IterScope iter("bench.solver", i++);
    iter.metric("beta", 1.0);
  }
}
BENCHMARK(BM_IterScopeOff);

void BM_IterScopeMetrics(benchmark::State& state) {
  obs::enable_metrics("");
  int i = 0;
  for (auto _ : state) {
    obs::IterScope iter("bench.solver", i++);
    iter.metric("beta", 1.0);
  }
  obs::disable();
}
BENCHMARK(BM_IterScopeMetrics);

} // namespace

int main(int argc, char** argv) {
  return sts::benchjson::run(argc, argv, "BENCH_obs.json");
}
