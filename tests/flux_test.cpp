#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "flux/dataflow.hpp"
#include "flux/task_graph.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace sts::flux {
namespace {

Scheduler::Config cfg(unsigned threads, unsigned domains = 1,
                      bool numa = false) {
  return {.threads = threads, .numa_domains = domains, .numa_aware = numa};
}

TEST(Scheduler, RunsSubmittedTasks) {
  Scheduler s(cfg(2));
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    s.submit([&count] { count.fetch_add(1); });
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(s.stats().executed, 100u);
}

// Tasks a waiting host runs inside get() count like the workers' own, in
// stats() and in the flux.tasks_executed counter. The only worker is held
// in a task, so every submitted task runs on the host.
TEST(Scheduler, ExecutedCountsTasksRunByHelpers) {
  Scheduler s(cfg(1));
  const obs::Counter& counter = obs::counter("flux.tasks_executed");
  const std::uint64_t counted_before = counter.value();
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  s.submit([&] {
    holding.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!holding.load()) std::this_thread::yield();

  constexpr int kTasks = 50;
  std::atomic<int> ran{0};
  std::vector<future<void>> futs;
  for (int i = 0; i < kTasks; ++i) {
    futs.push_back(async(s, [&ran] { ran.fetch_add(1); }));
  }
  for (future<void>& f : futs) f.get(&s);
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(s.stats().executed, static_cast<std::uint64_t>(kTasks));
  release.store(true);
  s.wait_for_quiescence();
  EXPECT_EQ(s.stats().executed, static_cast<std::uint64_t>(kTasks) + 1);
  EXPECT_EQ(counter.value() - counted_before,
            static_cast<std::uint64_t>(kTasks) + 1);
}

TEST(Scheduler, NestedSubmissionsComplete) {
  Scheduler s(cfg(2));
  std::atomic<int> count{0};
  s.submit([&] {
    for (int i = 0; i < 10; ++i) {
      s.submit([&] {
        count.fetch_add(1);
        s.submit([&] { count.fetch_add(1); });
      });
    }
  });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 20);
}

TEST(Scheduler, DomainHintsTargetDomains) {
  Scheduler s(cfg(4, 2, true));
  EXPECT_EQ(s.domain_count(), 2u);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    s.submit([&count] { count.fetch_add(1); }, i % 2);
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 50);
}

TEST(Scheduler, CurrentWorkerOnlyInsideWorkers) {
  Scheduler s(cfg(2));
  EXPECT_EQ(s.current_worker(), -1);
  std::atomic<int> seen{-2};
  s.submit([&] { seen = s.current_worker(); });
  s.wait_for_quiescence();
  EXPECT_GE(seen.load(), 0);
  EXPECT_LT(seen.load(), 2);
}

TEST(Future, PromiseDeliversValue) {
  promise<int> p;
  auto f = p.get_future();
  EXPECT_FALSE(f.is_ready());
  p.set_value(42);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(Future, MakeReadyFuture) {
  auto f = make_ready_future();
  EXPECT_TRUE(f.is_ready());
  auto g = make_ready_future(3.5);
  EXPECT_EQ(g.get(), 3.5);
}

TEST(Future, SharedFutureMultipleReaders) {
  promise<int> p;
  shared_future<int> a = p.get_shared_future();
  shared_future<int> b = a;
  p.set_value(7);
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), 7);
}

TEST(Future, ContinuationFiresOnce) {
  promise<void> p;
  auto f = p.get_shared_future();
  std::atomic<int> fired{0};
  f.state()->add_continuation([&] { fired.fetch_add(1); });
  p.set_value();
  EXPECT_EQ(fired.load(), 1);
  // Late continuation on a ready future runs immediately.
  f.state()->add_continuation([&] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 2);
}

TEST(Async, ReturnsResult) {
  Scheduler s(cfg(2));
  auto f = async(s, [] { return std::string("hi"); });
  EXPECT_EQ(f.get(), "hi");
  s.wait_for_quiescence();
}

TEST(Async, PropagatesExceptions) {
  Scheduler s(cfg(2));
  auto f = async(s, []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
  // The scheduler latched the same error; the next quiescence wait
  // surfaces it once, then the scheduler is clean again.
  EXPECT_THROW(s.wait_for_quiescence(), std::runtime_error);
  s.wait_for_quiescence();
}

TEST(Dataflow, WaitsForAllDependencies) {
  Scheduler s(cfg(2));
  promise<void> p1;
  promise<void> p2;
  std::atomic<bool> ran{false};
  auto f = dataflow(s, unwrapping([&ran] { ran = true; }),
                    p1.get_shared_future(), p2.get_shared_future());
  EXPECT_FALSE(ran.load());
  p1.set_value();
  EXPECT_FALSE(ran.load());
  p2.set_value();
  f.get();
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(Dataflow, VectorOfFuturesAsDependency) {
  Scheduler s(cfg(2));
  std::vector<promise<void>> promises(8);
  std::vector<shared_future<void>> futs;
  for (auto& p : promises) futs.push_back(p.get_shared_future());
  std::atomic<bool> ran{false};
  auto f = dataflow(s, unwrapping([&ran] { ran = true; }), futs);
  for (std::size_t i = 0; i + 1 < promises.size(); ++i) {
    promises[i].set_value();
  }
  EXPECT_FALSE(ran.load());
  promises.back().set_value();
  f.get();
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(Dataflow, UnwrappingPassesValuesAndDropsVoids) {
  Scheduler s(cfg(2));
  auto vf = make_ready_future();
  auto iv = make_ready_future(5);
  auto f = dataflow(
      s, unwrapping([](int v, double d) { return v + static_cast<int>(d); }),
      vf, iv, 2.0);
  EXPECT_EQ(f.get(), 7);
  s.wait_for_quiescence();
}

TEST(Dataflow, SelfChainSerializesWrites) {
  Scheduler s(cfg(4));
  int value = 0; // unsynchronized on purpose: the chain must serialize
  shared_future<void> chain = make_ready_future();
  for (int i = 0; i < 200; ++i) {
    chain = dataflow(s, unwrapping([&value] { ++value; }), chain).share();
  }
  chain.get();
  s.wait_for_quiescence();
  EXPECT_EQ(value, 200);
}

TEST(WhenAll, ReadyWhenAllReady) {
  Scheduler s(cfg(2));
  std::vector<promise<void>> promises(4);
  std::vector<shared_future<void>> futs;
  for (auto& p : promises) futs.push_back(p.get_shared_future());
  auto all = when_all(s, futs);
  for (auto& p : promises) p.set_value();
  all.get();
  s.wait_for_quiescence();
}

/// Property test: a random dataflow DAG computed with flux must produce the
/// same values as a sequential evaluation.
TEST(Dataflow, RandomDagMatchesSerialEvaluation) {
  support::Xoshiro256 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 30 + static_cast<int>(rng.below(40));
    // node value = 1 + sum of dependency values (mod large prime).
    std::vector<std::vector<int>> deps(static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i) {
      const int ndeps = static_cast<int>(rng.below(4));
      for (int d = 0; d < ndeps; ++d) {
        deps[static_cast<std::size_t>(i)].push_back(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(i))));
      }
    }
    std::vector<std::int64_t> serial(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::int64_t v = 1;
      for (int d : deps[static_cast<std::size_t>(i)]) {
        v += serial[static_cast<std::size_t>(d)];
      }
      serial[static_cast<std::size_t>(i)] = v % 1000003;
    }

    Scheduler s(cfg(4));
    std::vector<std::int64_t> values(static_cast<std::size_t>(n), 0);
    std::vector<shared_future<void>> done(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::vector<shared_future<void>> my_deps;
      for (int d : deps[static_cast<std::size_t>(i)]) {
        my_deps.push_back(done[static_cast<std::size_t>(d)]);
      }
      auto body = [i, &values, deps_copy = deps[static_cast<std::size_t>(i)]] {
        std::int64_t v = 1;
        for (int d : deps_copy) v += values[static_cast<std::size_t>(d)];
        values[static_cast<std::size_t>(i)] = v % 1000003;
      };
      done[static_cast<std::size_t>(i)] =
          dataflow(s, unwrapping(body), std::move(my_deps)).share();
    }
    for (auto& f : done) f.get();
    s.wait_for_quiescence();
    ASSERT_EQ(values, serial) << "trial " << trial;
  }
}

TEST(Faults, MidChainErrorSkipsSuccessorsAndSurfacesOnce) {
  Scheduler s(cfg(2));
  std::atomic<bool> ran_a{false};
  std::atomic<bool> ran_c{false};
  auto a = dataflow(s, unwrapping([&] { ran_a = true; })).share();
  auto b = dataflow(s, unwrapping([]() -> void {
                      throw support::TaskError("spmv[1,1]", "injected");
                    }),
                    a)
               .share();
  auto c = dataflow(s, unwrapping([&] { ran_c = true; }), b).share();
  try {
    c.get();
    FAIL() << "expected TaskError";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "spmv[1,1]");
  }
  EXPECT_TRUE(ran_a.load());
  EXPECT_FALSE(ran_c.load()); // the dependency's error was forwarded
  EXPECT_TRUE(s.cancelled());
  EXPECT_THROW(s.wait_for_quiescence(), support::TaskError);
  // Clean after the rethrow: the scheduler is reusable.
  EXPECT_FALSE(s.cancelled());
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) s.submit([&] { count.fetch_add(1); });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 16);
}

TEST(Faults, CancellationDropsQueuedTasks) {
  // One worker makes the schedule deterministic: the failing task enqueues
  // its successors, throws, and only then can the worker dequeue them.
  Scheduler s(cfg(1));
  std::atomic<int> ran{0};
  s.submit([&] {
    for (int i = 0; i < 64; ++i) s.submit([&] { ran.fetch_add(1); });
    throw std::runtime_error("abort the rest");
  });
  EXPECT_THROW(s.wait_for_quiescence(), std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
  s.wait_for_quiescence(); // reusable and clean
}

TEST(Faults, InjectedFaultAtTaskSite) {
  Scheduler s(cfg(2));
  support::fault::ScopedFault f("flux:task:hit=3");
  for (int i = 0; i < 8; ++i) {
    s.submit([] {});
  }
  try {
    s.wait_for_quiescence();
    FAIL() << "expected fault::Injected";
  } catch (const support::fault::Injected& e) {
    EXPECT_EQ(e.site(), "flux:task");
  }
}

TEST(Faults, QuiescenceDeadlineReportsDiagnostics) {
  Scheduler s(cfg(2));
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  s.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });
  try {
    s.wait_for_quiescence(std::chrono::milliseconds(100));
    FAIL() << "expected TimeoutError";
  } catch (const support::TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("outstanding"), std::string::npos);
  }
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  s.wait_for_quiescence(std::chrono::seconds(5));
}

TEST(Scheduler, StealStatsAccumulate) {
  Scheduler s(cfg(4));
  std::atomic<int> count{0};
  // Submit chains from outside so some workers must steal.
  for (int i = 0; i < 400; ++i) {
    s.submit([&count] {
      volatile double x = 0;
      for (int k = 0; k < 1000; ++k) x = x + k;
      count.fetch_add(1);
    });
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 400);
  // steals is machine-dependent; just verify the counter is readable.
  EXPECT_GE(s.stats().steals, 0u);
}

TEST(Task, SmallClosureIsStoredInline) {
  int x = 0;
  Task small([&x] { ++x; });
  EXPECT_TRUE(static_cast<bool>(small));
  EXPECT_TRUE(small.inline_stored());
  small();
  EXPECT_EQ(x, 1);

  // Move transfers the closure and empties the source.
  Task moved(std::move(small));
  EXPECT_FALSE(static_cast<bool>(small)); // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(x, 2);
}

TEST(Task, LargeClosureFallsBackToHeapAndDestroysOnce) {
  auto tracked = std::make_shared<int>(7);
  std::array<char, 2 * Task::kInlineSize> pad{};
  int sum = 0;
  {
    Task big([tracked, pad, &sum] { sum += *tracked + pad[0]; });
    EXPECT_FALSE(big.inline_stored());
    EXPECT_EQ(tracked.use_count(), 2);
    Task moved = std::move(big);
    EXPECT_EQ(tracked.use_count(), 2); // heap move relocates, no copy
    moved();
  }
  EXPECT_EQ(sum, 7);
  EXPECT_EQ(tracked.use_count(), 1); // closure destroyed exactly once
}

TEST(Scheduler, StressConcurrentSubmittersAndRecursiveSpawns) {
  // Hammers every queue path at once: external submissions (inboxes) from
  // several threads, domain-hinted submissions, and worker-local recursive
  // spawns (the lock-free ring), with 4 workers stealing from each other.
  Scheduler s(cfg(4, 2, true));
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int sub = 0; sub < kSubmitters; ++sub) {
    submitters.emplace_back([&s, &count, sub] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int hint = (i % 3 == 0) ? sub % 2 : -1;
        s.submit(
            [&s, &count] {
              count.fetch_add(1);
              // Worker-local child + grandchild: ring push/pop under
              // concurrent steals.
              s.submit([&s, &count] {
                count.fetch_add(1);
                s.submit([&count] { count.fetch_add(1); });
              });
            },
            hint);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), kSubmitters * kPerSubmitter * 3);
  EXPECT_EQ(s.stats().executed,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter * 3));
}

TEST(Scheduler, RingOverflowFallsBackToInbox) {
  // A single worker spawning more children than the ring holds must spill
  // into its inbox and still run everything (no drops, no deadlock).
  Scheduler s(cfg(1));
  std::atomic<int> count{0};
  const int n = static_cast<int>(Scheduler::kRingCapacity) + 500;
  s.submit([&s, &count, n] {
    for (int i = 0; i < n; ++i) {
      s.submit([&count] { count.fetch_add(1); });
    }
  });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), n);
}

// Idle workers spin for Scheduler::kIdleSpin after their last task, then
// sleep: a pool sitting idle must not cost a service slot a core.
TEST(Scheduler, IdleWorkersSleepAfterSpinWindow) {
  Scheduler s(cfg(4));
  std::atomic<int> ran{0};
  s.submit([&ran] { ran.fetch_add(1); });
  s.wait_for_quiescence();
  ASSERT_EQ(ran.load(), 1);
  auto cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  };
  const std::int64_t cpu0 = cpu_ns();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::int64_t cpu = cpu_ns() - cpu0;
  const std::int64_t wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  // One busy worker would burn about `wall`; four that spin for 50 µs and
  // then sleep burn next to nothing.
  EXPECT_LT(cpu, wall / 10) << "cpu " << cpu << " ns over " << wall
                            << " ns idle";
}

/// Random DAG: node i depends on up to three earlier nodes.
std::vector<std::vector<TaskGraph::NodeId>> random_dag(support::Xoshiro256& rng,
                                                       int n) {
  std::vector<std::vector<TaskGraph::NodeId>> deps(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) {
    const int ndeps = static_cast<int>(rng.below(4));
    for (int d = 0; d < ndeps; ++d) {
      deps[static_cast<std::size_t>(i)].push_back(
          static_cast<TaskGraph::NodeId>(
              rng.below(static_cast<std::uint64_t>(i))));
    }
  }
  return deps;
}

TEST(TaskGraph, EveryReplayRunsEachNodeAfterItsPredecessors) {
  support::Xoshiro256 rng(321);
  Scheduler s(cfg(4));
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 30 + static_cast<int>(rng.below(40));
    const auto deps = random_dag(rng, n);
    // Each run stamps every node with 1 + the largest stamp among its
    // predecessors; the stamps are cleared between runs, so a node that
    // ran before a predecessor shows as a short stamp.
    std::vector<std::int64_t> depth(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> serial(static_cast<std::size_t>(n), 0);
    TaskGraph g;
    for (int i = 0; i < n; ++i) {
      const auto& mine = deps[static_cast<std::size_t>(i)];
      std::int64_t d = 0;
      for (const auto p : mine) d = std::max(d, serial[p]);
      serial[static_cast<std::size_t>(i)] = d + 1;
      g.add(
          [i, &depth, &mine] {
            std::int64_t v = 0;
            for (const auto p : mine) v = std::max(v, depth[p]);
            depth[static_cast<std::size_t>(i)] = v + 1;
          },
          graph::KernelKind::kOther, i, -1, mine);
    }
    for (int run = 0; run < 3; ++run) {
      std::fill(depth.begin(), depth.end(), 0);
      g.run(s);
      ASSERT_EQ(depth, serial) << "trial " << trial << " run " << run;
    }
  }
}

TEST(TaskGraph, FailedNodeStrandsSuccessorsAndRunRethrows) {
  Scheduler s(cfg(2));
  std::atomic<bool> fail{true};
  std::atomic<int> tail_runs{0};
  TaskGraph g;
  const TaskGraph::NodeId a = g.add([] {}, graph::KernelKind::kOther, 0, -1,
                                    {});
  const TaskGraph::NodeId b = g.add(
      [&fail] {
        if (fail.load()) throw std::runtime_error("node b failed");
      },
      graph::KernelKind::kOther, 1, -1, {a});
  g.add([&tail_runs] { tail_runs.fetch_add(1); }, graph::KernelKind::kOther,
        2, -1, {b, b}); // duplicate edge: one join
  EXPECT_THROW(g.run(s), std::runtime_error);
  EXPECT_EQ(tail_runs.load(), 0);
  EXPECT_FALSE(s.cancelled());
  fail = false;
  g.run(s); // the graph and the pool are both reusable
  EXPECT_EQ(tail_runs.load(), 1);
}

} // namespace
} // namespace sts::flux
