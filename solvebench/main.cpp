// End-to-end solve benchmark: the solvebench program.
//
//   solvebench --workload <cg-ic0|lobpcg|svc-mix> --seed <n> --seconds <s>
//              --trace <0|1> --metrics <name,name,...> [--work-dir <dir>]
//
// Hosts svc::Service and svc::Server in-process and submits every job
// through svc::Client over the Unix socket, as stsctl does. Prints one line
// per measured metric (name, value, unit, sample count), then as its last
// line the JSON result holding exactly the --metrics names. Exits 1 when
// any answer check fails, 2 on bad usage.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "support/timer.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "workload.hpp"

namespace svc = sts::svc;
using solvebench::Report;
using solvebench::Tally;
using solvebench::Workload;
using svc::wire::Json;
using Clock = std::chrono::steady_clock;

namespace {

// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
// Open-loop waiters: each blocks on one job's result over its own
// connection, so a finished job is never held behind an unfinished one.
constexpr unsigned kWaiters = 12;
// The traced run's service phase is capped at this many seconds; the rest
// of its time goes to the replay.
constexpr double kTracedServiceSeconds = 6.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::string> metrics;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "solvebench: " << why
            << "\nusage: solvebench --workload <cg-ic0|lobpcg|svc-mix> "
               "--seed <n> --seconds <s> --trace <0|1> --metrics <a,b,...> "
               "[--work-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--metrics") {
      std::stringstream ss(v);
      for (std::string m; std::getline(ss, m, ',');) {
        if (!m.empty()) a.metrics.push_back(m);
      }
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- machine context -------------------------------------------------------

/// Spins one thread per core until all have started, then keeps them busy
/// for a while; returns the time until the last one ran. An idle host can
/// take over a second to schedule every core, which must land neither in
/// setup_s nor in a job.
double wake_cores_ms() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<unsigned> arrived{0};
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      volatile double x = 1.0;
      while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001;
    });
  }
  while (arrived.load() < n) std::this_thread::yield();
  const double wake = ms_since(t0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  for (auto& t : threads) t.join();
  return wake;
}

/// Cumulative steal time of all CPUs from /proc/stat, in ms (0 if absent).
double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : f) in >> x;
  return f[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double load1() {
  std::ifstream in("/proc/loadavg");
  double l = 0.0;
  in >> l;
  return l;
}

// ---- hosting -------------------------------------------------------------

struct Hosted {
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  ~Hosted() {
    if (server) server->stop();
    if (service) service->drain();
  }
};

/// One finished job as the client saw it.
struct Sample {
  double wall_ms = 0.0;  // submit -> result at the client
  double queue_ms = 0.0; // JobInfo
  double run_ms = 0.0;   // JobInfo
  bool interactive = false;
  bool ok = false;
};

Sample finish(const solvebench::JobKind& kind, const Json& info,
              double wall_ms, const std::string& what) {
  Sample s;
  s.wall_ms = wall_ms;
  s.queue_ms = info.number_or("queue_seconds", 0.0) * 1e3;
  s.run_ms = info.number_or("run_seconds", 0.0) * 1e3;
  s.interactive = kind.spec.priority == "interactive";
  const std::string err = solvebench::check_answer(kind, info);
  s.ok = err.empty();
  if (!s.ok) {
    std::cerr << "solvebench: wrong answer (" << what << "): " << err << "\n";
  }
  return s;
}

/// Submit and wait, closed-loop style.
Sample run_one(svc::Client& client, const solvebench::JobKind& kind) {
  const auto t0 = Clock::now();
  const svc::SubmitOutcome out = client.submit(kind.spec);
  if (!out.accepted) {
    std::cerr << "solvebench: rejected: " << out.error << "\n";
    return Sample{};
  }
  const Json info = client.result(out.id);
  return finish(kind, info, ms_since(t0), kind.spec.describe());
}

/// Starts a service for `w`, warms it (one job per warm-up kind) and
/// returns it with the time that took.
double start_and_warm(const Workload& w, const std::string& sock, int rep,
                      Hosted& h, Tally& tally) {
  svc::Service::Config cfg = w.service;
  if (!cfg.journal_path.empty()) {
    cfg.journal_path += "." + std::to_string(rep);
  }
  const auto t0 = Clock::now();
  h.service = std::make_unique<svc::Service>(cfg);
  h.server = std::make_unique<svc::Server>(*h.service, sock);
  h.server->start();
  svc::Client client(sock);
  for (const auto& k : w.kinds) tally.record(run_one(client, k).ok);
  return ms_since(t0) * 1e-3;
}

// ---- closed loop -----------------------------------------------------------

struct ClosedResult {
  std::vector<std::vector<double>> round_ms; // per version
  std::vector<Sample> samples;
};

ClosedResult run_closed(const Workload& w, const std::string& sock,
                        double seconds, Tally& tally) {
  ClosedResult r;
  r.round_ms.resize(w.versions.size());
  svc::Client client(sock);
  const std::size_t ni = w.inputs.size();
  const auto t0 = Clock::now();
  while (ms_since(t0) < seconds * 1e3) {
    for (std::size_t v = 0; v < w.versions.size(); ++v) {
      double round = 0.0;
      for (std::size_t i = 0; i < ni; ++i) {
        const Sample s = run_one(client, w.kinds[v * ni + i]);
        tally.record(s.ok);
        round += s.wall_ms;
        r.samples.push_back(s);
      }
      r.round_ms[v].push_back(round);
    }
  }
  return r;
}

// ---- open loop -------------------------------------------------------------

struct OpenResult {
  std::vector<solvebench::Arrival> arrivals; // indexed like w.open_kinds
  std::vector<Sample> samples;               // indexed like w.open_kinds
};

OpenResult run_open(const Workload& w, const std::string& sock) {
  const std::size_t n = w.open_kinds.size();
  OpenResult r;
  r.arrivals.resize(n);
  r.samples.resize(n);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::uint64_t>> pending; // (arrival, id)
  bool generator_done = false;

  {
    // Joins the waiters on every exit, exceptions included.
    std::vector<std::thread> waiters;
    struct Joiner {
      std::mutex& mu;
      std::condition_variable& cv;
      bool& done;
      std::vector<std::thread>& threads;
      ~Joiner() {
        {
          const std::lock_guard<std::mutex> lock(mu);
          done = true;
        }
        cv.notify_all();
        for (auto& t : threads) t.join();
      }
    } joiner{mu, cv, generator_done, waiters};

    for (unsigned t = 0; t < kWaiters; ++t) {
      waiters.emplace_back([&] {
        try {
          svc::Client client(sock);
          for (;;) {
            std::pair<std::size_t, std::uint64_t> job;
            {
              std::unique_lock<std::mutex> lock(mu);
              cv.wait(lock, [&] { return !pending.empty() || generator_done; });
              if (pending.empty()) return;
              job = pending.front();
              pending.pop_front();
            }
            const Json info = client.result(job.second);
            const std::int64_t done = sts::support::now_ns();
            const auto& kind = w.open_kinds[job.first];
            Sample s = finish(kind, info, 0.0, kind.spec.describe());
            const std::lock_guard<std::mutex> lock(mu);
            r.arrivals[job.first].done_ns = done;
            const std::int64_t sent = r.arrivals[job.first].sent_ns;
            s.wall_ms = static_cast<double>(done - sent) * 1e-6;
            r.samples[job.first] = s;
          }
        } catch (const std::exception& e) {
          // Jobs this waiter leaves unrecorded count as failed.
          std::cerr << "solvebench: waiter: " << e.what() << "\n";
        }
      });
    }

    svc::Client client(sock);
    const std::int64_t start = sts::support::now_ns() + 20'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(w.due_s[i] * 1e9);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      const std::int64_t sent = sts::support::now_ns();
      const svc::SubmitOutcome out =
          client.submit(w.open_kinds[i].spec);
      const std::lock_guard<std::mutex> lock(mu);
      r.arrivals[i].due_ns = due;
      r.arrivals[i].sent_ns = sent;
      if (out.accepted) {
        pending.emplace_back(i, out.id);
        cv.notify_one();
      } else {
        // Counted as failed: samples[i].ok stays false.
        std::cerr << "solvebench: rejected: " << out.error << "\n";
      }
    }
  } // waiters joined: r is complete
  return r;
}

// ---- reporting -------------------------------------------------------------

void add_service_layer(Report& rep, const std::vector<Sample>& samples,
                       const svc::CacheStats& before,
                       const svc::CacheStats& after) {
  std::vector<double> queue, run, wire, qi, qb;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    queue.push_back(s.queue_ms);
    run.push_back(s.run_ms);
    wire.push_back(std::max(0.0, s.wall_ms - s.queue_ms - s.run_ms));
    (s.interactive ? qi : qb).push_back(s.queue_ms);
  }
  rep.add("svc.queue_ms", solvebench::median(queue), "ms", queue.size());
  rep.add("svc.run_ms", solvebench::median(run), "ms", run.size());
  rep.add("svc.wire_ms", solvebench::median(wire), "ms", wire.size());
  if (!qi.empty()) {
    rep.add("dispatch.queue_ms.interactive", solvebench::median(qi), "ms",
            qi.size());
  }
  rep.add("dispatch.queue_ms.batch", solvebench::median(qb), "ms", qb.size());
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  rep.add("svc.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
          static_cast<std::size_t>(lookups));
  rep.add("svc.cache.evictions",
          static_cast<double>(after.evictions - before.evictions), "count", 1);
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  const std::string dir = args.work_dir + "/" + args.workload + "-" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  Report rep;
  // Machine context first: an idle host's wake-up lands here, before the
  // reference solves and anything timed.
  rep.add("machine.wake_ms", wake_cores_ms(), "ms", 1);
  const double steal0 = steal_ms();

  const double seconds =
      args.trace ? std::min(args.seconds, kTracedServiceSeconds) : args.seconds;
  const auto gen0 = Clock::now();
  const Workload w =
      solvebench::make_workload(args.workload, args.seed, seconds, dir);
  rep.add("bench.inputs_s", ms_since(gen0) * 1e-3, "s", 1);

  // Setup, several times; the last instance serves the timed phase.
  const std::string sock = dir + "/s.sock";
  Tally tally;
  std::vector<double> setups;
  std::optional<Hosted> hosted;
  for (int i = 0; i < kSetups; ++i) {
    hosted.reset();
    hosted.emplace();
    setups.push_back(start_and_warm(w, sock, i, *hosted, tally));
  }
  rep.add("setup_s", solvebench::median(setups), "s", setups.size());

  const svc::CacheStats cache0 = hosted->service->stats().cache;
  std::vector<Sample> samples;
  if (!w.open_loop) {
    ClosedResult r = run_closed(w, sock, seconds, tally);
    for (std::size_t v = 0; v < w.versions.size(); ++v) {
      const std::string vn = solvebench::version_name(w.versions[v]);
      rep.add_summary("job_ms." + vn, "job_ms_tail." + vn,
                      solvebench::summarize(r.round_ms[v]), "ms");
    }
    samples = std::move(r.samples);
  } else {
    OpenResult r = run_open(w, sock);
    std::vector<std::vector<double>> by_version(w.versions.size());
    std::vector<double> inter, batch, lag;
    for (std::size_t i = 0; i < w.open_kinds.size(); ++i) {
      const svc::RunSpec& spec = w.open_kinds[i].spec;
      const Sample& s = r.samples[i];
      tally.record(s.ok);
      lag.push_back(r.arrivals[i].lag_ms());
      if (!s.ok) continue;
      const double ms = r.arrivals[i].latency_ms();
      (s.interactive ? inter : batch).push_back(ms);
      // Per version: the batch class only. Mixing the classes' two latency
      // modes would make the median follow their arrival proportions.
      if (!s.interactive) {
        const auto v =
            std::find(w.versions.begin(), w.versions.end(), spec.version);
        by_version[static_cast<std::size_t>(v - w.versions.begin())]
            .push_back(ms);
      }
      samples.push_back(s);
    }
    for (std::size_t v = 0; v < w.versions.size(); ++v) {
      const std::string vn = solvebench::version_name(w.versions[v]);
      rep.add_summary("job_ms." + vn, "job_ms_tail." + vn,
                      solvebench::summarize(by_version[v]), "ms");
    }
    rep.add_summary("interactive_ms", "interactive_ms_tail",
                    solvebench::summarize(inter), "ms");
    rep.add_summary("batch_ms", "batch_ms_tail", solvebench::summarize(batch),
                    "ms");
    rep.add("bench.generator_lag_ms", solvebench::median(lag), "ms",
            lag.size());
    rep.add("bench.generator_lag_ms_max",
            lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()), "ms",
            lag.size());
  }
  add_service_layer(rep, samples, cache0, hosted->service->stats().cache);
  hosted.reset();
  rep.add("failed_share", tally.failed_share(), "share", tally.attempted);

  if (args.trace) {
    fs::create_directories(args.work_dir + "/traces");
    const std::string trace_path = args.work_dir + "/traces/" +
                                   args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json";
    solvebench::run_traced(w, rep, trace_path);
    std::cout << "span file: " << trace_path << "\n";
  }
  rep.add("machine.steal_ms", steal_ms() - steal0, "ms", 1);
  rep.add("machine.load1", load1(), "load", 1);

  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  rep.print_table(std::cout);
  const bool correct = tally.failed == 0;
  std::cout << rep.result_json(args.metrics, correct, tally.attempted,
                               tally.failed)
            << std::endl;
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "solvebench: " << e.what() << "\n";
    return 1;
  }
}
