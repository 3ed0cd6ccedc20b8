// The task-event log: the one in-memory store for every trace event the
// process records — task events from every runtime, spans and instants —
// kept in one lane per emitting thread.
//
// A thread appends to its own lane (claimed on first use), so a push
// contends only with a concurrent export or eviction. Every event carries
// the id of the thread that emitted it and the job tag that thread held
// (obs::current_job()), so each reader filters the same lanes:
//
//   write_json       the process trace (STS_TRACE, stsolve --trace): all
//   write_job_json   one job's trace (stsctl trace <job>): its tagged events
//   task_events      flow graphs (paper Figs. 10/13): the task events
//
// A task event is a fixed-size record; its JSON name and args are built
// only at export. Spans and instants keep their name, category and args.
// When a thread exits, its lane passes to the next new thread with its
// events still in it, so short-lived worker pools do not grow the lane
// count.
//
// Job-tagged events are charged against a byte budget (set_job_capacity).
// Past it, finished jobs go whole, oldest first, but never the newest job;
// if that is not enough, every lane loses its oldest tagged events. With
// process tracing on, an evicted event loses its job tag but keeps its
// place in the process trace.
//
// The JSON is the Chrome trace-event object format ({"traceEvents":[...]})
// that chrome://tracing and ui.perfetto.dev load directly: one pid, one
// tid per emitting thread (named "<runtime>/w<worker>" or "<runtime>/host"
// after its first task event), "X" complete events and "i" instants, with
// microsecond timestamps rebased to the earliest event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/tdg.hpp"
#include "perf/trace.hpp"

namespace sts::obs {

/// Name, category and pre-rendered JSON args ("{...}" or empty) of a span
/// or instant.
struct EventText {
  std::string name;
  std::string cat;
  std::string args;
};

struct Event {
  std::int64_t ts_ns = 0;  // support::now_ns() start (or instant) time
  std::int64_t dur_ns = 0; // ignored for instants
  std::uint64_t job = 0;   // job tag of the emitting thread; 0 = none
  /// Task events: the runtime ("flux", "ds", ...), a literal. Null for
  /// spans and instants, which carry `text` instead.
  const char* runtime = nullptr;
  std::unique_ptr<const EventText> text;
  std::uint32_t thread = 0; // emitting thread; set by push()
  std::int32_t task_id = -1;
  std::int32_t worker = -1; // pool worker index; -1 = a thread outside it
  graph::KernelKind kind = graph::KernelKind::kOther;
  char ph = 'X'; // 'X' complete span, 'i' instant
};

class TraceSink {
public:
  static TraceSink& instance();

  /// Appends an event to the calling thread's lane; a job-tagged event is
  /// charged to the job budget.
  void push(Event event);

  /// Drops every event, and the records of finished jobs.
  void reset();

  [[nodiscard]] std::size_t lane_count();

  /// Writes every buffered event as Chrome trace-event JSON.
  void write_json(std::ostream& os);

  /// Chrome trace JSON of one job's events; false when none are buffered.
  bool write_job_json(std::uint64_t job, std::ostream& os);

  /// The buffered task events, sorted by start and rebased so the earliest
  /// starts at 0.
  [[nodiscard]] std::vector<perf::TaskEvent> task_events();

  /// Byte budget for job-tagged events; 0 disables job capture. Evicts at
  /// once when the budget shrinks below what is held.
  void set_job_capacity(std::size_t bytes);
  [[nodiscard]] std::size_t job_capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Records `job` (in begin order, for eviction) and its client trace id.
  void open_job(std::uint64_t job, std::string trace_id);
  /// Marks `job` finished: its record goes once its events are evicted.
  void close_job(std::uint64_t job);
  /// Drops every job-tagged event and job record; untagged events stay.
  void clear_jobs();

private:
  struct Lane {
    std::mutex mutex;
    std::vector<Event> events;
    bool owned = false; // guarded by TraceSink::mutex_
  };
  /// The calling thread's claim on a lane; returns it on thread exit.
  struct Claim {
    Lane* lane = nullptr;
    std::uint32_t thread = 0;
    ~Claim();
  };
  struct Job {
    std::string trace_id;
    std::uint64_t seq = 0; // begin order
    bool open = true;
  };

  Claim& claim();
  [[nodiscard]] std::vector<Lane*> lanes();
  void evict();
  /// Removes the events `drop` selects, untagging instead when process
  /// tracing keeps them, and releases their job bytes.
  template <typename Pred>
  void drop_tagged(Lane& lane, Pred drop);
  /// Writes the events `keep` selects; a non-empty `process_name` names
  /// the process and makes an empty selection write nothing and return
  /// false.
  template <typename Keep>
  bool write_events(std::ostream& os, Keep keep,
                    const std::string& process_name);

  std::mutex mutex_; // lanes_, jobs_, next_seq_, next_thread_
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t next_thread_ = 0;
  std::atomic<std::size_t> capacity_{std::size_t{4} << 20};
  std::atomic<std::size_t> job_bytes_{0};
  std::mutex evict_mutex_;
};

} // namespace sts::obs
