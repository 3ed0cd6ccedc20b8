#include "obs/trace_sink.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>

#include "obs/obs.hpp"
#include "support/escape.hpp"

namespace sts::obs {

namespace {

/// Bytes an event holds, as charged to the job budget.
std::size_t cost(const Event& e) {
  std::size_t bytes = sizeof(Event);
  if (e.text) {
    bytes += sizeof(EventText) + e.text->name.size() + e.text->cat.size() +
             e.text->args.size();
  }
  return bytes;
}

void emit_us(std::ostream& os, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

void emit_event(std::ostream& os, const Event& e, std::int64_t base) {
  const std::string name =
      e.text ? support::json_escape(e.text->name) : graph::to_string(e.kind);
  os << "{\"name\":\"" << name << "\",\"cat\":\""
     << (e.text ? support::json_escape(e.text->cat) : name) << "\",\"ph\":\""
     << e.ph << "\",\"pid\":1,\"tid\":" << e.thread << ",\"ts\":";
  emit_us(os, e.ts_ns - base);
  if (e.ph == 'X') {
    os << ",\"dur\":";
    emit_us(os, e.dur_ns);
  } else if (e.ph == 'i') {
    os << ",\"s\":\"t\"";
  }
  if (!e.text) {
    os << ",\"args\":{\"task_id\":" << e.task_id << "}";
  } else if (!e.text->args.empty()) {
    os << ",\"args\":" << e.text->args;
  }
  os << "}";
}

void emit_metadata(std::ostream& os, const char* what, const char* tid,
                   const std::string& name) {
  os << "{\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":1" << tid
     << ",\"args\":{\"name\":\"" << support::json_escape(name) << "\"}}";
}

} // namespace

TraceSink& TraceSink::instance() {
  // Never destroyed: exiting threads return their lanes after static
  // destruction may have begun.
  static TraceSink* const s = new TraceSink;
  return *s;
}

TraceSink::Claim::~Claim() {
  if (lane == nullptr) return;
  TraceSink& sink = instance();
  const std::lock_guard<std::mutex> lock(sink.mutex_);
  lane->owned = false;
}

TraceSink::Claim& TraceSink::claim() {
  static thread_local Claim c;
  if (c.lane != nullptr) return c;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    if (!lane->owned) {
      c.lane = lane.get();
      break;
    }
  }
  if (c.lane == nullptr) {
    lanes_.push_back(std::make_unique<Lane>());
    c.lane = lanes_.back().get();
  }
  c.lane->owned = true;
  c.thread = next_thread_++;
  return c;
}

std::vector<TraceSink::Lane*> TraceSink::lanes() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Lane*> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) out.push_back(lane.get());
  return out;
}

void TraceSink::push(Event event) {
  Claim& c = claim();
  event.thread = c.thread;
  const std::size_t bytes = event.job != 0 ? cost(event) : 0;
  {
    const std::lock_guard<std::mutex> lock(c.lane->mutex);
    c.lane->events.push_back(std::move(event));
    job_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (bytes != 0 && job_bytes_.load(std::memory_order_relaxed) >
                        capacity_.load(std::memory_order_relaxed)) {
    evict();
  }
}

template <typename Pred>
void TraceSink::drop_tagged(Lane& lane, Pred drop) {
  const bool keep = tracing_enabled();
  std::size_t freed = 0;
  const std::lock_guard<std::mutex> lock(lane.mutex);
  auto take = [&](const Event& e) {
    if (e.job == 0 || !drop(e)) return false;
    freed += cost(e);
    return true;
  };
  if (keep) {
    for (Event& e : lane.events) {
      if (take(e)) e.job = 0;
    }
  } else {
    std::erase_if(lane.events, take);
  }
  job_bytes_.fetch_sub(freed, std::memory_order_relaxed);
}

void TraceSink::evict() {
  const std::unique_lock<std::mutex> guard(evict_mutex_, std::try_to_lock);
  if (!guard.owns_lock()) return; // another thread is evicting
  const std::size_t cap = job_capacity();
  if (job_bytes_.load(std::memory_order_relaxed) <= cap) return;

  const std::vector<Lane*> all = lanes();
  std::map<std::uint64_t, std::size_t> held; // bytes per job
  std::size_t total = 0;
  for (Lane* lane : all) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    for (const Event& e : lane->events) {
      if (e.job == 0) continue;
      const std::size_t c = cost(e);
      held[e.job] += c;
      total += c;
    }
  }
  // Oldest first: jobs whose record is gone, then begin order.
  struct Held {
    std::uint64_t seq;
    std::uint64_t job;
    bool open;
  };
  std::vector<Held> order;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [job, bytes] : held) {
      const auto it = jobs_.find(job);
      order.push_back(it == jobs_.end()
                          ? Held{0, job, false}
                          : Held{it->second.seq + 1, job, it->second.open});
    }
  }
  std::sort(order.begin(), order.end(), [](const Held& a, const Held& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.job < b.job;
  });
  // Evict to half the budget, so a steady stream of pushes pays for one
  // scan per half-budget of events. Finished jobs go whole, oldest first,
  // but never the newest job; then every lane loses the same share of its
  // oldest tagged events.
  const std::size_t target = cap / 2;
  std::vector<std::uint64_t> whole;
  for (std::size_t i = 0; i + 1 < order.size() && total > target; ++i) {
    if (order[i].open) continue;
    whole.push_back(order[i].job);
    total -= held[order[i].job];
  }
  std::sort(whole.begin(), whole.end());
  auto in_whole = [&whole](std::uint64_t job) {
    return std::binary_search(whole.begin(), whole.end(), job);
  };
  const double fraction =
      total > target ? static_cast<double>(total - target) /
                           static_cast<double>(total)
                     : 0.0;
  for (Lane* lane : all) {
    std::size_t cut = 0;
    if (fraction > 0.0) {
      const std::lock_guard<std::mutex> lock(lane->mutex);
      const auto n = std::count_if(
          lane->events.begin(), lane->events.end(),
          [&](const Event& e) { return e.job != 0 && !in_whole(e.job); });
      // Rounded down: a lane holding a few events (a slot's iteration
      // spans) keeps them.
      cut = static_cast<std::size_t>(static_cast<double>(n) * fraction);
    }
    std::size_t seen = 0;
    drop_tagged(*lane, [&](const Event& e) {
      return in_whole(e.job) || seen++ < cut;
    });
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(jobs_, [&](const auto& kv) {
    return !kv.second.open &&
           (held.count(kv.first) == 0 || in_whole(kv.first));
  });
}

void TraceSink::reset() {
  for (Lane* lane : lanes()) {
    drop_tagged(*lane, [](const Event&) { return true; });
    const std::lock_guard<std::mutex> lock(lane->mutex);
    lane->events.clear();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(jobs_, [](const auto& kv) { return !kv.second.open; });
}

void TraceSink::clear_jobs() {
  for (Lane* lane : lanes()) {
    drop_tagged(*lane, [](const Event&) { return true; });
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_.clear();
}

void TraceSink::set_job_capacity(std::size_t bytes) {
  capacity_.store(bytes, std::memory_order_relaxed);
  evict();
}

void TraceSink::open_job(std::uint64_t job, std::string trace_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_[job] = Job{std::move(trace_id), next_seq_++, true};
}

void TraceSink::close_job(std::uint64_t job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job);
  if (it != jobs_.end()) it->second.open = false;
}

std::size_t TraceSink::lane_count() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.size();
}

template <typename Keep>
bool TraceSink::write_events(std::ostream& os, Keep keep,
                             const std::string& process_name) {
  const std::vector<Lane*> all = lanes();
  // Pass 1: the time base, and each thread's track name from its first
  // task event.
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  std::map<std::uint32_t, std::string> names;
  for (Lane* lane : all) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    for (const Event& e : lane->events) {
      if (!keep(e)) continue;
      base = std::min(base, e.ts_ns);
      std::string& name = names[e.thread];
      if (name.empty() && e.runtime != nullptr) {
        name = std::string(e.runtime) +
               (e.worker < 0 ? "/host" : "/w" + std::to_string(e.worker));
      }
    }
  }
  if (names.empty() && !process_name.empty()) return false;
  if (names.empty()) base = 0;

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  if (!process_name.empty()) {
    sep();
    emit_metadata(os, "process_name", "", process_name);
  }
  for (const auto& [thread, name] : names) {
    sep();
    const std::string tid = ",\"tid\":" + std::to_string(thread);
    emit_metadata(os, "thread_name", tid.c_str(),
                  name.empty() ? "thread" + std::to_string(thread) : name);
  }
  for (Lane* lane : all) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    for (const Event& e : lane->events) {
      if (!keep(e)) continue;
      sep();
      emit_event(os, e, base);
    }
  }
  os << "\n]}\n";
  return true;
}

void TraceSink::write_json(std::ostream& os) {
  write_events(os, [](const Event&) { return true; }, {});
}

bool TraceSink::write_job_json(std::uint64_t job, std::ostream& os) {
  std::string trace_id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job);
    if (it != jobs_.end()) trace_id = it->second.trace_id;
  }
  return write_events(
      os, [job](const Event& e) { return e.job == job; },
      "stsd job " + std::to_string(job) + " trace " + trace_id);
}

std::vector<perf::TaskEvent> TraceSink::task_events() {
  std::vector<perf::TaskEvent> out;
  for (Lane* lane : lanes()) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    for (const Event& e : lane->events) {
      if (e.runtime == nullptr) continue;
      out.push_back({e.task_id, e.kind, e.worker, e.ts_ns, e.ts_ns + e.dur_ns});
    }
  }
  if (out.empty()) return out;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const perf::TaskEvent& e : out) t0 = std::min(t0, e.start_ns);
  for (perf::TaskEvent& e : out) {
    e.start_ns -= t0;
    e.end_ns -= t0;
  }
  std::sort(out.begin(), out.end(),
            [](const perf::TaskEvent& a, const perf::TaskEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

} // namespace sts::obs
