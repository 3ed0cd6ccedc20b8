// Blocking client for the stsd wire protocol: one connected Unix socket,
// one frame out / one frame in per call. Used by stsctl, the svc tests and
// the service benchmark; keeping it in the library means every front end
// speaks the protocol through the same code path.
#pragma once

#include <cstdint>
#include <string>

#include "svc/run_spec.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace sts::svc {

/// Bounded reconnect policy for Client (DESIGN.md §12). `attempts` counts
/// total tries per operation (1 = the historical fail-fast behaviour);
/// sleeps between tries follow decorrelated jitter — uniform in
/// [base_ms, 3 * previous], capped at cap_ms — so a fleet of retrying
/// clients does not stampede a restarting daemon in lockstep.
struct RetryPolicy {
  int attempts = 1;
  int base_ms = 50;
  int cap_ms = 2000;
  std::uint64_t seed = 0; // jitter RNG seed; 0 = derive from the pid
};

class Client {
public:
  /// Connects to `socket_path` (default: Server::default_socket_path()),
  /// honouring `retry` for the initial connect. Throws support::Error when
  /// the daemon stays unreachable through every attempt.
  explicit Client(const std::string& socket_path, RetryPolicy retry = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Raw round trip: send `request`, return the parsed reply (including
  /// ok=false replies — callers that want typed errors use the helpers).
  /// On a connection failure mid-call the client reconnects (up to the
  /// retry policy's budget) and resends the request — safe for the
  /// protocol's read-only ops, and safe for submit when the spec carries a
  /// client_key (the daemon deduplicates resubmissions on it).
  wire::Json request(const wire::Json& request);

  [[nodiscard]] bool ping();

  /// Accepted -> {accepted, id}; backpressure rejection -> {false, error};
  /// any other failure (bad spec, protocol error) throws.
  SubmitOutcome submit(const RunSpec& spec);

  /// Job snapshot; throws support::Error for unknown ids.
  wire::Json status(std::uint64_t id);

  /// Waits server-side until the job is terminal (or timeout_ms elapses)
  /// and returns the snapshot. The "terminal" field of the reply says
  /// whether the wait actually completed.
  wire::Json result(std::uint64_t id,
                    std::int64_t timeout_ms = 24LL * 3600 * 1000);

  /// True when the job was cancellable (pending or running).
  bool cancel(std::uint64_t id, const std::string& reason = "cancelled");

  wire::Json stats();

  /// Dispatcher snapshot (`stsctl queue`): slot partition table plus the
  /// RUNNING and PENDING jobs with their scheduling identity.
  wire::Json queue();

  /// Live metrics exposition from the daemon; `format` is "prom"
  /// (Prometheus text, the default) or "csv". Returns the rendered body.
  std::string metrics(const std::string& format = "prom");

  /// Chrome trace JSON of one job's events in the daemon's event log.
  /// Throws support::Error for unknown ids or evicted/disabled traces.
  std::string trace_json(std::uint64_t id);

  /// Asks the daemon to shut down gracefully (drain + exit 0).
  void shutdown();

private:
  /// request() + throw support::Error on ok=false.
  wire::Json rpc(const wire::Json& request);
  /// One EINTR-safe socket+connect attempt; throws on failure.
  void connect_once();
  void disconnect() noexcept;
  /// Next decorrelated-jitter sleep, advancing the internal state.
  [[nodiscard]] int next_backoff_ms();

  int fd_ = -1;
  std::string socket_path_;
  RetryPolicy retry_;
  std::uint64_t rng_state_ = 0;
  int prev_backoff_ms_ = 0;
};

} // namespace sts::svc
