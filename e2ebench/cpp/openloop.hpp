#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// One request of an open-loop schedule: released when due, whatever the
/// state of earlier requests.
struct ScheduledRequest {
    std::uint64_t due_ns = 0;  ///< absolute steady-clock time
    int lane = 0;              ///< connection pool the request goes through
    /// Request line without the newline; the caller keeps the viewed
    /// string alive until run_open_loop returns.
    std::string_view line;
};

struct RequestOutcome {
    std::uint64_t sent_ns = 0;  ///< written to an idle connection
    std::uint64_t done_ns = 0;  ///< response line fully received
    bool answered = false;
    std::string response;
};

struct OpenLoopOptions {
    int port = 0;  ///< daemon on 127.0.0.1
    /// Connections of each lane (pool); a request is written to an idle
    /// connection of its lane, one request in flight per connection.
    std::vector<int> lanes = {1};
    /// Called from the generator thread every tick_ns (0 = never).
    std::function<void(std::uint64_t now_ns)> on_tick;
    std::uint64_t tick_ns = 0;
    /// Called from the generator thread for every response, in order; it
    /// may consume (move out) the response text.
    std::function<void(std::size_t index, RequestOutcome&)> on_response;
};

inline constexpr int kStallTimeoutMs = 10000;
inline constexpr std::uint64_t kBacklogSampleNs = 10'000'000;

struct OpenLoopResult {
    std::vector<RequestOutcome> outcomes;  ///< aligned with the schedule
    /// Generator lateness per request: released - due.
    std::vector<double> send_lag_us;
    std::vector<std::uint64_t> backlog_t_ns;
    /// Released requests not yet answered (waiting for a connection or in
    /// flight), sampled at backlog_t_ns.
    std::vector<double> backlog;
    /// No answer arrived for kStallTimeoutMs while requests were
    /// outstanding; the run stopped and the unanswered ones count as failed.
    bool stalled = false;
};

/// Scheduled open-loop load generator: one thread, non-blocking sockets,
/// one epoll set, nanosecond sleeps (epoll_pwait2) between due times.
/// Requests are released at their due time into their lane's queue and
/// written to an idle connection of the lane, the way a client with a
/// connection pool sends: no pipelining, so a slow answer delays later
/// requests through the queue, never through the socket. Every request is
/// timed from its due time by the caller (done_ns - due_ns), so a stall
/// shows as waiting imposed on every later request; the generator's own
/// lateness is recorded per request. The schedule must be sorted by
/// due_ns. Throws extradeep::Error if a connection cannot be opened or a
/// socket fails.
OpenLoopResult run_open_loop(const std::vector<ScheduledRequest>& schedule,
                             const OpenLoopOptions& options);

}  // namespace e2ebench
