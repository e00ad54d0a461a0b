#include "serve/loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/socket_util.hpp"

namespace extradeep::serve {

namespace {

/// Cross-thread measurement sink for one load pass.
struct LoadStats {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> max_us{0};
    obs::Histogram* latency_us = nullptr;
};

void note_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

/// One connection's request/response pump: non-blocking socket, poll-driven,
/// so an open-loop send schedule cannot deadlock against unread responses
/// (the kernel buffers fill, we keep draining the read side).
void run_connection(const LoadGenOptions& options, LoadStats& stats) {
    FdGuard fd(connect_to(options.host, options.port, options.timeout_ms));
    if (!set_nonblocking(fd.get())) {
        throw Error("loadgen: cannot set O_NONBLOCK");
    }
    const obs::Clock& clock = obs::steady_clock_instance();
    const std::size_t total =
        static_cast<std::size_t>(options.requests_per_connection);
    const std::size_t window =
        options.mode == LoadMode::Open
            ? total
            : static_cast<std::size_t>(options.pipeline_depth);
    std::size_t enqueued = 0;
    std::size_t received = 0;
    std::deque<std::uint64_t> send_ts;  // enqueue time of each outstanding
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool peer_eof = false;
    while (received < total) {
        // Top up the outgoing schedule. The 256 KiB cap only bounds client
        // memory; open-loop timestamps are still taken at schedule time, so
        // queueing delay counts toward latency as intended.
        while (enqueued < total && enqueued - received < window &&
               out.size() - out_off < (std::size_t{256} << 10)) {
            const std::string& request =
                options.requests[enqueued % options.requests.size()];
            out += request;
            out += '\n';
            send_ts.push_back(clock.now_ns());
            ++enqueued;
            stats.sent.fetch_add(1, std::memory_order_relaxed);
        }
        pollfd pfd{};
        pfd.fd = fd.get();
        pfd.events = POLLIN;
        if (out_off < out.size()) {
            pfd.events |= POLLOUT;
        }
        int ready;
        do {
            ready = ::poll(&pfd, 1,
                           options.timeout_ms > 0 ? options.timeout_ms : -1);
        } while (ready < 0 && errno == EINTR);
        if (ready == 0) {
            throw Error("loadgen: receive timed out after " +
                        std::to_string(received) + " of " +
                        std::to_string(total) + " responses");
        }
        if (ready < 0) {
            throw Error("loadgen: poll failed");
        }
        if ((pfd.revents & POLLOUT) != 0) {
            while (out_off < out.size()) {
                const ssize_t n = ::send(fd.get(), out.data() + out_off,
                                         out.size() - out_off, MSG_NOSIGNAL);
                if (n > 0) {
                    out_off += static_cast<std::size_t>(n);
                    continue;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                throw Error("loadgen: send failed");
            }
            if (out_off == out.size()) {
                out.clear();
                out_off = 0;
            }
        }
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            char chunk[4096];
            while (true) {
                const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
                if (n > 0) {
                    in.append(chunk, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                if (n == 0) {
                    peer_eof = true;
                    break;
                }
                throw Error("loadgen: recv failed");
            }
            const std::uint64_t now_ns = clock.now_ns();
            std::size_t start = 0;
            std::size_t nl;
            while ((nl = in.find('\n', start)) != std::string::npos) {
                if (send_ts.empty()) {
                    throw Error("loadgen: unsolicited response line");
                }
                const std::uint64_t sent_ns = send_ts.front();
                send_ts.pop_front();
                const std::uint64_t us =
                    now_ns >= sent_ns ? (now_ns - sent_ns) / 1000 : 0;
                stats.latency_us->observe(static_cast<double>(us));
                note_max(stats.max_us, us);
                if (in.compare(start, 4, "err ") == 0) {
                    stats.errors.fetch_add(1, std::memory_order_relaxed);
                }
                ++received;
                stats.received.fetch_add(1, std::memory_order_relaxed);
                start = nl + 1;
            }
            in.erase(0, start);
            if (peer_eof && received < total) {
                throw Error("loadgen: connection closed after " +
                            std::to_string(received) + " of " +
                            std::to_string(total) + " responses");
            }
        }
    }
}

}  // namespace

const char* load_mode_name(LoadMode mode) {
    return mode == LoadMode::Open ? "open" : "closed";
}

LoadGenResult run_load(const LoadGenOptions& options) {
    if (options.port <= 0) {
        throw InvalidArgumentError("loadgen: port must be positive");
    }
    if (options.connections < 1 || options.requests_per_connection < 1 ||
        options.pipeline_depth < 1) {
        throw InvalidArgumentError(
            "loadgen: connections, requests and pipeline depth must be >= 1");
    }
    if (options.requests.empty()) {
        throw InvalidArgumentError("loadgen: no request lines given");
    }
    obs::MetricsRegistry metrics;
    LoadStats stats;
    stats.latency_us = &metrics.histogram(
        "extradeep_loadgen_latency_us",
        obs::MetricsRegistry::default_latency_buckets_us());

    const obs::Clock& clock = obs::steady_clock_instance();
    const std::uint64_t start_ns = clock.now_ns();
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> failures(
        static_cast<std::size_t>(options.connections));
    clients.reserve(static_cast<std::size_t>(options.connections));
    for (int c = 0; c < options.connections; ++c) {
        clients.emplace_back([&options, &stats, &failures, c] {
            try {
                run_connection(options, stats);
            } catch (...) {
                failures[static_cast<std::size_t>(c)] =
                    std::current_exception();
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (const auto& failure : failures) {
        if (failure) {
            std::rethrow_exception(failure);
        }
    }
    const std::uint64_t end_ns = clock.now_ns();

    LoadGenResult result;
    result.requests_sent = stats.sent.load();
    result.responses_received = stats.received.load();
    result.error_responses = stats.errors.load();
    result.wall_seconds =
        static_cast<double>(end_ns - start_ns) / 1e9;
    result.qps = result.wall_seconds > 0.0
                     ? static_cast<double>(result.responses_received) /
                           result.wall_seconds
                     : 0.0;
    const obs::Histogram& h = *stats.latency_us;
    result.latency_p50_us = h.quantile(0.50);
    result.latency_p95_us = h.quantile(0.95);
    result.latency_p99_us = h.quantile(0.99);
    result.latency_mean_us =
        h.count() > 0 ? h.sum() / static_cast<double>(h.count()) : 0.0;
    result.latency_max_us = static_cast<double>(stats.max_us.load());
    return result;
}

std::vector<gate::MetricRecord> to_records(const LoadGenRecord& record) {
    const LoadGenResult& r = record.result;
    const std::pair<const char*, double> metrics[] = {
        {"qps", r.qps},
        {"latency_p50_us", r.latency_p50_us},
        {"latency_p95_us", r.latency_p95_us},
        {"latency_p99_us", r.latency_p99_us},
        {"latency_mean_us", r.latency_mean_us},
        {"latency_max_us", r.latency_max_us},
        {"requests", static_cast<double>(r.requests_sent)},
        {"responses", static_cast<double>(r.responses_received)},
        {"errors", static_cast<double>(r.error_responses)},
        {"wall_seconds", r.wall_seconds},
    };
    std::vector<gate::MetricRecord> out;
    for (const auto& [metric, value] : metrics) {
        out.push_back({record.mode, 0.0, metric, value});
    }
    return out;
}

std::string load_config_json(const LoadGenOptions& options, int threads) {
    std::ostringstream os;
    os << "{\"connections\": " << options.connections
       << ", \"requests_per_connection\": " << options.requests_per_connection
       << ", \"pipeline_depth\": " << options.pipeline_depth
       << ", \"daemon_threads\": " << threads << ", \"request_mix\": [";
    for (std::size_t i = 0; i < options.requests.size(); ++i) {
        os << (i == 0 ? "" : ", ") << json::quote(options.requests[i]);
    }
    os << "]}";
    return os.str();
}

}  // namespace extradeep::serve
