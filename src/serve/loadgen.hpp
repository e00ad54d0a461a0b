#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/gate.hpp"

namespace extradeep::serve {

/// Load-generator client for the serve daemon: N concurrent connections,
/// each issuing M pipelined requests, measuring end-to-end request latency
/// into the observability subsystem's fixed-bucket histograms (the same
/// instrument family the daemon's own `stats`/`metrics` verbs use), and
/// reporting qps plus histogram-estimated p50/p95/p99. This is the
/// measurement half of the serve regression gate (`BENCH_serve.json`,
/// `serve_bench_gate`), and doubles as an adversarial client for the
/// event-loop tests.

enum class LoadMode {
    /// Closed loop: each connection keeps at most pipeline_depth requests
    /// outstanding and sends the next only after a response arrives —
    /// throughput adapts to the server.
    Closed,
    /// Open loop: each connection enqueues its whole request schedule up
    /// front regardless of responses — latency includes queueing delay, the
    /// way an overloaded server is actually experienced.
    Open,
};

const char* load_mode_name(LoadMode mode);

struct LoadGenOptions {
    std::string host = "127.0.0.1";
    int port = 0;
    int connections = 4;
    int requests_per_connection = 100;
    int pipeline_depth = 8;  ///< closed-loop window, >= 1 (ignored when Open)
    LoadMode mode = LoadMode::Closed;
    /// Request lines cycled per connection; must be non-empty.
    std::vector<std::string> requests;
    int timeout_ms = 10000;
};

struct LoadGenResult {
    std::uint64_t requests_sent = 0;
    std::uint64_t responses_received = 0;
    std::uint64_t error_responses = 0;  ///< `err ...` protocol responses
    double wall_seconds = 0.0;
    double qps = 0.0;
    /// Histogram-estimated quantiles (bucket upper edges, microseconds),
    /// deterministic for a given latency sample set.
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    double latency_mean_us = 0.0;
    double latency_max_us = 0.0;
};

/// Runs one load pass against a live daemon. Every connection runs on its
/// own thread with a non-blocking socket pump (so open-loop sends cannot
/// deadlock against unread responses). Throws Error if a connection fails,
/// times out, or is closed before all responses arrive.
LoadGenResult run_load(const LoadGenOptions& options);

/// One named measurement pass for the report.
struct LoadGenRecord {
    std::string mode;  ///< "closed" or "open"
    LoadGenResult result;
};

/// Flattens one pass into BENCH_serve.json records (schema
/// extradeep-serve-bench/1), case = the loop mode: qps, latency_p50_us,
/// latency_p95_us, latency_p99_us, latency_mean_us, latency_max_us,
/// requests, responses, errors, wall_seconds.
std::vector<gate::MetricRecord> to_records(const LoadGenRecord& record);

/// The BENCH_serve.json "config" member: connections, requests per
/// connection, pipeline depth, daemon threads and the request mix.
std::string load_config_json(const LoadGenOptions& options, int threads);

}  // namespace extradeep::serve
