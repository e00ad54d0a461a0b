// Serve-layer probes, run on the fleet probe's live daemon once the push
// stream has drained: library-mode QueryEngine::execute per verb, transport
// round trips, and an open-loop rate ladder over the full query mix (the
// ladder behind e2e.max_rate_qps).

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "openloop.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/socket_util.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace extradeep;

namespace e2ebench {

namespace {

/// The ladder behind e2e.max_rate_qps, and the latency limit a step's p99
/// must meet to count as sustained.
constexpr double kLadderQps[] = {4000.0, 8000.0, 16000.0, 32000.0};
constexpr double kLadderP99LimitUs = 5000.0;
constexpr double kLadderStepSeconds = 0.75;
constexpr double kWarmupQps = 4000.0;
constexpr double kWarmupSeconds = 0.25;

std::string verb_of(const std::string& line) {
    return line.substr(0, line.find(' '));
}

struct Segment {
    double rate = 0.0;
    std::vector<double> latency_us;  ///< answered requests, from due time
    std::size_t failed = 0;
    OpenLoopResult result;
};

/// Runs one constant-rate segment through a pool of host_threads()
/// connections, consuming the request pool from `cursor` on. Every answer
/// must equal the library-mode answer of its pool line; unanswered and
/// differing answers count as failed.
Segment run_segment(int port, const std::vector<std::string>& pool,
                    const std::vector<std::string>& expected,
                    std::size_t& cursor, double rate, double seconds,
                    RunResult& result) {
    Segment seg;
    seg.rate = rate;
    const auto count = static_cast<std::size_t>(rate * seconds);
    std::vector<std::size_t> line_of(count);
    std::vector<ScheduledRequest> schedule(count);
    const std::uint64_t start = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < count; ++i) {
        line_of[i] = cursor++ % pool.size();
        schedule[i].due_ns =
            start + static_cast<std::uint64_t>(static_cast<double>(i) / rate * 1e9);
        schedule[i].line = pool[line_of[i]];
    }
    OpenLoopOptions opts;
    opts.port = port;
    opts.lanes = {host_threads()};
    opts.on_response = [&](std::size_t i, RequestOutcome& out) {
        const std::string& want = expected[line_of[i]];
        if (out.response != want) {
            ++seg.failed;
            result.fail("'" + pool[line_of[i]] + "' answered '" +
                        out.response + "', library mode '" + want + "'");
        }
        std::string().swap(out.response);
    };
    seg.result = run_open_loop(schedule, opts);
    result.attempted += count;
    for (std::size_t i = 0; i < count; ++i) {
        const RequestOutcome& o = seg.result.outcomes[i];
        if (o.answered) {
            seg.latency_us.push_back(
                static_cast<double>(o.done_ns - schedule[i].due_ns) * 1e-3);
        } else {
            ++seg.failed;
            result.fail("unanswered: " + pool[line_of[i]]);
        }
    }
    return seg;
}

/// Closed-loop round trips of `lines` on one blocking connection, in µs.
std::vector<double> round_trips(int port, const std::vector<std::string>& lines) {
    serve::FdGuard fd(serve::connect_to("127.0.0.1", port, 10000));
    serve::LineReader reader(fd.get(), 1 << 20);
    std::vector<double> out;
    std::string response;
    for (const std::string& line : lines) {
        const std::uint64_t t0 = now_ns();
        if (!serve::send_all(fd.get(), line + "\n") ||
            !reader.next_line(response)) {
            throw Error("serve probe: round trip failed");
        }
        out.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return out;
}

/// Pipelined pairs on one connection: two pings written in one send, the
/// round trip of the second answer in µs, `pairs` times with a pause
/// between pairs. Shows a response held back by the transport (e.g. by
/// Nagle's algorithm waiting for the client's delayed ACK of the first).
std::vector<double> pipelined_pairs(int port, int pairs) {
    serve::FdGuard fd(serve::connect_to("127.0.0.1", port, 10000));
    serve::LineReader reader(fd.get(), 1 << 20);
    std::vector<double> out;
    std::string response;
    for (int i = 0; i < pairs; ++i) {
        const std::uint64_t t0 = now_ns();
        if (!serve::send_all(fd.get(), "ping\nping\n") ||
            !reader.next_line(response) || !reader.next_line(response)) {
            throw Error("serve probe: pipelined round trip failed");
        }
        out.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        const timespec pause{0, 5'000'000};
        nanosleep(&pause, nullptr);
    }
    return out;
}

}  // namespace

void probe_serve_layers(int port, const std::string& models_dir,
                        std::uint64_t seed, Ledger& ledger, RunResult& result) {
    std::vector<std::string> names;
    for (const std::string& p : list_files(models_dir, serve::kEdpmExtension)) {
        names.push_back(fs::path(p).stem().string());
    }
    // The request pool and its library-mode answers: QueryEngine::execute
    // on a registry loaded from the same directory. Lines the library
    // itself answers with `err` (e.g. a cost query where a model
    // extrapolates to a non-positive runtime) leave the pool, so every
    // operation can succeed; their count is reported.
    auto library_registry = std::make_shared<serve::ModelRegistry>();
    library_registry->load_directory(models_dir);
    serve::QueryEngine library(library_registry);
    std::vector<std::string> pool;
    std::vector<std::string> expected;
    std::size_t pool_errors = 0;
    for (std::string& line : serve_requests(seed, names, 20000)) {
        std::string answer = library.execute(line);
        if (answer.rfind("ok", 0) != 0) {
            ++pool_errors;
            continue;
        }
        pool.push_back(std::move(line));
        expected.push_back(std::move(answer));
    }
    ledger.set("query.pool_errors", static_cast<double>(pool_errors));

    std::size_t cursor = 0;
    run_segment(port, pool, expected, cursor, kWarmupQps, kWarmupSeconds, result);
    std::vector<StepVerdict> verdicts;
    for (std::size_t k = 0; k < std::size(kLadderQps); ++k) {
        const Ledger::Span span(ledger, "ladder.step");
        const Segment seg = run_segment(port, pool, expected, cursor,
                                        kLadderQps[k], kLadderStepSeconds, result);
        LadderStep step;
        step.rate_qps = seg.rate;
        step.latency_us = seg.latency_us;
        step.failed = seg.failed;
        step.backlog = seg.result.backlog;
        verdicts.push_back(judge_step(step, kLadderP99LimitUs));
        const std::string key = "ladder.r" + std::to_string(k + 1);
        ledger.set(key + ".p50_us", verdicts.back().p50.value);
        ledger.set(key + ".p99_us", verdicts.back().p99.value);
    }
    ledger.set("e2e.max_rate_qps", max_sustained_rate(verdicts));

    // Library-mode execute per verb, then the transport on top of it.
    std::map<std::string, std::vector<std::string>> by_verb;
    for (const std::string& line : pool) {
        auto& v = by_verb[verb_of(line)];
        if (v.size() < 200) {
            v.push_back(line);
        }
    }
    for (const char* verb : {"predict", "speedup", "efficiency", "cost",
                             "search", "whatif", "advise", "plan"}) {
        const std::string span_name = std::string("query.execute.") + verb;
        for (int round = 0; round < 3; ++round) {
            for (const std::string& line : by_verb[verb]) {
                const Ledger::Span span(ledger, span_name);
                library.execute(line);
            }
        }
        ledger.set(std::string("query.execute_p50_us.") + verb,
                   median(ledger.durations(span_name)) * 1e6);
    }
    ledger.set("server.ping_rtt_p50_us",
               median(round_trips(port, std::vector<std::string>(500, "ping"))));
    ledger.set("server.pipelined_pair_p50_us",
               median(pipelined_pairs(port, 50)));
    ledger.set("server.overhead_p50_us",
               median(round_trips(port, by_verb["predict"])) -
                   ledger.metrics().at("query.execute_p50_us.predict"));
}

}  // namespace e2ebench
