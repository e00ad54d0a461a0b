// Fleet-layer probe of traced build_sampled runs: FleetService attached to
// the serve daemon. Pre-generated EDP runs are pushed with the `ingest` verb
// on one connection while `predict` reads arrive on another, so refits and
// hot swaps compete with the reads. The serve layers are then probed on the
// same daemon (serve_probes.cpp).

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "fleet/continuous.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "openloop.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace extradeep;

namespace e2ebench {

namespace {

constexpr int kSetupProbes = 5;
/// Fixed push and read rates, and the fixed debounce/poll settings.
constexpr double kPushesPerSecond = 40.0;
constexpr double kReadsPerSecond = 200.0;
/// Length of the push + read stream.
constexpr double kFleetSegmentSeconds = 5.0;
constexpr std::uint64_t kPollNs = 1'000'000;
constexpr int kMinRuns = 5;  ///< one batch = one run per configuration
constexpr std::uint64_t kQuiescenceNs = 60'000'000'000ULL;  ///< never fires

enum Lane { kPushLane = 0, kReadLane = 1 };

fleet::FleetOptions fleet_options(std::uint64_t seed,
                                  const std::string& models_dir) {
    fleet::FleetOptions o;
    o.models_dir = models_dir;
    o.spec = fleet_template_spec(seed);
    o.min_runs = kMinRuns;
    o.quiescence_ns = kQuiescenceNs;
    o.max_pending = 16;
    o.window = 6;
    o.fit_threads = 1;
    return o;
}

/// Times FleetService::handle_ingest from outside the service; every other
/// call is forwarded unchanged.
class TimedHandler final : public serve::FleetHandler {
public:
    explicit TimedHandler(std::shared_ptr<fleet::FleetService> inner)
        : inner_(std::move(inner)) {}

    std::string handle_ingest(const std::string& experiment,
                              const std::string& payload) override {
        const std::uint64_t t0 = now_ns();
        std::string out = inner_->handle_ingest(experiment, payload);
        const double us = static_cast<double>(now_ns() - t0) * 1e-3;
        const std::lock_guard<std::mutex> lock(mutex_);
        samples_us_.push_back(us);
        return out;
    }
    std::string fleet_stats_line() override {
        return inner_->fleet_stats_line();
    }
    void attach_metrics(obs::MetricsRegistry& metrics) override {
        inner_->attach_metrics(metrics);
    }
    void update_metrics() override { inner_->update_metrics(); }

    std::vector<double> samples_us() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return samples_us_;
    }

private:
    std::shared_ptr<fleet::FleetService> inner_;
    mutable std::mutex mutex_;
    std::vector<double> samples_us_;
};

struct FleetStack {
    std::shared_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<fleet::FleetService> service;
    std::shared_ptr<TimedHandler> timed;  ///< null in the set-up probes
    std::shared_ptr<serve::QueryEngine> engine;
    std::unique_ptr<serve::ServeDaemon> daemon;

    ~FleetStack() {
        if (daemon) {
            daemon->stop();
            daemon->wait();
        }
    }
};

/// FleetService construction (which loads the registry) + daemon start, up
/// to the first `ping` answered ok.
std::unique_ptr<FleetStack> start_stack(std::uint64_t seed,
                                        const std::string& models_dir,
                                        bool timed, Ledger& ledger) {
    auto stack = std::make_unique<FleetStack>();
    stack->registry = std::make_shared<serve::ModelRegistry>();
    {
        const Ledger::Span span(ledger, "registry.load_directory");
        stack->service = std::make_shared<fleet::FleetService>(
            fleet_options(seed, models_dir), stack->registry);
    }
    stack->engine = std::make_shared<serve::QueryEngine>(stack->registry);
    if (timed) {
        stack->timed = std::make_shared<TimedHandler>(stack->service);
        stack->engine->set_fleet_handler(stack->timed);
    } else {
        stack->engine->set_fleet_handler(stack->service);
    }
    serve::ServerOptions opts;
    // Generator, event loop and the refit worker take three host threads.
    opts.threads = std::max(1, host_threads() - 3);
    opts.max_request_line = 16u << 20;  // an ingest line carries a whole run
    stack->daemon = std::make_unique<serve::ServeDaemon>(stack->engine, opts);
    stack->daemon->start();
    const auto pong =
        serve::query_daemon("127.0.0.1", stack->daemon->port(), {"ping"});
    if (pong.size() != 1 || pong[0].rfind("ok", 0) != 0) {
        throw Error("fleet probe: daemon did not answer ping");
    }
    return stack;
}

void copy_models(const std::string& from, const std::string& to) {
    fs::remove_all(to);
    fs::create_directories(to);
    for (const std::string& p : list_files(from, serve::kEdpmExtension)) {
        fs::copy_file(p, to + "/" + fs::path(p).filename().string());
    }
}

/// One timed segment of pushes and reads.
struct Segment {
    std::vector<double> push_us;       ///< ingest round trips, from due
    std::vector<double> read_us;       ///< predict latencies, from due
    std::vector<double> freshness_ms;  ///< batch ack -> batch served
    std::vector<double> lag_us;
    double backlog_max = 0.0;
    std::uint64_t staleness_max = 0;
};

/// Runs `seconds` of the push + read schedule, continuing the push
/// sequence at `push_cursor`. Checks that every answer is `ok`.
Segment run_segment(FleetStack& stack, const std::vector<std::string>& push_lines,
                    const std::vector<std::string>& reads,
                    std::size_t& push_cursor, std::size_t& read_cursor,
                    double seconds, std::vector<std::size_t>& pushed,
                    RunResult& result) {
    Segment seg;
    std::vector<ScheduledRequest> schedule;
    std::vector<bool> is_push;
    const std::uint64_t start = now_ns() + 2'000'000;
    const auto n_push = static_cast<std::size_t>(kPushesPerSecond * seconds);
    const auto n_read = static_cast<std::size_t>(kReadsPerSecond * seconds);
    std::vector<std::size_t> push_index;
    for (std::size_t i = 0, j = 0; i < n_push || j < n_read;) {
        const auto push_due = start + static_cast<std::uint64_t>(
                                          static_cast<double>(i) / kPushesPerSecond * 1e9);
        const auto read_due = start + static_cast<std::uint64_t>(
                                          static_cast<double>(j) / kReadsPerSecond * 1e9);
        ScheduledRequest r;
        if (i < n_push && (j >= n_read || push_due <= read_due)) {
            r.due_ns = push_due;
            r.lane = kPushLane;
            const std::size_t p = push_cursor++;
            r.line = push_lines[p % push_lines.size()];
            push_index.push_back(p);
            is_push.push_back(true);
            ++i;
        } else {
            r.due_ns = read_due;
            r.lane = kReadLane;
            r.line = reads[read_cursor++ % reads.size()];
            push_index.push_back(0);
            is_push.push_back(false);
            ++j;
        }
        schedule.push_back(r);
    }

    struct PendingBatch {
        std::uint64_t ack_ns;
        std::uint64_t accepted;
        std::uint64_t swaps;
    };
    std::deque<PendingBatch> batches;
    fleet::FleetService& service = *stack.service;
    const auto resolve = [&](std::uint64_t now) {
        const fleet::FleetStats s = service.stats();
        seg.staleness_max = std::max(seg.staleness_max, s.staleness_runs);
        while (!batches.empty() && s.swaps > batches.front().swaps &&
               s.staleness_runs <= s.accepted - batches.front().accepted) {
            seg.freshness_ms.push_back(
                static_cast<double>(now - batches.front().ack_ns) * 1e-6);
            batches.pop_front();
        }
    };
    OpenLoopOptions opts;
    opts.port = stack.daemon->port();
    opts.lanes = {1, 1};
    opts.tick_ns = kPollNs;
    opts.on_tick = [&](std::uint64_t now) {
        service.poll_once();
        resolve(now);
    };
    opts.on_response = [&](std::size_t idx, RequestOutcome& out) {
        if (is_push[idx] && push_index[idx] % kMinRuns == kMinRuns - 1 &&
            out.response.rfind("ok", 0) == 0) {
            const fleet::FleetStats s = service.stats();
            batches.push_back({out.done_ns, s.accepted, s.swaps});
        }
    };
    const OpenLoopResult res = run_open_loop(schedule, opts);
    // Let the last batch land, polling as the loop did.
    const std::uint64_t tail_end = now_ns() + 5'000'000'000ULL;
    while (!batches.empty() && now_ns() < tail_end) {
        service.poll_once();
        resolve(now_ns());
        const timespec ts{0, static_cast<long>(kPollNs)};
        nanosleep(&ts, nullptr);
    }
    if (!batches.empty()) {
        result.fail("a pushed batch was never served", batches.size());
    }

    for (std::size_t k = 0; k < schedule.size(); ++k) {
        const RequestOutcome& o = res.outcomes[k];
        ++result.attempted;
        if (!o.answered || o.response.rfind("ok", 0) != 0) {
            result.fail(std::string(is_push[k] ? "push" : "read") +
                        " answered '" + o.response.substr(0, 200) + "'");
            continue;
        }
        const double us = static_cast<double>(o.done_ns - schedule[k].due_ns) * 1e-3;
        if (is_push[k]) {
            seg.push_us.push_back(us);
            pushed.push_back(push_index[k]);
        } else {
            seg.read_us.push_back(us);
        }
    }
    seg.lag_us = res.send_lag_us;
    for (const double b : res.backlog) {
        seg.backlog_max = std::max(seg.backlog_max, b);
    }
    return seg;
}

std::string experiment_of(const std::string& push_line) {
    const std::size_t a = push_line.find(' ') + 1;
    return push_line.substr(a, push_line.find(' ', a) - a);
}

std::string payload_of(const std::string& push_line) {
    const std::size_t a = push_line.find(' ') + 1;
    return push_line.substr(push_line.find(' ', a) + 1);
}

}  // namespace

void probe_fleet_layers(const RunArgs& args, const std::string& inputs,
                        Ledger& ledger, RunResult& result) {
    const std::string models_dir = args.work + "/fleet-models";
    copy_models(inputs + "/models", models_dir);

    // The distinct push lines: the push sequence repeats with this period.
    const std::size_t period = fleet_experiments().size() *
                               fleet_ranks().size() * kFleetRunsPerConfig;
    std::vector<std::string> push_lines;
    for (std::size_t i = 0; i < period; ++i) {
        const Push p = push_at(inputs + "/pushes", i);
        push_lines.push_back("ingest " + p.experiment + " " +
                             serve::escape_lines(read_file(p.path)));
    }
    std::vector<std::string> names;
    for (const std::string& p :
         list_files(inputs + "/models", serve::kEdpmExtension)) {
        names.push_back(fs::path(p).stem().string());
    }
    const std::vector<std::string> reads = predict_requests(args.seed, names, 20000);

    // FleetService construction + daemon start, several times (the
    // registry.load_s spans).
    for (int i = 0; i < kSetupProbes; ++i) {
        start_stack(args.seed, models_dir, false, ledger);
    }
    auto stack = start_stack(args.seed, models_dir, true, ledger);
    std::size_t push_cursor = 0;
    std::size_t read_cursor = 0;
    std::vector<std::size_t> pushed;
    Segment seg;
    {
        const Ledger::Span span(ledger, "fleet.segment");
        seg = run_segment(*stack, push_lines, reads, push_cursor, read_cursor,
                          kFleetSegmentSeconds, pushed, result);
    }
    stack->service->drain();
    const fleet::FleetStats live = stack->service->stats();
    const std::vector<double> handle_us = stack->timed->samples_us();
    probe_serve_layers(stack->daemon->port(), models_dir, args.seed, ledger,
                       result);
    stack.reset();

    // Serial replay of the same push sequence through a fresh service: the
    // served models must end byte-identical.
    const std::string replay_dir = args.work + "/fleet-replay";
    copy_models(inputs + "/models", replay_dir);
    auto replay = std::make_shared<fleet::FleetService>(
        fleet_options(args.seed, replay_dir),
        std::make_shared<serve::ModelRegistry>());
    for (std::size_t k = 0; k < pushed.size(); ++k) {
        const std::string& line = push_lines[pushed[k] % push_lines.size()];
        try {
            replay->handle_ingest(experiment_of(line), payload_of(line));
        } catch (const std::exception& e) {
            result.fail(std::string("replay push rejected: ") + e.what());
        }
        if (pushed[k] % kMinRuns == kMinRuns - 1) {
            // Refit after every batch: dispatch, fit, install.
            const Ledger::Span span(ledger, "fleet.refit");
            replay->drain();
        }
    }
    replay->drain();
    for (const std::string& e : fleet_experiments()) {
        ++result.attempted;
        const std::string file = std::string("/") + e + serve::kEdpmExtension;
        if (read_file(models_dir + file) != read_file(replay_dir + file)) {
            result.fail("served model of " + e +
                        " differs from the serial replay");
        }
    }

    const Percentile push_p50 = percentile(seg.push_us, 0.5);
    const Percentile push_p90 = percentile(seg.push_us, 0.9);
    const Percentile fresh_p50 = percentile(seg.freshness_ms, 0.5);
    const Percentile fresh_p90 = percentile(seg.freshness_ms, 0.9);
    const Percentile read_p50 = percentile(seg.read_us, 0.5);
    const Percentile read_p99 = percentile(seg.read_us, 0.99);
    const auto reported = [](const Percentile& p) {
        return p.reportable ? p.value : 0.0;
    };
    ledger.set("e2e.push_p50_us", push_p50.value);
    ledger.set("e2e.push_p90_us", reported(push_p90));
    ledger.set("e2e.push_n", static_cast<double>(push_p50.n));
    ledger.set("e2e.freshness_p50_ms", fresh_p50.value);
    ledger.set("e2e.freshness_p90_ms", reported(fresh_p90));
    ledger.set("e2e.freshness_n", static_cast<double>(fresh_p50.n));
    ledger.set("e2e.query_p50_us", read_p50.value);
    ledger.set("e2e.query_p99_us", reported(read_p99));
    ledger.set("e2e.query_n", static_cast<double>(read_p50.n));
    ledger.set("loadgen.send_lag_p99_us", percentile(seg.lag_us, 0.99).value);
    ledger.set("loadgen.backlog_max", seg.backlog_max);
    ledger.set("loadgen.rate_achieved_qps",
               static_cast<double>(seg.read_us.size() + seg.push_us.size()) /
                   kFleetSegmentSeconds);

    ledger.set("registry.load_s",
               median(ledger.durations("registry.load_directory")));
    ledger.set("registry.models", static_cast<double>(names.size()));
    ledger.set("fleet.handle_ingest_p50_us", median(handle_us));
    ledger.set("fleet.refit_p50_ms", median(ledger.durations("fleet.refit")) * 1e3);
    ledger.set("fleet.refits", static_cast<double>(live.refits));
    ledger.set("fleet.swaps", static_cast<double>(live.swaps));
    ledger.set("fleet.swap_ratio",
               live.refits == 0 ? 0.0
                                : static_cast<double>(live.swaps) /
                                      static_cast<double>(live.refits));
    ledger.set("fleet.refits_skipped", static_cast<double>(live.refits_skipped));
    ledger.set("fleet.stale_discarded", static_cast<double>(live.stale_discarded));
    ledger.set("fleet.quarantined", static_cast<double>(live.quarantined));
    ledger.set("fleet.staleness_max_runs",
               static_cast<double>(seg.staleness_max));

    // Install (export + registry hot swap) of an already-fitted model.
    {
        const std::string name = fleet_experiments().front();
        const serve::ServableModel model = serve::read_edpm_file(
            replay_dir + "/" + name + serve::kEdpmExtension);
        for (std::uint64_t g = 0; g < 20; ++g) {
            const Ledger::Span span(ledger, "fleet.install");
            replay->install_model(name, 1'000'000'000ULL + g, model);
        }
        ledger.set("fleet.install_p50_us",
                   median(ledger.durations("fleet.install")) * 1e6);
    }
}

}  // namespace e2ebench
