#include "fleet/scenario.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/format.hpp"
#include "profiling/edp_io.hpp"
#include "serve/server.hpp"

namespace extradeep::fleet {

namespace fs = std::filesystem;

namespace {

constexpr char kModelName[] = "fleet-demo";

/// One profiled run of `ranks` on `spec`'s system, as raw EDP bytes.
std::string run_edp_bytes(const ExperimentSpec& spec, int ranks, int rep) {
    const ExperimentRunner runner(spec);
    const sim::TrainingSimulator simulator(runner.workload_for(ranks));
    const profiling::Profiler profiler(spec.sampling);
    const profiling::ProfiledRun run = profiler.profile(
        simulator, {{"x1", static_cast<double>(ranks)}}, rep, spec.seed);
    std::ostringstream os;
    profiling::write_edp(os, run);
    return os.str();
}

double parse_predict_t(const std::string& response) {
    // "ok t=<v> lo=<v> hi=<v>"
    constexpr char kPrefix[] = "ok t=";
    if (response.rfind(kPrefix, 0) != 0) {
        throw Error("scenario: unexpected predict response '" + response +
                    "'");
    }
    const std::size_t start = sizeof(kPrefix) - 1;
    const std::size_t end = response.find(' ', start);
    double v = 0.0;
    if (!fmt::parse_double(response.substr(start, end - start), v)) {
        throw Error("scenario: bad predict value in '" + response + "'");
    }
    return v;
}

std::string read_file_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw Error("scenario: cannot read " + path);
    }
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// Deterministic corruptions that the tolerant parser must reject whole
/// (Error severity), not merely warn about.
std::vector<std::string> corrupt_variants(const std::string& good, int count) {
    std::vector<std::string> out;
    out.push_back(good.substr(0, good.size() / 2));       // truncated: no END
    out.push_back("EDP\t9" + good.substr(good.find('\n')));  // bad version
    out.push_back("not an edp payload at all");           // garbage
    {
        std::string no_end = good;
        const std::size_t end_pos = no_end.rfind("END");
        if (end_pos != std::string::npos) {
            no_end.erase(end_pos);
        }
        out.push_back(no_end);  // complete records, missing terminator
    }
    out.push_back(std::string());  // empty payload
    while (static_cast<int>(out.size()) < count) {
        // Further variants: progressively shorter truncations.
        out.push_back(good.substr(0, good.size() / (out.size() + 1)));
    }
    out.resize(count);
    return out;
}

double p95(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.95 * static_cast<double>(values.size())));
    return values[std::min(idx == 0 ? 0 : idx - 1, values.size() - 1)];
}

}  // namespace

ScenarioReport run_drift_scenario(const ScenarioOptions& options) {
    if (options.ranks.empty() || options.pre_rounds < 1 ||
        options.max_drift_rounds < 1) {
        throw InvalidArgumentError("scenario: bad options");
    }
    const auto log = [&](const std::string& line) {
        if (options.verbose) {
            std::cerr << "[fleet-scenario] " << line << "\n";
        }
    };

    // Scratch layout: <work>/models (exports + hot-swap source).
    std::string work = options.work_dir;
    const bool own_work = work.empty();
    if (own_work) {
        work = (fs::temp_directory_path() /
                ("extradeep-fleet-scn-" + std::to_string(::getpid())))
                   .string();
    }
    fs::remove_all(work);
    fs::create_directories(work);
    const std::string models_dir = work + "/models";

    // Ground truth on both sides of the injection.
    ExperimentSpec base_spec = options.spec;
    const sim::DriftSpec drift{options.drift_kind, options.drift_severity, 0};
    ExperimentSpec drift_spec = base_spec;
    drift_spec.system = sim::apply_drift(base_spec.system, drift);
    const double truth_base =
        ExperimentRunner(base_spec).measured_epoch_time(options.probe_x);
    const double truth_drift =
        ExperimentRunner(drift_spec).measured_epoch_time(options.probe_x);
    log("truth at x=" + std::to_string(options.probe_x) + ": base " +
        fmt::shortest(truth_base) + "s, drifted " + fmt::shortest(truth_drift) +
        "s (" + drift.describe() + ")");

    // Fleet service + engine + real TCP daemon.
    auto registry = std::make_shared<serve::ModelRegistry>();
    FleetOptions fleet_opts;
    fleet_opts.models_dir = models_dir;
    fleet_opts.spec = base_spec;
    fleet_opts.min_runs = static_cast<int>(options.ranks.size());
    fleet_opts.quiescence_ns = 10'000'000'000ULL;  // drain() paces refits
    fleet_opts.max_pending = 4 * fleet_opts.min_runs;
    fleet_opts.window = options.window;
    fleet_opts.fit_threads = options.fit_threads;
    auto service = std::make_shared<FleetService>(fleet_opts, registry);
    auto engine = std::make_shared<serve::QueryEngine>(registry);
    engine->set_fleet_handler(service);
    serve::ServerOptions server_opts;
    server_opts.threads = options.serve_threads;
    server_opts.max_request_line = 32u << 20;  // ingest lines carry whole runs
    serve::ServeDaemon daemon(engine, server_opts);
    daemon.start();
    const std::string host = server_opts.host;
    const int port = daemon.port();

    const std::string predict_req = "predict " + std::string(kModelName) +
                                    " " + std::to_string(options.probe_x);
    std::vector<double> drain_us;
    int rep = 0;

    const auto push_round = [&](const ExperimentSpec& spec) {
        std::vector<std::string> requests;
        requests.reserve(options.ranks.size());
        for (const int ranks : options.ranks) {
            requests.push_back("ingest " + std::string(kModelName) + " " +
                               serve::escape_lines(
                                   run_edp_bytes(spec, ranks, rep)));
        }
        ++rep;
        const auto responses = serve::query_daemon(host, port, requests);
        for (const auto& r : responses) {
            if (r.rfind("ok ", 0) != 0) {
                throw Error("scenario: ingest rejected: " + r);
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        service->drain();
        const auto t1 = std::chrono::steady_clock::now();
        drain_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    };
    const auto served_probe = [&]() {
        return parse_predict_t(
            serve::query_daemon(host, port, {predict_req}).at(0));
    };

    // Phase 1: baseline rounds. The first drain installs the first model.
    for (int round = 0; round < options.pre_rounds; ++round) {
        push_round(base_spec);
    }
    const double baseline_pred = served_probe();
    const double baseline_err =
        std::abs(baseline_pred - truth_base) / truth_base;
    log("baseline prediction " + fmt::shortest(baseline_pred) + "s, rel err " +
        fmt::shortest(baseline_err));

    // Concurrent query client: runs for the entire drift phase; every
    // response must arrive and be an `ok` (zero downtime across hot swaps).
    std::atomic<bool> load_stop{false};
    std::atomic<std::uint64_t> load_queries{0};
    std::atomic<std::uint64_t> load_errors{0};
    std::atomic<std::uint64_t> load_drops{0};
    std::thread load_thread([&]() {
        const std::vector<std::string> reqs = {predict_req, "ping",
                                               "fleet-stats"};
        while (!load_stop.load()) {
            try {
                const auto responses = serve::query_daemon(host, port, reqs);
                for (const auto& r : responses) {
                    ++load_queries;
                    if (r.rfind("ok", 0) != 0) {
                        ++load_errors;
                    }
                }
            } catch (const std::exception&) {
                ++load_drops;
            }
        }
    });

    // Phase 2: inject the drift mid-stream; every subsequent run is
    // generated on the degraded system. Count runs until the served answer
    // tracks the new truth.
    bool converged = false;
    int convergence_lag_runs = 0;
    int streak = 0;
    const int runs_per_round = static_cast<int>(options.ranks.size());
    for (int round = 0; round < options.max_drift_rounds; ++round) {
        push_round(drift_spec);
        const double pred = served_probe();
        const double rel_err = std::abs(pred - truth_drift) / truth_drift;
        log("drift round " + std::to_string(round + 1) + ": served " +
            fmt::shortest(pred) + "s, rel err vs drifted truth " +
            fmt::shortest(rel_err));
        if (rel_err <= options.rel_tol) {
            ++streak;
            if (streak >= options.sustain && !converged) {
                converged = true;
                convergence_lag_runs =
                    (round + 1 - (options.sustain - 1)) * runs_per_round;
            }
            if (converged && streak >= options.sustain) {
                break;
            }
        } else {
            streak = 0;
        }
    }
    if (!converged) {
        convergence_lag_runs = options.max_drift_rounds * runs_per_round;
    }
    load_stop.store(true);
    load_thread.join();

    // Phase 3: corrupt-push batch. Every payload must be rejected with an
    // err line, and the exported model bytes must be untouched.
    const std::string model_path =
        models_dir + "/" + std::string(kModelName) + serve::kEdpmExtension;
    const std::string model_bytes_before = read_file_bytes(model_path);
    const FleetStats stats_before = service->stats();
    const std::string good_payload =
        run_edp_bytes(base_spec, options.ranks.front(), rep++);
    int corrupt_rejected = 0;
    for (const std::string& bad :
         corrupt_variants(good_payload, options.corrupt_pushes)) {
        const auto responses = serve::query_daemon(
            host, port, {"ingest " + std::string(kModelName) + " " +
                         serve::escape_lines(bad)});
        if (responses.at(0).rfind("err", 0) == 0) {
            ++corrupt_rejected;
        }
    }
    service->drain();
    const std::string model_bytes_after = read_file_bytes(model_path);
    const FleetStats stats_after = service->stats();
    const bool bytes_changed = model_bytes_before != model_bytes_after;
    log("corrupt batch: " + std::to_string(corrupt_rejected) + "/" +
        std::to_string(options.corrupt_pushes) + " rejected, model bytes " +
        (bytes_changed ? "CHANGED" : "unchanged"));

    // Shut the daemon down cleanly before tearing the service down.
    try {
        serve::query_daemon(host, port, {"shutdown"});
    } catch (const std::exception&) {
        daemon.stop();
    }
    daemon.wait();
    service->stop();

    ScenarioReport report;
    report.converged = converged;
    report.convergence_lag_runs = convergence_lag_runs;
    report.stats = stats_after;
    const std::uint64_t seed = options.spec.seed;
    const auto record = [&](const std::string& case_name,
                            const std::string& metric, double value) {
        report.records.push_back(
            gate::MetricRecord{case_name, 0.0, metric, value, seed});
    };
    record("drift", "converged", converged ? 1.0 : 0.0);
    record("drift", "convergence_lag_runs",
           static_cast<double>(convergence_lag_runs));
    record("drift", "baseline_rel_err", baseline_err);
    record("drift", "swap_count", static_cast<double>(stats_after.swaps));
    record("drift", "refit_count", static_cast<double>(stats_after.refits));
    record("drift", "final_staleness",
           static_cast<double>(stats_after.staleness_runs));
    record("loadgen", "queries", static_cast<double>(load_queries.load()));
    record("loadgen", "error_responses",
           static_cast<double>(load_errors.load()));
    record("loadgen", "dropped_queries",
           static_cast<double>(load_drops.load()));
    record("corrupt", "rejected", static_cast<double>(corrupt_rejected));
    record("corrupt", "model_bytes_changed", bytes_changed ? 1.0 : 0.0);
    // No corrupt payload may reach the aggregate: accepted must not move.
    record("corrupt", "accepted_delta",
           static_cast<double>(stats_after.accepted - stats_before.accepted));
    record("corrupt", "quarantined",
           static_cast<double>(stats_after.quarantined -
                               stats_before.quarantined));
    record("perf", "drain_p95_us", p95(drain_us));

    if (own_work) {
        std::error_code ec;
        fs::remove_all(work, ec);
    }
    return report;
}

}  // namespace extradeep::fleet
