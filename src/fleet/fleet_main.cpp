// extradeep-fleet: the continuous-modeling fleet daemon and its drivers.
//
// Four modes over the src/fleet subsystem:
//
//   serve   — run the full continuous loop: a query daemon (all serve verbs
//             plus `ingest`/`fleet-stats`) with an attached FleetService
//             that watches a spool directory, re-fits arriving runs on a
//             background pool, and hot-swaps exported models. Prints
//             `LISTENING <port>` when ready.
//   drive   — fleet collector client: generates profile runs (optionally
//             switching to a drifted system mid-stream), pushes them over
//             the `ingest` verb (or drops them into a spool directory),
//             waits for the loop to catch up (fleet-stats staleness), and
//             checks that served predictions converge to the new ground
//             truth. Prints `CONVERGED runs=N` on success.
//   query   — client passthrough: send request lines to a running daemon.
//   --quick — in-process end-to-end drift scenario (daemon + concurrent
//             load client + corrupt-push batch) feeding the
//             fleet_drift_gate thresholds and BENCH_fleet.json.

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "fleet/continuous.hpp"
#include "fleet/scenario.hpp"
#include "obs/session.hpp"
#include "profiling/edp_io.hpp"
#include "serve/server.hpp"
#include "sim/drift.hpp"

using namespace extradeep;

namespace {

namespace stdfs = std::filesystem;

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s serve --models DIR [--spool DIR] [--port N] [--threads N]\n"
        "               [--fit-threads N] [--min-runs N] [--quiescence-ms N]\n"
        "               [--window N] [--max-pending N] [--poll-ms N]\n"
        "               [--max-line BYTES] [--trace SPEC] [spec options]\n"
        "       %s drive (--port N [--host H] | --spool DIR) "
        "--experiment NAME\n"
        "               [--ranks 2,4,6,8,10] [--pre N] [--post N]\n"
        "               [--drift none|hw:SEV[@R]|sw:SEV[@R]] [--probe X]\n"
        "               [--tol F] [--window N] [--wait-ms N] [spec options]\n"
        "       %s query --port N [--host H] REQUEST...\n"
        "       %s --quick --thresholds FILE [--out FILE] [--verbose]\n"
        "spec options: --dataset D --system DEEP|JURECA "
        "--strategy data|tensor|pipeline\n"
        "              --scaling weak|strong --batch B --mdegree M --seed N\n",
        argv0, argv0, argv0, argv0);
}

std::vector<int> parse_rank_list(const std::string& arg) {
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        const std::string token =
            arg.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        std::size_t used = 0;
        const int v = std::stoi(token, &used);
        if (token.empty() || used != token.size() || v < 1) {
            throw InvalidArgumentError("--ranks: bad rank count '" + token +
                                       "'");
        }
        out.push_back(v);
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

hw::SystemSpec parse_system(const std::string& name) {
    if (name == "DEEP" || name == "deep") {
        return hw::SystemSpec::deep();
    }
    if (name == "JURECA" || name == "jureca") {
        return hw::SystemSpec::jureca();
    }
    throw InvalidArgumentError("--system: unknown system '" + name +
                               "' (expected DEEP or JURECA)");
}

/// Spec flags shared by serve and drive (daemon and collector must agree on
/// the experiment template). Returns true if `arg` was consumed.
bool parse_spec_flag(const std::string& arg, cli::Args& args,
                     ExperimentSpec& spec) {
    if (arg == "--dataset") {
        spec.dataset = args.value(arg);
    } else if (arg == "--system") {
        spec.system = parse_system(args.value(arg));
    } else if (arg == "--strategy") {
        spec.strategy = parallel::parse_strategy(args.value(arg));
    } else if (arg == "--scaling") {
        spec.scaling = parallel::parse_scaling(args.value(arg));
    } else if (arg == "--batch") {
        spec.batch_per_worker = std::stoll(args.value(arg));
    } else if (arg == "--mdegree") {
        spec.model_parallel_degree = std::stoi(args.value(arg));
    } else if (arg == "--seed") {
        spec.seed = std::stoull(args.value(arg));
    } else {
        return false;
    }
    return true;
}

serve::ServeDaemon* g_daemon = nullptr;

void handle_signal(int) {
    if (g_daemon != nullptr) {
        g_daemon->stop();  // shutdown(2) is async-signal-safe
    }
}

int run_serve(cli::Args args) {
    fleet::FleetOptions fleet_opts;
    serve::ServerOptions server_opts;
    server_opts.max_request_line = 32u << 20;  // ingest payloads
    int poll_ms = 100;
    std::string trace_spec;
    bool trace_given = false;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--models") {
            fleet_opts.models_dir = args.value(arg);
        } else if (arg == "--spool") {
            fleet_opts.spool_dir = args.value(arg);
        } else if (arg == "--port") {
            server_opts.port = std::stoi(args.value(arg));
        } else if (arg == "--host") {
            server_opts.host = args.value(arg);
        } else if (arg == "--threads") {
            server_opts.threads = std::stoi(args.value(arg));
        } else if (arg == "--fit-threads") {
            fleet_opts.fit_threads = std::stoi(args.value(arg));
        } else if (arg == "--min-runs") {
            fleet_opts.min_runs = std::stoi(args.value(arg));
        } else if (arg == "--quiescence-ms") {
            fleet_opts.quiescence_ns =
                std::stoull(args.value(arg)) * 1'000'000ULL;
        } else if (arg == "--window") {
            fleet_opts.window = std::stoi(args.value(arg));
        } else if (arg == "--max-pending") {
            fleet_opts.max_pending = std::stoi(args.value(arg));
        } else if (arg == "--poll-ms") {
            poll_ms = std::stoi(args.value(arg));
        } else if (arg == "--max-line") {
            server_opts.max_request_line = std::stoull(args.value(arg));
        } else if (arg == "--trace") {
            trace_spec = args.value(arg);
            trace_given = true;
        } else if (parse_spec_flag(arg, args, fleet_opts.spec)) {
        } else {
            throw InvalidArgumentError("serve: unknown option '" + arg + "'");
        }
    }
    if (fleet_opts.models_dir.empty()) {
        throw InvalidArgumentError("serve: --models DIR is required");
    }
    obs::ObsConfig obs_config = trace_given ? obs::parse_obs_config(trace_spec)
                                            : obs::obs_config_from_env();
    const obs::ObsSession session(std::move(obs_config));

    auto registry = std::make_shared<serve::ModelRegistry>();
    auto service = std::make_shared<fleet::FleetService>(fleet_opts, registry);
    auto engine = std::make_shared<serve::QueryEngine>(registry);
    engine->set_fleet_handler(service);
    serve::ServeDaemon daemon(engine, server_opts);
    daemon.start();
    service->start(poll_ms);
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("LISTENING %d\n", daemon.port());
    std::fflush(stdout);
    daemon.wait();
    g_daemon = nullptr;
    service->stop();
    service->drain();  // finish in-flight fits before reporting
    std::printf("stopped: %s\n", service->fleet_stats_line().c_str());
    return 0;
}

/// Extracts `key=<value>` from a fleet-stats line; -1 if absent.
long long stats_field(const std::string& line, const std::string& key) {
    const std::string needle = key + "=";
    std::size_t pos = line.find(" " + needle);
    if (pos == std::string::npos) {
        if (line.rfind(needle, 0) != 0) {
            return -1;
        }
        pos = 0;
    } else {
        ++pos;
    }
    pos += needle.size();
    const std::size_t end = line.find(' ', pos);
    try {
        return std::stoll(line.substr(pos, end - pos));
    } catch (const std::exception&) {
        return -1;
    }
}

int run_drive(cli::Args args) {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string spool_dir;
    std::string experiment;
    std::vector<int> ranks = {2, 4, 6, 8, 10};
    int pre = 1;
    int post = 4;
    sim::DriftSpec drift;
    drift.kind = sim::DriftKind::HardwareDegrade;
    drift.severity = 2.0;
    int probe = 10;
    double tol = 0.2;
    int wait_ms = 30000;
    ExperimentSpec spec;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--host") {
            host = args.value(arg);
        } else if (arg == "--port") {
            port = std::stoi(args.value(arg));
        } else if (arg == "--spool") {
            spool_dir = args.value(arg);
        } else if (arg == "--experiment") {
            experiment = args.value(arg);
        } else if (arg == "--ranks") {
            ranks = parse_rank_list(args.value(arg));
        } else if (arg == "--pre") {
            pre = std::stoi(args.value(arg));
        } else if (arg == "--post") {
            post = std::stoi(args.value(arg));
        } else if (arg == "--drift") {
            drift = sim::parse_drift(args.value(arg));
        } else if (arg == "--probe") {
            probe = std::stoi(args.value(arg));
        } else if (arg == "--tol") {
            double v = 0.0;
            if (!fmt::parse_double(args.value(arg), v) || v <= 0.0) {
                throw InvalidArgumentError("drive: bad --tol");
            }
            tol = v;
        } else if (arg == "--wait-ms") {
            wait_ms = std::stoi(args.value(arg));
        } else if (parse_spec_flag(arg, args, spec)) {
        } else {
            throw InvalidArgumentError("drive: unknown option '" + arg + "'");
        }
    }
    if (experiment.empty()) {
        throw InvalidArgumentError("drive: --experiment NAME is required");
    }
    const bool via_spool = !spool_dir.empty();
    if (via_spool == (port > 0)) {
        throw InvalidArgumentError(
            "drive: exactly one of --port N or --spool DIR is required");
    }

    ExperimentSpec drifted = spec;
    drifted.system = sim::apply_drift(spec.system, drift);
    const double truth =
        ExperimentRunner(drift.kind == sim::DriftKind::None ? spec : drifted)
            .measured_epoch_time(probe);
    std::printf("drive: %s, target truth at x=%d: %ss\n",
                drift.describe().c_str(), probe,
                fmt::shortest(truth).c_str());

    int rep = 0;
    int spool_seq = 0;
    const auto push_run = [&](const ExperimentSpec& s, int r) {
        const ExperimentRunner runner(s);
        const sim::TrainingSimulator simulator(runner.workload_for(r));
        const profiling::Profiler profiler(s.sampling);
        const profiling::ProfiledRun run = profiler.profile(
            simulator, {{"x1", static_cast<double>(r)}}, rep, s.seed);
        if (via_spool) {
            // Crash-consistent drop: write *.tmp, then rename into place.
            const stdfs::path dir = stdfs::path(spool_dir) / experiment;
            stdfs::create_directories(dir);
            char name[32];
            std::snprintf(name, sizeof(name), "run-%06d", spool_seq++);
            const stdfs::path tmp = dir / (std::string(name) + ".tmp");
            const stdfs::path final_path = dir / (std::string(name) + ".edp");
            profiling::write_edp_file(tmp.string(), run);
            stdfs::rename(tmp, final_path);
        } else {
            std::ostringstream os;
            profiling::write_edp(os, run);
            const auto responses = serve::query_daemon(
                host, port,
                {"ingest " + experiment + " " + serve::escape_lines(os.str())});
            if (responses.at(0).rfind("ok ", 0) != 0) {
                throw Error("drive: ingest rejected: " + responses.at(0));
            }
        }
    };
    const auto query1 = [&](const std::string& request) {
        return serve::query_daemon(host, port, {request}).at(0);
    };
    const auto wait_caught_up = [&]() {
        if (via_spool) {
            return;  // no daemon connection to poll
        }
        for (int waited = 0; waited < wait_ms; waited += 50) {
            const std::string line = query1("fleet-stats");
            if (line.rfind("ok ", 0) == 0 &&
                stats_field(line.substr(3), "staleness") == 0) {
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        throw Error("drive: fleet loop did not catch up within " +
                    std::to_string(wait_ms) + " ms");
    };

    int runs_pushed_post = 0;
    for (int round = 0; round < pre; ++round) {
        for (const int r : ranks) {
            push_run(spec, r);
        }
        ++rep;
    }
    bool converged = drift.kind == sim::DriftKind::None;
    for (int round = 0; round < post && !converged; ++round) {
        for (const int r : ranks) {
            push_run(drifted, r);
            ++runs_pushed_post;
        }
        ++rep;
        if (via_spool) {
            continue;
        }
        wait_caught_up();
        const std::string response =
            query1("predict " + experiment + " " + std::to_string(probe));
        if (response.rfind("ok t=", 0) != 0) {
            throw Error("drive: predict failed: " + response);
        }
        double pred = 0.0;
        const std::size_t end = response.find(' ', 5);
        if (!fmt::parse_double(response.substr(5, end - 5), pred)) {
            throw Error("drive: bad predict value: " + response);
        }
        const double rel_err = std::abs(pred - truth) / truth;
        std::printf("drive: round %d served %ss rel_err %s\n", round + 1,
                    fmt::shortest(pred).c_str(),
                    fmt::shortest(rel_err).c_str());
        if (rel_err <= tol) {
            converged = true;
        }
    }
    if (via_spool) {
        std::printf("SPOOLED runs=%d\n", pre * static_cast<int>(ranks.size()) +
                                             runs_pushed_post);
        return 0;
    }
    if (!converged) {
        std::fprintf(stderr,
                     "drive: no convergence within %d post-drift rounds\n",
                     post);
        return 1;
    }
    std::printf("CONVERGED runs=%d\n", runs_pushed_post);
    return 0;
}

int run_query(cli::Args args) {
    std::string host = "127.0.0.1";
    int port = 0;
    std::vector<std::string> requests;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--host") {
            host = args.value(arg);
        } else if (arg == "--port") {
            port = std::stoi(args.value(arg));
        } else {
            requests.push_back(arg);
        }
    }
    if (port <= 0 || requests.empty()) {
        throw InvalidArgumentError("query: --port N and REQUEST... required");
    }
    for (const auto& r : serve::query_daemon(host, port, requests)) {
        std::printf("%s\n", r.c_str());
    }
    return 0;
}

int run_quick(cli::Args args) {
    fleet::ScenarioOptions options;
    cli::Report report{"extradeep-fleet/1", "fleet drift gate",
                       args.command()};
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--verbose") {
            options.verbose = true;
        } else if (report.parse_flag(arg, args) ||
                   parse_spec_flag(arg, args, options.spec)) {
        } else {
            throw InvalidArgumentError("--quick: unknown option '" + arg +
                                       "'");
        }
    }
    const fleet::ScenarioReport result = fleet::run_drift_scenario(options);
    for (const auto& r : result.records) {
        std::printf("%-8s %-24s %s\n", r.case_name.c_str(), r.metric.c_str(),
                    fmt::shortest(r.value).c_str());
    }
    std::printf("fleet-stats: accepted=%llu quarantined=%llu refits=%llu "
                "swaps=%llu stale=%llu\n",
                static_cast<unsigned long long>(result.stats.accepted),
                static_cast<unsigned long long>(result.stats.quarantined),
                static_cast<unsigned long long>(result.stats.refits),
                static_cast<unsigned long long>(result.stats.swaps),
                static_cast<unsigned long long>(result.stats.stale_discarded));
    return cli::finish(report, result.records);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    try {
        cli::Args args(argc, argv, 2);
        if (mode == "serve") {
            return run_serve(args);
        }
        if (mode == "drive") {
            return run_drive(args);
        }
        if (mode == "query") {
            return run_query(args);
        }
        if (mode == "--quick") {
            return run_quick(args);
        }
        if (mode == "-h" || mode == "--help") {
            usage(argv[0]);
            return 0;
        }
        std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
        usage(argv[0]);
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
