// The continuous-modeling fleet daemon and its drivers, over src/fleet:
//
//   fleet — run the full continuous loop: a query daemon (all serve verbs
//           plus `ingest`/`fleet-stats`) with an attached FleetService that
//           watches a spool directory, re-fits arriving runs on a background
//           pool, and hot-swaps exported models. Prints `LISTENING <port>`
//           when ready.
//   drive — fleet collector client: generates profile runs (optionally
//           switching to a drifted system mid-stream), pushes them over the
//           `ingest` verb (or drops them into a spool directory), waits for
//           the loop to catch up (fleet-stats staleness), and checks that
//           served predictions converge to the new ground truth. Prints
//           `CONVERGED runs=N` on success.
//   drift — in-process end-to-end drift scenario (daemon + concurrent load
//           client + corrupt-push batch) feeding the fleet_drift_gate
//           thresholds and BENCH_fleet.json.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "driver/driver.hpp"
#include "fleet/continuous.hpp"
#include "fleet/scenario.hpp"
#include "serve/server.hpp"
#include "sim/drift.hpp"

namespace extradeep::driver {

namespace {

namespace stdfs = std::filesystem;

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

}  // namespace

int run_fleet(cli::Args args) {
    fleet::FleetOptions fleet_opts;
    serve::ServerOptions server_opts;
    server_opts.max_request_line = 32u << 20;  // ingest payloads
    int poll_ms = 100;
    TraceFlag trace;
    parse_flags(args, "fleet", [&](const std::string& arg) {
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
        } else {
            return trace.parse_flag(arg, args) ||
                   parse_spec_flag(arg, args, fleet_opts.spec);
        }
        return true;
    });
    if (fleet_opts.models_dir.empty()) {
        throw UsageError("fleet: --models DIR is required");
    }
    const auto session = trace.open();

    auto registry = std::make_shared<serve::ModelRegistry>();
    auto service = std::make_shared<fleet::FleetService>(fleet_opts, registry);
    auto engine = std::make_shared<serve::QueryEngine>(registry);
    engine->set_fleet_handler(service);
    serve::ServeDaemon daemon(engine, server_opts);
    daemon.start();
    service->start(poll_ms);
    serve_until_stopped(daemon);
    service->stop();
    service->drain();  // finish in-flight fits before reporting
    std::printf("stopped: %s\n", service->fleet_stats_line().c_str());
    return 0;
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
    parse_flags(args, "drive", [&](const std::string& arg) {
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
                throw UsageError("drive: bad --tol");
            }
            tol = v;
        } else if (arg == "--wait-ms") {
            wait_ms = std::stoi(args.value(arg));
        } else {
            return parse_spec_flag(arg, args, spec);
        }
        return true;
    });
    if (experiment.empty()) {
        throw UsageError("drive: --experiment NAME is required");
    }
    const bool via_spool = !spool_dir.empty();
    if (via_spool == (port > 0)) {
        throw UsageError(
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
        const std::string edp = fleet::run_edp_bytes(s, r, rep);
        if (via_spool) {
            // Crash-consistent drop: write *.tmp, then rename into place.
            const stdfs::path dir = stdfs::path(spool_dir) / experiment;
            stdfs::create_directories(dir);
            char name[32];
            std::snprintf(name, sizeof(name), "run-%06d", spool_seq++);
            const stdfs::path tmp = dir / (std::string(name) + ".tmp");
            if (std::ofstream out(tmp, std::ios::binary); !(out << edp)) {
                throw Error("drive: cannot write " + tmp.string());
            }
            stdfs::rename(tmp, dir / (std::string(name) + ".edp"));
        } else {
            const auto responses = serve::query_daemon(
                host, port,
                {"ingest " + experiment + " " + serve::escape_lines(edp)});
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
        const double pred = fleet::parse_predict_t(
            query1("predict " + experiment + " " + std::to_string(probe)));
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

int run_drift(cli::Args args) {
    fleet::ScenarioOptions options;
    cli::Report report{"extradeep-fleet/1", "fleet drift gate",
                       args.command()};
    parse_flags(args, "drift", [&](const std::string& arg) {
        if (arg == "--verbose") {
            options.verbose = true;
            return true;
        }
        return report.parse_flag(arg, args) ||
               parse_spec_flag(arg, args, options.spec);
    });
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

}  // namespace extradeep::driver
