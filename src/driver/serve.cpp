// Model persistence and query serving over the src/serve subsystem:
//
//   fit     — run one experiment and export the fitted models as a .edpm file
//   serve   — load a directory of .edpm files and answer line-protocol
//             queries over TCP (prints `LISTENING <port>` when ready)
//   query   — client mode: send request lines to a running daemon
//   ask     — offline mode: answer request lines directly from a directory,
//             no daemon (byte-identical responses by construction)
//   loadgen — load-generator client: N connections x M pipelined requests
//             (closed- or open-loop) against a daemon, reporting qps and
//             latency quantiles; drives the BENCH_serve.json regression gate
//
// REQUEST lines follow the grammar in serve/query.hpp.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "serve/loadgen.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/server.hpp"

namespace extradeep::driver {

namespace {

void print_diagnostics(const serve::RegistryLoadReport& report) {
    for (const auto& d : report.diagnostics.entries()) {
        std::fprintf(stderr, "%s: %s\n", severity_name(d.severity).data(),
                     d.reason.c_str());
    }
}

void print_load_report(const serve::RegistryLoadReport& report) {
    std::printf("loaded %d model(s), %d quarantined, %d removed\n",
                report.loaded, report.quarantined, report.removed);
    print_diagnostics(report);
}

/// `--fake-clock STEP_US` swaps the latency clock for a deterministic one
/// advancing STEP_US microseconds per reading, so `stats`/`metrics`
/// responses are byte-stable across runs and across daemon/ask modes.
std::int64_t parse_fake_clock(const std::string& command, cli::Args& args) {
    const std::int64_t step_us = std::stoll(args.value("--fake-clock"));
    if (step_us < 0) {
        throw UsageError(command + ": --fake-clock STEP_US must be >= 0");
    }
    return step_us;
}

std::unique_ptr<obs::FakeClock> make_fake_clock(std::int64_t step_us) {
    if (step_us < 0) {
        return nullptr;
    }
    return std::make_unique<obs::FakeClock>(
        0, static_cast<std::uint64_t>(step_us) * 1000);
}

}  // namespace

int run_fit(cli::Args args) {
    ExperimentSpec spec;
    std::string out_path;
    std::string name = "model";
    TraceFlag trace;
    parse_flags(args, "fit", [&](const std::string& arg) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--name") {
            name = args.value(arg);
        } else if (arg == "--ranks") {
            spec.modeling_ranks = parse_rank_list(args.value(arg));
        } else if (arg == "--reps") {
            spec.repetitions = std::stoi(args.value(arg));
        } else if (arg == "--threads") {
            spec.fit_threads = std::stoi(args.value(arg));
        } else {
            return trace.parse_flag(arg, args) ||
                   parse_spec_flag(arg, args, spec);
        }
        return true;
    });
    if (out_path.empty()) {
        throw UsageError("fit: --out FILE is required");
    }
    const auto session = trace.open(spec.fit_threads);
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    const serve::ServableModel model =
        serve::make_servable(spec, result, name);
    serve::write_edpm_file(out_path, model);
    std::printf("wrote %s (%s)\n", out_path.c_str(),
                model.provenance.c_str());
    return 0;
}

int run_serve(cli::Args args) {
    std::string models_dir;
    serve::ServerOptions options;
    TraceFlag trace;
    std::int64_t fake_clock_step_us = -1;
    parse_flags(args, "serve", [&](const std::string& arg) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--port") {
            options.port = std::stoi(args.value(arg));
        } else if (arg == "--threads") {
            options.threads = std::stoi(args.value(arg));
        } else if (arg == "--host") {
            options.host = args.value(arg);
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = parse_fake_clock("serve", args);
        } else {
            return trace.parse_flag(arg, args);
        }
        return true;
    });
    if (models_dir.empty()) {
        throw UsageError("serve: --models DIR is required");
    }
    const auto session = trace.open(options.threads);
    const auto fake_clock = make_fake_clock(fake_clock_step_us);
    auto registry = std::make_shared<serve::ModelRegistry>();
    print_load_report(registry->load_directory(models_dir));
    auto engine = std::make_shared<serve::QueryEngine>(std::move(registry),
                                                       fake_clock.get());
    serve::ServeDaemon daemon(std::move(engine), options);
    daemon.start();
    serve_until_stopped(daemon);
    std::printf("stopped\n");
    return 0;
}

int run_query(cli::Args args) {
    std::string host = "127.0.0.1";
    int port = 0;
    std::vector<std::string> requests;
    parse_flags(args, "query", [&](const std::string& arg) {
        if (arg == "--host") {
            host = args.value(arg);
        } else if (arg == "--port") {
            port = std::stoi(args.value(arg));
        } else {
            requests.push_back(arg);
        }
        return true;
    });
    if (port <= 0) {
        throw UsageError("query: --port N is required");
    }
    if (requests.empty()) {
        throw UsageError("query: no requests given");
    }
    for (const auto& r : serve::query_daemon(host, port, requests)) {
        std::printf("%s\n", r.c_str());
    }
    return 0;
}

int run_ask(cli::Args args) {
    std::string models_dir;
    std::vector<std::string> requests;
    TraceFlag trace;
    std::int64_t fake_clock_step_us = -1;
    parse_flags(args, "ask", [&](const std::string& arg) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = parse_fake_clock("ask", args);
        } else if (!trace.parse_flag(arg, args)) {
            requests.push_back(arg);
        }
        return true;
    });
    if (models_dir.empty()) {
        throw UsageError("ask: --models DIR is required");
    }
    if (requests.empty()) {
        throw UsageError("ask: no requests given");
    }
    const auto session = trace.open(1);
    const auto fake_clock = make_fake_clock(fake_clock_step_us);
    auto registry = std::make_shared<serve::ModelRegistry>();
    print_diagnostics(registry->load_directory(models_dir));
    serve::QueryEngine engine(std::move(registry), fake_clock.get());
    for (const auto& r : requests) {
        std::printf("%s\n", engine.execute(r).c_str());
    }
    return 0;
}

int run_loadgen(cli::Args args) {
    serve::LoadGenOptions lg;
    bool self = false;
    std::string models_dir;
    int daemon_threads = 0;
    std::string mode_arg = "closed";
    cli::Report report{"extradeep-serve-bench/1", "serve load gate",
                       args.command()};
    parse_flags(args, "loadgen", [&](const std::string& arg) {
        if (arg == "--self") {
            self = true;
        } else if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--port") {
            lg.port = std::stoi(args.value(arg));
        } else if (arg == "--host") {
            lg.host = args.value(arg);
        } else if (arg == "--connections") {
            lg.connections = std::stoi(args.value(arg));
        } else if (arg == "--requests") {
            lg.requests_per_connection = std::stoi(args.value(arg));
        } else if (arg == "--pipeline") {
            lg.pipeline_depth = std::stoi(args.value(arg));
        } else if (arg == "--mode") {
            mode_arg = args.value(arg);
        } else if (arg == "--threads") {
            daemon_threads = std::stoi(args.value(arg));
        } else if (arg == "--timeout") {
            lg.timeout_ms = std::stoi(args.value(arg));
        } else if (!report.parse_flag(arg, args)) {
            lg.requests.push_back(arg);
        }
        return true;
    });
    std::vector<serve::LoadMode> modes;
    if (mode_arg == "closed") {
        modes = {serve::LoadMode::Closed};
    } else if (mode_arg == "open") {
        modes = {serve::LoadMode::Open};
    } else if (mode_arg == "both") {
        modes = {serve::LoadMode::Closed, serve::LoadMode::Open};
    } else {
        throw UsageError("loadgen: --mode must be closed, open or both");
    }
    const bool in_process = self || !models_dir.empty();
    if (in_process == (lg.port > 0)) {
        throw UsageError(
            "loadgen: exactly one of --self, --models DIR or --port N is "
            "required");
    }
    if (lg.requests.empty()) {
        if (!self) {
            throw UsageError(
                "loadgen: REQUEST lines are required unless --self supplies "
                "the default mix");
        }
        // Default --self mix: one request of each hot query kind against the
        // in-process model, mirroring the BM_ServeQuery microbenchmark.
        lg.requests = {
            "predict loadgen 16",
            "speedup loadgen 2 4 8 16 32",
            "efficiency loadgen 2 4 8 16 32",
            "cost loadgen 16",
            "search loadgen inf inf 2 4 8 16 32",
        };
    }

    // In-process target: build a registry (fitted here for --self, loaded
    // from disk for --models) and run a daemon on an ephemeral port so the
    // measurement includes the real socket/event-loop path.
    std::unique_ptr<serve::ServeDaemon> daemon;
    if (in_process) {
        auto registry = std::make_shared<serve::ModelRegistry>();
        if (self) {
            ExperimentSpec spec;
            spec.repetitions = 2;
            registry->add(std::make_shared<const serve::ServableModel>(
                serve::make_servable(spec, ExperimentRunner(spec).run(),
                                     "loadgen")));
        } else {
            print_load_report(registry->load_directory(models_dir));
        }
        serve::ServerOptions options;
        options.port = 0;
        options.threads = daemon_threads;
        auto engine = std::make_shared<serve::QueryEngine>(registry);
        daemon = std::make_unique<serve::ServeDaemon>(std::move(engine),
                                                      options);
        daemon->start();
        lg.host = "127.0.0.1";
        lg.port = daemon->port();
    }

    std::vector<gate::MetricRecord> records;
    for (const serve::LoadMode mode : modes) {
        lg.mode = mode;
        serve::LoadGenRecord record;
        record.mode = serve::load_mode_name(mode);
        record.result = serve::run_load(lg);
        std::printf(
            "%-6s %llu/%llu ok (%llu err) qps %.0f p50 %.0fus p95 %.0fus "
            "p99 %.0fus max %.0fus\n",
            record.mode.c_str(),
            static_cast<unsigned long long>(record.result.responses_received),
            static_cast<unsigned long long>(record.result.requests_sent),
            static_cast<unsigned long long>(record.result.error_responses),
            record.result.qps, record.result.latency_p50_us,
            record.result.latency_p95_us, record.result.latency_p99_us,
            record.result.latency_max_us);
        const auto mode_records = serve::to_records(record);
        records.insert(records.end(), mode_records.begin(),
                       mode_records.end());
    }

    if (daemon) {
        daemon->stop();
        daemon->wait();
    }

    return cli::finish(report, records,
                       {{"config", serve::load_config_json(
                                       lg, daemon_threads)}});
}

}  // namespace extradeep::driver
