// extradeep-serve: model persistence and query serving.
//
// Five modes over the src/serve subsystem:
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
// REQUEST lines follow the grammar in serve/query.hpp: predict, speedup,
// efficiency, cost, search, whatif (scenario evaluation), advise (ranked
// what-if portfolio), plan (adaptive-profiling acquisition), list, stats,
// metrics, ping, reload.
//
// Usage:
//   extradeep-serve fit --out model.edpm [--name NAME] [--dataset D]
//                       [--system DEEP|JURECA] [--strategy data|tensor|pipeline]
//                       [--scaling weak|strong] [--batch B] [--mdegree M]
//                       [--ranks 2,4,6,8,10] [--reps N] [--seed N] [--threads N]
//   extradeep-serve serve --models DIR [--port N] [--threads N]
//   extradeep-serve query --port N [--host H] REQUEST...
//   extradeep-serve ask --models DIR REQUEST...
//   extradeep-serve loadgen (--self | --models DIR | --port N) [--host H]
//                       [--connections N] [--requests M] [--pipeline D]
//                       [--mode closed|open|both] [--threads N] [--timeout MS]
//                       [--out FILE] [--thresholds FILE] [REQUEST...]

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/session.hpp"
#include "serve/loadgen.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/server.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s fit --out FILE [--name NAME] [--trace SPEC] "
                 "[fit options]\n"
                 "       %s serve --models DIR [--port N] [--threads N]\n"
                 "                [--trace SPEC] [--fake-clock STEP_US]\n"
                 "       %s query --port N [--host H] REQUEST...\n"
                 "       %s ask --models DIR [--trace SPEC] "
                 "[--fake-clock STEP_US] REQUEST...\n"
                 "       %s loadgen (--self | --models DIR | --port N) "
                 "[--host H]\n"
                 "               [--connections N] [--requests M] "
                 "[--pipeline D]\n"
                 "               [--mode closed|open|both] [--threads N] "
                 "[--timeout MS]\n"
                 "               [--out FILE] [--thresholds FILE] "
                 "[REQUEST...]\n"
                 "REQUEST verbs: predict speedup efficiency cost search "
                 "whatif advise plan\n"
                 "               list stats metrics ping reload shutdown\n"
                 "               ingest fleet-stats (extradeep-fleet serve "
                 "only)\n",
                 argv0, argv0, argv0, argv0, argv0);
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

/// Observability session for one CLI mode: --trace SPEC wins over the
/// EXTRADEEP_TRACE environment; `threads` becomes the self-profile x1
/// parameter unless the spec named one explicitly.
std::unique_ptr<obs::ObsSession> make_obs_session(const std::string& spec,
                                                  bool spec_given,
                                                  int threads) {
    obs::ObsConfig config =
        spec_given ? obs::parse_obs_config(spec) : obs::obs_config_from_env();
    const bool default_x1 = config.params.find("x1") == config.params.end();
    auto session = std::make_unique<obs::ObsSession>(std::move(config));
    if (session->config().enabled && default_x1) {
        session->set_param("x1", static_cast<double>(threads));
    }
    return session;
}

int run_fit(cli::Args args) {
    ExperimentSpec spec;
    std::string out_path;
    std::string name = "model";
    std::string trace_spec;
    bool trace_given = false;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--trace") {
            trace_spec = args.value(arg);
            trace_given = true;
        } else if (arg == "--name") {
            name = args.value(arg);
        } else if (arg == "--dataset") {
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
        } else if (arg == "--ranks") {
            spec.modeling_ranks = parse_rank_list(args.value(arg));
        } else if (arg == "--reps") {
            spec.repetitions = std::stoi(args.value(arg));
        } else if (arg == "--seed") {
            spec.seed = std::stoull(args.value(arg));
        } else if (arg == "--threads") {
            spec.fit_threads = std::stoi(args.value(arg));
        } else {
            throw InvalidArgumentError("fit: unknown option '" + arg + "'");
        }
    }
    if (out_path.empty()) {
        throw InvalidArgumentError("fit: --out FILE is required");
    }
    const auto session =
        make_obs_session(trace_spec, trace_given, spec.fit_threads);
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    const serve::ServableModel model =
        serve::make_servable(spec, result, name);
    serve::write_edpm_file(out_path, model);
    std::printf("wrote %s (%s)\n", out_path.c_str(),
                model.provenance.c_str());
    return 0;
}

void print_load_report(const serve::RegistryLoadReport& report) {
    std::printf("loaded %d model(s), %d quarantined, %d removed\n",
                report.loaded, report.quarantined, report.removed);
    for (const auto& d : report.diagnostics.entries()) {
        std::fprintf(stderr, "%s: %s\n", severity_name(d.severity).data(),
                     d.reason.c_str());
    }
}

serve::ServeDaemon* g_daemon = nullptr;

void handle_signal(int) {
    if (g_daemon != nullptr) {
        g_daemon->stop();  // shutdown(2) is async-signal-safe
    }
}

int run_serve(cli::Args args) {
    std::string models_dir;
    serve::ServerOptions options;
    std::string trace_spec;
    bool trace_given = false;
    std::int64_t fake_clock_step_us = -1;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--port") {
            options.port = std::stoi(args.value(arg));
        } else if (arg == "--threads") {
            options.threads = std::stoi(args.value(arg));
        } else if (arg == "--host") {
            options.host = args.value(arg);
        } else if (arg == "--trace") {
            trace_spec = args.value(arg);
            trace_given = true;
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = std::stoll(args.value(arg));
            if (fake_clock_step_us < 0) {
                throw InvalidArgumentError(
                    "serve: --fake-clock STEP_US must be >= 0");
            }
        } else {
            throw InvalidArgumentError("serve: unknown option '" + arg + "'");
        }
    }
    if (models_dir.empty()) {
        throw InvalidArgumentError("serve: --models DIR is required");
    }
    const auto session =
        make_obs_session(trace_spec, trace_given, options.threads);
    // --fake-clock STEP_US swaps the latency clock for a deterministic one
    // advancing STEP_US microseconds per reading, so `stats`/`metrics`
    // responses are byte-stable across runs and across daemon/ask modes.
    std::unique_ptr<obs::FakeClock> fake_clock;
    if (fake_clock_step_us >= 0) {
        fake_clock = std::make_unique<obs::FakeClock>(
            0, static_cast<std::uint64_t>(fake_clock_step_us) * 1000);
    }
    auto registry = std::make_shared<serve::ModelRegistry>();
    print_load_report(registry->load_directory(models_dir));
    auto engine = std::make_shared<serve::QueryEngine>(std::move(registry),
                                                       fake_clock.get());
    serve::ServeDaemon daemon(std::move(engine), options);
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("LISTENING %d\n", daemon.port());
    std::fflush(stdout);
    daemon.wait();
    g_daemon = nullptr;
    std::printf("stopped\n");
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
    if (port <= 0) {
        throw InvalidArgumentError("query: --port N is required");
    }
    if (requests.empty()) {
        throw InvalidArgumentError("query: no requests given");
    }
    const std::vector<std::string> responses =
        serve::query_daemon(host, port, requests);
    for (const auto& r : responses) {
        std::printf("%s\n", r.c_str());
    }
    return 0;
}

int run_ask(cli::Args args) {
    std::string models_dir;
    std::vector<std::string> requests;
    std::string trace_spec;
    bool trace_given = false;
    std::int64_t fake_clock_step_us = -1;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--trace") {
            trace_spec = args.value(arg);
            trace_given = true;
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = std::stoll(args.value(arg));
            if (fake_clock_step_us < 0) {
                throw InvalidArgumentError(
                    "ask: --fake-clock STEP_US must be >= 0");
            }
        } else {
            requests.push_back(arg);
        }
    }
    if (models_dir.empty()) {
        throw InvalidArgumentError("ask: --models DIR is required");
    }
    if (requests.empty()) {
        throw InvalidArgumentError("ask: no requests given");
    }
    const auto session = make_obs_session(trace_spec, trace_given, 1);
    std::unique_ptr<obs::FakeClock> fake_clock;
    if (fake_clock_step_us >= 0) {
        fake_clock = std::make_unique<obs::FakeClock>(
            0, static_cast<std::uint64_t>(fake_clock_step_us) * 1000);
    }
    auto registry = std::make_shared<serve::ModelRegistry>();
    const auto report = registry->load_directory(models_dir);
    for (const auto& d : report.diagnostics.entries()) {
        std::fprintf(stderr, "%s: %s\n", severity_name(d.severity).data(),
                     d.reason.c_str());
    }
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
    std::string arg;
    while (args.next(arg)) {
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
        } else if (report.parse_flag(arg, args)) {
        } else {
            lg.requests.push_back(arg);
        }
    }
    std::vector<serve::LoadMode> modes;
    if (mode_arg == "closed") {
        modes = {serve::LoadMode::Closed};
    } else if (mode_arg == "open") {
        modes = {serve::LoadMode::Open};
    } else if (mode_arg == "both") {
        modes = {serve::LoadMode::Closed, serve::LoadMode::Open};
    } else {
        throw InvalidArgumentError(
            "loadgen: --mode must be closed, open or both");
    }
    const bool in_process = self || !models_dir.empty();
    if (in_process == (lg.port > 0)) {
        throw InvalidArgumentError(
            "loadgen: exactly one of --self, --models DIR or --port N is "
            "required");
    }
    if (lg.requests.empty()) {
        if (!self) {
            throw InvalidArgumentError(
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

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    try {
        cli::Args args(argc, argv, 2);
        if (mode == "fit") {
            return run_fit(args);
        }
        if (mode == "serve") {
            return run_serve(args);
        }
        if (mode == "query") {
            return run_query(args);
        }
        if (mode == "ask") {
            return run_ask(args);
        }
        if (mode == "loadgen") {
            return run_loadgen(args);
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
