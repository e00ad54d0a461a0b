#include <csignal>
#include <cstdio>

#include "driver/driver.hpp"
#include "serve/server.hpp"

namespace extradeep::driver {

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

bool TraceFlag::parse_flag(const std::string& arg, cli::Args& args) {
    if (arg != "--trace") {
        return false;
    }
    config = obs::parse_obs_config(args.value(arg));
    return true;
}

std::unique_ptr<obs::ObsSession> TraceFlag::open(
    std::optional<double> x1) const {
    obs::ObsConfig resolved = config ? *config : obs::obs_config_from_env();
    const bool default_x1 = resolved.params.find("x1") == resolved.params.end();
    auto session = std::make_unique<obs::ObsSession>(std::move(resolved));
    if (session->config().enabled && default_x1 && x1) {
        session->set_param("x1", *x1);
    }
    return session;
}

namespace {

serve::ServeDaemon* g_daemon = nullptr;

void handle_signal(int) {
    if (g_daemon != nullptr) {
        g_daemon->stop();  // shutdown(2) is async-signal-safe
    }
}

}  // namespace

void serve_until_stopped(serve::ServeDaemon& daemon) {
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("LISTENING %d\n", daemon.port());
    std::fflush(stdout);
    daemon.wait();
    g_daemon = nullptr;
}

}  // namespace extradeep::driver
