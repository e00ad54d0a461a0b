#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "extradeep/runner.hpp"
#include "obs/session.hpp"

namespace extradeep {
namespace serve {
class ServeDaemon;
}

namespace driver {

/// The `extradeep` command-line driver: one binary, one subcommand per tool.
/// Every subcommand is a `run_*` function over the arguments after its name;
/// main() owns the dispatch and the one exit-code rule:
///
///   2  usage error: no or unknown subcommand, unknown flag, missing
///      required flag, unparsable value (a UsageError)
///   1  runtime failure or gate violation
///   0  otherwise, including -h/--help

/// A command-line usage error; main() exits 2 on it.
class UsageError : public InvalidArgumentError {
public:
    using InvalidArgumentError::InvalidArgumentError;
};

/// Thrown by parse_flags on -h/--help; main() prints the usage and exits 0.
struct HelpRequested {};

/// Feeds every remaining argument to `handle`, which consumes it (and any
/// value through `args`) and returns true, or returns false for an argument
/// it does not know. An unknown argument, a missing value or a value that
/// fails to parse becomes a UsageError naming `command`.
template <class Handle>
void parse_flags(cli::Args& args, const std::string& command, Handle&& handle) {
    std::string arg;
    while (args.next(arg)) {
        if (arg == "-h" || arg == "--help") {
            throw HelpRequested{};
        }
        bool known = false;
        try {
            known = handle(arg);
        } catch (const UsageError&) {
            throw;
        } catch (const Error& e) {
            throw UsageError(command + ": " + e.what());
        } catch (const std::exception&) {
            throw UsageError(command + ": bad value for " + arg);
        }
        if (!known) {
            throw UsageError(command + ": unknown option '" + arg + "'");
        }
    }
}

/// Parses "--ranks 2,4,6" into positive rank counts.
std::vector<int> parse_rank_list(const std::string& arg);

/// "DEEP"/"deep" or "JURECA"/"jureca".
hw::SystemSpec parse_system(const std::string& name);

/// The experiment-template flags (--dataset --system --strategy --scaling
/// --batch --mdegree --seed). Returns true if `arg` was consumed.
bool parse_spec_flag(const std::string& arg, cli::Args& args,
                     ExperimentSpec& spec);

/// `--trace SPEC`; without it the EXTRADEEP_TRACE environment decides.
struct TraceFlag {
    std::optional<obs::ObsConfig> config;

    /// Consumes `arg` (and its value) if it is --trace.
    bool parse_flag(const std::string& arg, cli::Args& args);

    /// The observability session of one command. `x1` becomes the
    /// self-profile x1 parameter unless the spec names one.
    std::unique_ptr<obs::ObsSession> open(
        std::optional<double> x1 = std::nullopt) const;
};

/// Prints `LISTENING <port>` and blocks until the started `daemon` stops
/// (protocol shutdown, SIGINT or SIGTERM).
void serve_until_stopped(serve::ServeDaemon& daemon);

// Subcommands; each takes the arguments after its name.
int run_fit(cli::Args args);
int run_serve(cli::Args args);
int run_query(cli::Args args);
int run_ask(cli::Args args);
int run_loadgen(cli::Args args);
int run_fleet(cli::Args args);
int run_drive(cli::Args args);
int run_drift(cli::Args args);
int run_eval(cli::Args args);
int run_plan(cli::Args args);
int run_whatif(cli::Args args);
int run_perf(cli::Args args);

}  // namespace driver
}  // namespace extradeep
