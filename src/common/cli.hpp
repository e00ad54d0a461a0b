#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/gate.hpp"

namespace extradeep::cli {

/// Command-line plumbing shared by the harness binaries (extradeep-eval,
/// -advisor, -perf, -plan, -fleet, -serve): a flag cursor, the --noise list
/// parser, and the one report tail that writes BENCH_*.json and runs the
/// threshold gate.

/// Flag cursor over argv[first..argc).
class Args {
public:
    Args(int argc, char** argv, int first)
        : argc_(argc), argv_(argv), i_(first) {}
    bool next(std::string& arg) {
        if (i_ >= argc_) {
            return false;
        }
        arg = argv_[i_++];
        return true;
    }
    /// The value of `flag`; throws InvalidArgumentError if argv is spent.
    std::string value(const std::string& flag);
    /// The whole argv, argv[0] included: the `command` provenance of a
    /// BENCH file.
    std::vector<std::string> command() const {
        return {argv_, argv_ + argc_};
    }

private:
    int argc_;
    char** argv_;
    int i_;
};

/// Parses "--noise S1,S2,..." into non-negative sigmas; throws
/// InvalidArgumentError on an empty entry or a bad number.
std::vector<double> parse_noise_list(const std::string& arg);

/// Reads a whole file; throws Error naming `path` if it cannot be opened.
std::string read_text_file(const std::string& path);

/// Best-effort short git revision of HEAD; "unknown" outside a checkout.
std::string git_revision();

/// The `--out FILE` / `--thresholds FILE` half of a harness CLI.
struct Report {
    Report(std::string schema_tag, std::string gate,
           std::vector<std::string> argv)
        : schema(std::move(schema_tag)),
          gate_name(std::move(gate)),
          command(std::move(argv)) {}

    std::string schema;     ///< BENCH schema tag, e.g. "extradeep-eval/1"
    std::string gate_name;  ///< verdict-line name, e.g. "accuracy gate"
    std::vector<std::string> command;  ///< argv, recorded in the BENCH file
    std::string out_path;         ///< "" = write no BENCH file
    std::string thresholds_path;  ///< "" = run no gate

    /// Consumes `arg` (and its value) if it is --out or --thresholds.
    bool parse_flag(const std::string& arg, Args& args);
};

/// The tail of every harness: writes the BENCH document to out_path (if
/// set), then checks the records against the thresholds file (if set),
/// printing each violation and the verdict. Returns the exit code: 1 on a
/// gate violation, else 0. Throws Error if the BENCH file cannot be
/// written and ParseError on a malformed thresholds file.
int finish(const Report& report,
           const std::vector<gate::MetricRecord>& records,
           const std::vector<gate::Member>& extra_members = {});

}  // namespace extradeep::cli
