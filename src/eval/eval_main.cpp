// extradeep-eval: the ground-truth accuracy harness.
//
// Draws known PMNF functions (the synthetic oracle), materialises them into
// full profiled experiments with controlled multiplicative noise, round-trips
// them through the on-disk EDP format, and scores the complete pipeline -
// ingest -> validate -> aggregate -> ModelGenerator -> analysis - against the
// known ground truth. Emits a human table plus the machine-readable
// BENCH_eval.json records, and optionally enforces eval_thresholds.json
// (the `eval_accuracy_gate` ctest).
//
// Usage:
//   extradeep-eval                         # full suite
//   extradeep-eval --quick                 # gate subset (fast)
//   extradeep-eval --case linear --case log
//   extradeep-eval --noise 0,0.05 --seed 7
//   extradeep-eval --out BENCH_eval.json
//   extradeep-eval --thresholds eval_thresholds.json   # exit 1 on violation
//   extradeep-eval --list

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "obs/session.hpp"
#include "profiling/edp_io.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--case NAME]... [--noise S1,S2,...] [--seed N]\n"
        "          [--threads N] [--out FILE] [--thresholds FILE]\n"
        "          [--keep-files] [--list] [--trace SPEC]\n"
        "          [--validate-json FILE] [--validate-edp FILE]\n",
        argv0);
}

/// CI helper: parse FILE with the common JSON parser; exit 0 iff it is one
/// well-formed document. Lets scripts validate Chrome trace exports without
/// relying on an external JSON tool.
int validate_json_file(const std::string& path) {
    const json::Value doc = json::parse(cli::read_text_file(path), path);
    const char* kind = doc.kind == json::Value::Kind::Object   ? "object"
                       : doc.kind == json::Value::Kind::Array  ? "array"
                       : doc.kind == json::Value::Kind::String ? "string"
                                                               : "scalar";
    std::printf("%s: valid JSON (top-level %s)\n", path.c_str(), kind);
    return 0;
}

/// CI helper: strict-parse FILE as an EDP profile (the self-profiling
/// round-trip check). Exit 0 iff it reads back cleanly.
int validate_edp_file(const std::string& path) {
    const profiling::ProfiledRun run = profiling::read_edp_file(path);
    std::size_t events = 0;
    for (const auto& rank : run.ranks) {
        events += rank.events.size();
    }
    std::string params;
    for (const auto& [name, value] : run.params) {
        params += (params.empty() ? "" : " ") + name + "=" +
                  std::to_string(value);
    }
    std::printf("%s: valid EDP (%zu rank(s), %zu event(s), params: %s)\n",
                path.c_str(), run.ranks.size(), events, params.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool list = false;
    bool keep_files = false;
    std::vector<std::string> only_cases;
    std::vector<double> noise_levels;
    std::string trace_spec;
    bool trace_given = false;
    std::string validate_json_path;
    std::string validate_edp_path;
    eval::ScoreOptions options;
    cli::Args args(argc, argv, 1);
    cli::Report report{"extradeep-eval/1", "accuracy gate", args.command()};

    try {
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                quick = true;
            } else if (arg == "--list") {
                list = true;
            } else if (arg == "--keep-files") {
                keep_files = true;
            } else if (arg == "--case") {
                only_cases.push_back(args.value(arg));
            } else if (arg == "--noise") {
                noise_levels = cli::parse_noise_list(args.value(arg));
            } else if (arg == "--seed") {
                options.seed = std::stoull(args.value(arg));
            } else if (arg == "--threads") {
                options.fit_threads = std::stoi(args.value(arg));
            } else if (arg == "--trace") {
                trace_spec = args.value(arg);
                trace_given = true;
            } else if (arg == "--validate-json") {
                validate_json_path = args.value(arg);
            } else if (arg == "--validate-edp") {
                validate_edp_path = args.value(arg);
            } else if (report.parse_flag(arg, args)) {
            } else if (arg == "-h" || arg == "--help") {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
                usage(argv[0]);
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    options.keep_files = keep_files;

    try {
        if (!validate_json_path.empty()) {
            return validate_json_file(validate_json_path);
        }
        if (!validate_edp_path.empty()) {
            return validate_edp_file(validate_edp_path);
        }

        obs::ObsConfig obs_config = trace_given
                                        ? obs::parse_obs_config(trace_spec)
                                        : obs::obs_config_from_env();
        const bool default_x1 =
            obs_config.params.find("x1") == obs_config.params.end();
        obs::ObsSession session(std::move(obs_config));
        if (session.config().enabled && default_x1) {
            session.set_param("x1", static_cast<double>(options.fit_threads));
        }

        std::vector<eval::OracleCase> cases =
            quick ? eval::quick_oracle_cases() : eval::default_oracle_cases();
        if (!only_cases.empty()) {
            std::vector<eval::OracleCase> filtered;
            for (auto& c : eval::default_oracle_cases()) {
                for (const auto& want : only_cases) {
                    if (c.name == want) {
                        filtered.push_back(std::move(c));
                        break;
                    }
                }
            }
            if (filtered.size() != only_cases.size()) {
                std::fprintf(stderr, "error: unknown case name in --case\n");
                return 2;
            }
            cases = std::move(filtered);
        }
        if (list) {
            for (const auto& c : cases) {
                std::printf("%-18s %zu params, %zu points: %s\n",
                            c.name.c_str(), c.num_params(), c.points.size(),
                            c.truth.to_string().c_str());
            }
            return 0;
        }
        if (noise_levels.empty()) {
            noise_levels = quick ? std::vector<double>{0.0, 0.05}
                                 : std::vector<double>{0.0, 0.02, 0.05, 0.10};
        }

        const std::vector<eval::CaseScore> scores =
            eval::score_suite(cases, noise_levels, options);
        std::printf("%s\n", eval::render_table(scores).c_str());
        for (const auto& s : scores) {
            if (!s.exact_recovery) {
                std::printf("note: %s @ noise %.3f fitted [%s], truth [%s]\n",
                            s.case_name.c_str(), s.noise, s.fitted_str.c_str(),
                            s.truth_str.c_str());
            }
        }

        return cli::finish(report, eval::to_records(scores));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
