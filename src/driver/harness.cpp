// The accuracy harnesses, each a human table plus BENCH records through the
// one report tail (cli::finish):
//
//   eval   — draws known PMNF functions (the synthetic oracle), materialises
//            them into full profiled experiments with controlled noise,
//            round-trips them through the on-disk EDP format, and scores the
//            complete pipeline - ingest -> validate -> aggregate ->
//            ModelGenerator -> analysis - against the known ground truth
//            (BENCH_eval.json, the `eval_accuracy_gate` ctest).
//   plan   — the adaptive profiling planner: races the oracle's candidate
//            configurations as arms, profiling the least certain one until
//            every arm settles or the budget runs out; it must reach the
//            eval thresholds with materially fewer profiled runs than the
//            fixed 5-point grid (BENCH_plan.json, `plan_accuracy_gate`).
//   whatif — the what-if verification harness: evaluates the default
//            portfolio on fitted models and re-simulates every scenario
//            against the mutated simulator (BENCH_whatif.json,
//            `whatif_accuracy_gate`).

#include <cstdio>
#include <string>
#include <vector>

#include "advisor/verify.hpp"
#include "common/json.hpp"
#include "driver/driver.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "planner/report.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::driver {

namespace {

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

/// The oracle cases a harness runs: `suite`, or the --case names picked
/// from the full suite in suite order.
std::vector<eval::OracleCase> select_cases(
    std::vector<eval::OracleCase> suite,
    const std::vector<std::string>& only_cases) {
    if (only_cases.empty()) {
        return suite;
    }
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
        throw UsageError("unknown case name in --case");
    }
    return filtered;
}

/// --list: one line per selected case.
int list_cases(const std::vector<eval::OracleCase>& cases) {
    for (const auto& c : cases) {
        std::printf("%-18s %zu params, %zu points: %s\n", c.name.c_str(),
                    c.num_params(), c.points.size(),
                    c.truth.to_string().c_str());
    }
    return 0;
}

/// The noise levels of a suite unless --noise named them.
std::vector<double> default_noise(bool reduced) {
    return reduced ? std::vector<double>{0.0, 0.05}
                   : std::vector<double>{0.0, 0.02, 0.05, 0.10};
}

/// The ASan-reduced `plan --smoke` subset: two representative
/// single-parameter shapes (exact polynomial, polylogarithmic). Thresholds
/// are written against wildcard-case rules so the same plan_thresholds.json
/// gates every subset.
std::vector<eval::OracleCase> smoke_cases() {
    std::vector<eval::OracleCase> out;
    for (auto& c : eval::default_oracle_cases()) {
        if (c.name == "linear" || c.name == "xlogx") {
            out.push_back(std::move(c));
        }
    }
    return out;
}

}  // namespace

int run_eval(cli::Args args) {
    bool quick = false;
    bool list = false;
    std::vector<std::string> only_cases;
    std::vector<double> noise_levels;
    TraceFlag trace;
    std::string validate_json_path;
    std::string validate_edp_path;
    eval::ScoreOptions options;
    cli::Report report{"extradeep-eval/1", "accuracy gate", args.command()};
    parse_flags(args, "eval", [&](const std::string& arg) {
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--keep-files") {
            options.keep_files = true;
        } else if (arg == "--case") {
            only_cases.push_back(args.value(arg));
        } else if (arg == "--noise") {
            noise_levels = cli::parse_noise_list(args.value(arg));
        } else if (arg == "--seed") {
            options.seed = std::stoull(args.value(arg));
        } else if (arg == "--threads") {
            options.fit_threads = std::stoi(args.value(arg));
        } else if (arg == "--validate-json") {
            validate_json_path = args.value(arg);
        } else if (arg == "--validate-edp") {
            validate_edp_path = args.value(arg);
        } else {
            return trace.parse_flag(arg, args) ||
                   report.parse_flag(arg, args);
        }
        return true;
    });
    if (!validate_json_path.empty()) {
        return validate_json_file(validate_json_path);
    }
    if (!validate_edp_path.empty()) {
        return validate_edp_file(validate_edp_path);
    }

    const auto session = trace.open(options.fit_threads);
    const std::vector<eval::OracleCase> cases = select_cases(
        quick ? eval::quick_oracle_cases() : eval::default_oracle_cases(),
        only_cases);
    if (list) {
        return list_cases(cases);
    }
    if (noise_levels.empty()) {
        noise_levels = default_noise(quick);
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
}

int run_plan(cli::Args args) {
    bool quick = false;
    bool smoke = false;
    bool list = false;
    std::vector<std::string> only_cases;
    std::vector<double> noise_levels;
    TraceFlag trace;
    std::uint64_t seed = 1;
    planner::PlanOptions options;
    cli::Report report{"extradeep-plan/1", "plan gate", args.command()};
    parse_flags(args, "plan", [&](const std::string& arg) {
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--case") {
            only_cases.push_back(args.value(arg));
        } else if (arg == "--noise") {
            noise_levels = cli::parse_noise_list(args.value(arg));
        } else if (arg == "--seed") {
            seed = std::stoull(args.value(arg));
        } else if (arg == "--threads") {
            options.num_threads = std::stoi(args.value(arg));
        } else if (arg == "--budget") {
            options.budget = std::stoi(args.value(arg));
        } else if (arg == "--max-pulls") {
            options.max_pulls_per_arm = std::stoi(args.value(arg));
        } else if (arg == "--target-rel-width") {
            options.target_rel_width = std::stod(args.value(arg));
        } else {
            return trace.parse_flag(arg, args) ||
                   report.parse_flag(arg, args);
        }
        return true;
    });

    const auto session = trace.open(options.num_threads);
    const std::vector<eval::OracleCase> cases =
        select_cases(smoke   ? smoke_cases()
                     : quick ? eval::quick_oracle_cases()
                             : eval::default_oracle_cases(),
                     only_cases);
    if (list) {
        return list_cases(cases);
    }
    if (noise_levels.empty()) {
        noise_levels = default_noise(quick || smoke);
    }

    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite(cases, noise_levels, seed, options);
    std::printf("%s\n", planner::render_table(reports).c_str());
    for (const auto& r : reports) {
        if (!r.accuracy.exact_recovery) {
            std::printf("note: %s @ noise %.3f fitted [%s], truth [%s]\n",
                        r.case_name.c_str(), r.noise, r.fitted_str.c_str(),
                        r.truth_str.c_str());
        }
    }
    return cli::finish(report, planner::to_records(reports),
                       planner::bench_members(reports));
}

int run_whatif(cli::Args args) {
    advisor::VerifyOptions options;
    cli::Report report{"extradeep-whatif/1", "what-if accuracy gate",
                       args.command()};
    parse_flags(args, "whatif", [&](const std::string& arg) {
        if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--seed") {
            options.seed = std::stoull(args.value(arg));
        } else if (arg == "--threads") {
            options.fit_threads = std::stoi(args.value(arg));
        } else if (arg == "--reps") {
            options.repetitions = std::stoi(args.value(arg));
        } else {
            return report.parse_flag(arg, args);
        }
        return true;
    });
    const advisor::VerifyOutcome outcome = advisor::run_verify(options);
    std::printf("%s", outcome.table.c_str());
    return cli::finish(report, outcome.records);
}

}  // namespace extradeep::driver
