// The one report path (common/gate, common/cli) behind all six regression
// harnesses: threshold parsing, rule matching, the BENCH_*.json writer and
// the CLI report tail, plus every checked-in thresholds file against its
// checked-in BENCH file. The suite names are those of the harness each case
// was first written for (EvalGate, PlanGate, LoadGen, ...); all of them now
// run over the same common module.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/gate.hpp"
#include "common/json.hpp"

namespace extradeep {
namespace {

namespace stdfs = std::filesystem;
using gate::MetricRecord;
using gate::Rule;

gate::Outcome check(const std::vector<MetricRecord>& records,
                    const std::string& thresholds_json) {
    return gate::check_rules(records, gate::parse_rules(thresholds_json));
}

// ---------------------------------------------------------------------------
// Parsing

TEST(EvalGate, ParsesWellFormedThresholds) {
    const std::string doc = R"({
      "_comment": "ignored",
      "thresholds": [
        {"case": "*", "noise": 0.0, "metric": "exponent_recovery", "min": 1.0},
        {"metric": "smape_in_range", "max": 5.0}
      ]
    })";
    const auto rules = gate::parse_rules(doc);
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].case_name, "*");
    EXPECT_DOUBLE_EQ(rules[0].noise, 0.0);
    ASSERT_TRUE(rules[0].min.has_value());
    EXPECT_DOUBLE_EQ(*rules[0].min, 1.0);
    EXPECT_FALSE(rules[0].max.has_value());
    // Omitted case/noise default to wildcards.
    EXPECT_EQ(rules[1].case_name, "*");
    EXPECT_DOUBLE_EQ(rules[1].noise, -1.0);
    ASSERT_TRUE(rules[1].max.has_value());
    EXPECT_DOUBLE_EQ(*rules[1].max, 5.0);
}

TEST(EvalGate, RejectsMalformedThresholdDocuments) {
    // Not JSON at all.
    EXPECT_THROW(gate::parse_rules("not json"), ParseError);
    // Trailing garbage after the document.
    EXPECT_THROW(gate::parse_rules("{\"thresholds\": []} extra"), ParseError);
    // Top level must be an object with a thresholds array.
    EXPECT_THROW(gate::parse_rules("[]"), ParseError);
    EXPECT_THROW(gate::parse_rules("{\"rules\": []}"), ParseError);
    // Empty rule list would disable the gate.
    EXPECT_THROW(gate::parse_rules("{\"thresholds\": []}"), ParseError);
    // A rule without a metric is meaningless.
    EXPECT_THROW(gate::parse_rules("{\"thresholds\": [{\"min\": 1.0}]}"),
                 ParseError);
    // A rule without min or max checks nothing.
    EXPECT_THROW(gate::parse_rules(
                     "{\"thresholds\": [{\"metric\": \"pi_coverage\"}]}"),
                 ParseError);
    // Type errors.
    EXPECT_THROW(
        gate::parse_rules(
            "{\"thresholds\": [{\"metric\": \"m\", \"min\": \"low\"}]}"),
        ParseError);
    EXPECT_THROW(gate::parse_rules(
                     "{\"thresholds\": [{\"case\": 3, \"metric\": \"m\", "
                     "\"min\": 1}]}"),
                 ParseError);
    EXPECT_THROW(gate::parse_rules(
                     "{\"thresholds\": [{\"noise\": \"x\", \"metric\": "
                     "\"m\", \"min\": 1}]}"),
                 ParseError);
}

TEST(GateCore, ParsesEvalDialect) {
    const std::vector<Rule> rules = gate::parse_rules(
        R"({"thresholds": [
              {"case": "linear", "noise": 0.05, "metric": "smape", "max": 5.0},
              {"metric": "recovery", "min": 1.0}
           ]})");
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].case_name, "linear");
    EXPECT_DOUBLE_EQ(rules[0].noise, 0.05);
    ASSERT_TRUE(rules[0].max.has_value());
    EXPECT_DOUBLE_EQ(*rules[0].max, 5.0);
    EXPECT_FALSE(rules[0].min.has_value());
    EXPECT_EQ(rules[1].case_name, "*");
    EXPECT_LT(rules[1].noise, 0.0);
    // The retired serve dialect ("rules"/"mode") is no longer accepted.
    EXPECT_THROW(gate::parse_rules(R"({"rules": [{"mode": "closed",
                                     "metric": "qps", "min": 1}]})"),
                 ParseError);
}

// ---------------------------------------------------------------------------
// Rule matching

std::vector<MetricRecord> sample_records() {
    return {
        {"linear", 0.0, "exponent_recovery", 1.0, 1},
        {"linear", 0.05, "smape_in_range", 2.5, 1},
        {"quadratic", 0.05, "smape_in_range", 4.0, 1},
        {"linear", 0.05, "pi_coverage", 0.85, 1},
    };
}

TEST(EvalGate, PassesWhenAllRulesHold) {
    std::vector<Rule> rules(3);
    rules[0].metric = "exponent_recovery";
    rules[0].noise = 0.0;
    rules[0].min = 1.0;
    rules[1].metric = "smape_in_range";
    rules[1].noise = 0.05;
    rules[1].max = 5.0;
    rules[2].metric = "pi_coverage";
    rules[2].min = 0.6;  // noise wildcard (-1) matches any level
    const gate::Outcome res = gate::check_rules(sample_records(), rules);
    EXPECT_TRUE(res.pass) << (res.violations.empty()
                                  ? ""
                                  : res.violations.front().message);
    EXPECT_EQ(res.rules_checked, 3u);
    EXPECT_EQ(res.records_matched, 4u);  // 1 + 2 + 1
}

TEST(EvalGate, FlagsMinAndMaxViolations) {
    std::vector<Rule> rules(2);
    rules[0].metric = "smape_in_range";
    rules[0].max = 3.0;  // quadratic's 4.0 breaches this
    rules[1].metric = "pi_coverage";
    rules[1].min = 0.9;  // 0.85 breaches this
    const gate::Outcome res = gate::check_rules(sample_records(), rules);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.violations.size(), 2u);
    EXPECT_EQ(res.violations[0].message,
              "quadratic @ noise 0.050: smape_in_range = 4 > max 3");
    EXPECT_EQ(res.violations[1].message,
              "linear @ noise 0.050: pi_coverage = 0.85 < min 0.9");
}

TEST(EvalGate, CaseAndNoiseSelectorsNarrowTheMatch) {
    std::vector<Rule> rules(1);
    rules[0].metric = "smape_in_range";
    rules[0].case_name = "linear";
    rules[0].noise = 0.05;
    rules[0].max = 3.0;  // quadratic's 4.0 must NOT trip this linear-only rule
    const gate::Outcome res = gate::check_rules(sample_records(), rules);
    EXPECT_TRUE(res.pass);
    EXPECT_EQ(res.records_matched, 1u);
}

TEST(EvalGate, UnmatchedRuleIsItselfAViolation) {
    // A renamed metric or removed case must not silently disable its gate.
    std::vector<Rule> rules(1);
    rules[0].metric = "no_such_metric";
    rules[0].min = 0.0;
    const gate::Outcome res = gate::check_rules(sample_records(), rules);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_EQ(res.violations[0].kind, gate::Violation::Kind::Unmatched);
    EXPECT_NE(res.violations[0].message.find("matched no record"),
              std::string::npos);
}

TEST(EvalGate, ImpossibleThresholdsFixtureFailsTheGate) {
    // The fixture backing the WILL_FAIL ctest (eval_accuracy_gate_negative)
    // must stay unsatisfiable; if someone edits it into a passing document,
    // the negative test would silently stop proving anything.
    const gate::Outcome res = check(
        sample_records(),
        cli::read_text_file(std::string(EXTRADEEP_TEST_DATA_DIR) +
                            "/eval_thresholds_impossible.json"));
    EXPECT_FALSE(res.pass);
    EXPECT_GE(res.violations.size(), 2u)
        << "expected both a breached max and an unmatched metric";
}

TEST(EvalGate, MissingThresholdsFileErrorsOut) {
    EXPECT_THROW(cli::read_text_file("/nonexistent/path/t.json"), Error);
}

TEST(GateCore, ChecksBoundsRuleMajorWithStableOrdering) {
    const std::vector<MetricRecord> records = {
        {"a", 0.0, "m", 1.0},
        {"b", 0.0, "m", 9.0},
    };
    std::vector<Rule> rules(1);
    rules[0].case_name = "*";
    rules[0].noise = 0.0;
    rules[0].metric = "m";
    rules[0].min = 2.0;
    rules[0].max = 5.0;
    const gate::Outcome outcome = gate::check_rules(records, rules);
    EXPECT_FALSE(outcome.pass);
    EXPECT_EQ(outcome.rules_checked, 1u);
    EXPECT_EQ(outcome.records_matched, 2u);
    ASSERT_EQ(outcome.violations.size(), 2u);
    EXPECT_EQ(outcome.violations[0].kind, gate::Violation::Kind::BelowMin);
    EXPECT_EQ(outcome.violations[0].record, 0u);
    EXPECT_DOUBLE_EQ(outcome.violations[0].bound, 2.0);
    EXPECT_EQ(outcome.violations[1].kind, gate::Violation::Kind::AboveMax);
    EXPECT_EQ(outcome.violations[1].record, 1u);
}

TEST(GateCore, WildcardsAndUnmatchedRules) {
    const std::vector<MetricRecord> records = {
        {"x", 0.05, "m", 3.0},
    };
    Rule wildcard_noise;
    wildcard_noise.metric = "m";
    wildcard_noise.min = 1.0;  // noise stays -1 = any
    Rule wrong_case;
    wrong_case.case_name = "y";
    wrong_case.metric = "m";
    wrong_case.min = 1.0;
    const gate::Outcome outcome =
        gate::check_rules(records, {wildcard_noise, wrong_case});
    EXPECT_FALSE(outcome.pass);
    ASSERT_EQ(outcome.violations.size(), 1u);
    EXPECT_EQ(outcome.violations[0].kind, gate::Violation::Kind::Unmatched);
    EXPECT_EQ(outcome.violations[0].rule, 1u);
}

TEST(PlanGate, EnforcesThresholdsOnRecords) {
    const std::vector<MetricRecord> records = {
        {"linear", 0.0, "runs_used", 3.0},
        {"linear", 0.0, "cost_reduction_pct", 40.0},
        {"suite", 0.0, "mean_cost_reduction_pct", 40.0},
    };
    EXPECT_TRUE(check(records,
                      R"({"thresholds": [{"case": "*", "noise": 0.0,
                            "metric": "cost_reduction_pct", "min": 30.0}]})")
                    .pass);
    const gate::Outcome fail =
        check(records, R"({"thresholds": [{"case": "*", "noise": 0.0,
                            "metric": "runs_used", "max": 0.0}]})");
    EXPECT_FALSE(fail.pass);
    ASSERT_FALSE(fail.violations.empty());
    EXPECT_NE(fail.violations[0].message.find("runs_used"), std::string::npos);
    // Unmatched rules are violations, not silent no-ops.
    EXPECT_FALSE(check(records,
                       R"({"thresholds": [{"case": "*", "noise": 0.0,
                            "metric": "no_such_metric", "min": 1.0}]})")
                     .pass);
}

// Serve loadgen records: case = loop mode, no noise dimension.
std::vector<MetricRecord> load_records() {
    std::vector<MetricRecord> out;
    for (const auto& [mode, qps] :
         {std::pair{"closed", 1000.0}, std::pair{"open", 2000.0}}) {
        out.push_back({mode, 0.0, "qps", qps});
        out.push_back({mode, 0.0, "latency_p99_us", 5000.0});
        out.push_back({mode, 0.0, "errors", 0.0});
        out.push_back({mode, 0.0, "responses", 400.0});
    }
    return out;
}

TEST(LoadGen, ThresholdsPassAndFailCorrectly) {
    const auto records = load_records();
    EXPECT_TRUE(check(records, R"({"thresholds": [
                        {"case": "*", "metric": "errors", "max": 0},
                        {"case": "closed", "metric": "qps", "min": 500},
                        {"case": "open", "metric": "latency_p99_us",
                         "max": 10000}]})")
                    .pass);
    // min violated on the closed record only.
    const gate::Outcome min_violation =
        check(records, R"({"thresholds": [{"case": "closed", "metric": "qps",
                                            "min": 1500}]})");
    ASSERT_EQ(min_violation.violations.size(), 1u);
    EXPECT_EQ(min_violation.violations[0].kind,
              gate::Violation::Kind::BelowMin);
    // A wildcard rule checks every record: one of the two trips it.
    EXPECT_EQ(check(records, R"({"thresholds": [{"case": "*", "metric": "qps",
                                 "max": 1500}]})")
                  .violations.size(),
              1u);
}

TEST(LoadGen, StaleThresholdRuleIsAViolation) {
    const auto records = load_records();
    // A stale loop mode and an unknown metric both fail as unmatched rules.
    for (const char* doc :
         {R"({"thresholds": [{"case": "burst", "metric": "qps", "min": 1}]})",
          R"({"thresholds": [{"case": "*", "metric": "nosuch", "min": 1}]})"}) {
        const gate::Outcome outcome = check(records, doc);
        ASSERT_EQ(outcome.violations.size(), 1u) << doc;
        EXPECT_EQ(outcome.violations[0].kind,
                  gate::Violation::Kind::Unmatched);
    }
    EXPECT_THROW(gate::parse_rules(R"({"no_rules": []})"), ParseError);
}

// ---------------------------------------------------------------------------
// BENCH writer and CLI tail

TEST(GateCore, BenchJsonLayout) {
    const std::string doc = gate::bench_json(
        "extradeep-test/1", sample_records(), {{"config", "{\"n\": 2}"}},
        {"abc1234", {"extradeep-test", "--out", "x.json"}});
    const json::Value parsed = json::parse(doc, "bench");
    ASSERT_EQ(parsed.object.size(), 5u);
    const char* order[] = {"schema", "git_rev", "command", "config", "records"};
    for (std::size_t i = 0; i < parsed.object.size(); ++i) {
        EXPECT_EQ(parsed.object[i].first, order[i]);
    }
    EXPECT_NE(doc.find("\"schema\": \"extradeep-test/1\""), std::string::npos);
    EXPECT_EQ(parsed.find("command")->array.size(), 3u);
    EXPECT_EQ(parsed.find("config")->find("n")->number, 2.0);
    const json::Value& records = *parsed.find("records");
    ASSERT_EQ(records.array.size(), 4u);
    EXPECT_EQ(records.array[2].find("case")->string, "quadratic");
    EXPECT_DOUBLE_EQ(records.array[2].find("noise")->number, 0.05);
    EXPECT_EQ(records.array[2].find("seed")->number, 1.0);
    // Non-finite values must be rejected, not silently serialised as 'nan'.
    std::vector<MetricRecord> bad = sample_records();
    bad.front().value = std::nan("");
    EXPECT_THROW(gate::bench_json("x/1", bad, {}, {}), InvalidArgumentError);
}

TEST(Cli, ArgsAndNoiseLists) {
    char prog[] = "prog";
    char flag[] = "--noise";
    char value[] = "0,0.05";
    char* argv[] = {prog, flag, value};
    cli::Args args(3, argv, 1);
    std::string arg;
    ASSERT_TRUE(args.next(arg));
    EXPECT_EQ(cli::parse_noise_list(args.value(arg)),
              (std::vector<double>{0.0, 0.05}));
    EXPECT_FALSE(args.next(arg));
    EXPECT_THROW(args.value("--noise"), InvalidArgumentError);
    EXPECT_EQ(args.command(),
              (std::vector<std::string>{"prog", "--noise", "0,0.05"}));
    EXPECT_THROW(cli::parse_noise_list("0,,1"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_noise_list("-1"), InvalidArgumentError);
    EXPECT_THROW(cli::parse_noise_list("0.1x"), InvalidArgumentError);
}

TEST(Cli, FinishWritesBenchThenGates) {
    const stdfs::path dir = stdfs::temp_directory_path() /
                            ("extradeep-gate-" + std::to_string(::getpid()));
    stdfs::create_directories(dir);
    const std::string thresholds = (dir / "t.json").string();
    {
        std::FILE* f = std::fopen(thresholds.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(R"({"thresholds": [{"metric": "pi_coverage", "min": 0.9}]})",
                   f);
        std::fclose(f);
    }
    cli::Report report("extradeep-test/1", "test gate", {"prog", "--quick"});
    report.out_path = (dir / "bench.json").string();
    report.thresholds_path = thresholds;
    EXPECT_EQ(cli::finish(report, sample_records()), 1);  // 0.85 < 0.9
    const json::Value written =
        json::parse(cli::read_text_file(report.out_path), "bench");
    EXPECT_EQ(written.find("schema")->string, "extradeep-test/1");
    EXPECT_EQ(written.find("records")->array.size(), 4u);

    report.out_path.clear();
    std::vector<MetricRecord> passing = sample_records();
    passing.back().value = 0.95;
    EXPECT_EQ(cli::finish(report, passing), 0);
    report.thresholds_path.clear();
    EXPECT_EQ(cli::finish(report, {}), 0);  // neither --out nor --thresholds
    stdfs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checked-in thresholds files against the checked-in BENCH files

std::vector<MetricRecord> bench_records(const std::string& path) {
    const json::Value doc = json::parse(cli::read_text_file(path), path);
    std::vector<MetricRecord> out;
    for (const json::Value& r : doc.find("records")->array) {
        out.push_back({r.find("case")->string, r.find("noise")->number,
                       r.find("metric")->string, r.find("value")->number});
    }
    return out;
}

/// Harness names X of every file in `dir` named X + `suffix`.
std::vector<std::string> harnesses(const std::string& dir,
                                   const std::string& suffix) {
    std::vector<std::string> out;
    for (const auto& entry : stdfs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            out.push_back(name.substr(0, name.size() - suffix.size()));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

const std::string kSourceDir = EXTRADEEP_SOURCE_DIR;
const std::string kDataDir = EXTRADEEP_TEST_DATA_DIR;

TEST(ThresholdsFiles, EveryHarnessHasAGateAndANegativeControl) {
    const std::vector<std::string> expected = {"eval", "fleet", "perf",
                                               "plan", "serve", "whatif"};
    EXPECT_EQ(harnesses(kSourceDir, "_thresholds.json"), expected);
    EXPECT_EQ(harnesses(kDataDir, "_thresholds_impossible.json"), expected);
}

class CheckedInThresholds : public ::testing::TestWithParam<std::string> {};

// Every gate's bounds parse and hold on the BENCH numbers checked in with
// them.
TEST_P(CheckedInThresholds, ParseAndHoldOnTheirBench) {
    const gate::Outcome outcome =
        check(bench_records(kSourceDir + "/BENCH_" + GetParam() + ".json"),
              cli::read_text_file(kSourceDir + "/" + GetParam() +
                                  "_thresholds.json"));
    EXPECT_TRUE(outcome.pass) << outcome.violations.front().message;
}

INSTANTIATE_TEST_SUITE_P(
    Gates, CheckedInThresholds,
    ::testing::ValuesIn(harnesses(kSourceDir, "_thresholds.json")));

class ImpossibleThresholds : public ::testing::TestWithParam<std::string> {};

// Every WILL_FAIL fixture fails even on its harness's real numbers.
TEST_P(ImpossibleThresholds, FailOnTheirBench) {
    const gate::Outcome outcome =
        check(bench_records(kSourceDir + "/BENCH_" + GetParam() + ".json"),
              cli::read_text_file(kDataDir + "/" + GetParam() +
                                  "_thresholds_impossible.json"));
    EXPECT_FALSE(outcome.pass);
}

INSTANTIATE_TEST_SUITE_P(
    NegativeControls, ImpossibleThresholds,
    ::testing::ValuesIn(harnesses(kDataDir, "_thresholds_impossible.json")));

}  // namespace
}  // namespace extradeep
