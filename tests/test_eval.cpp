// Tests for the ground-truth accuracy harness (src/eval): oracle
// materialisation, end-to-end scoring and report emission (the regression
// gate itself is covered by test_gate). The oracle is the one place in the
// repository where the "right answer" is known in closed form, so these
// tests pin down that the entire pipeline - EDP round-trip, validation,
// aggregation, model generation - reproduces it exactly in the noise-free
// limit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "eval/oracle.hpp"
#include "eval/report.hpp"
#include "eval/scorer.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::eval {
namespace {

OracleCase find_case(const std::string& name) {
    for (auto& c : default_oracle_cases()) {
        if (c.name == name) {
            return c;
        }
    }
    throw Error("test: no oracle case named " + name);
}

double aggregated_oracle_value(const OracleCase& oracle,
                               std::size_t config_index,
                               const MaterializeOptions& options) {
    const auto runs = materialize_config(oracle, config_index, options);
    const auto config = aggregation::aggregate_runs(runs);
    const aggregation::KernelStats* k = config.find_kernel(kOracleKernel);
    EXPECT_NE(k, nullptr);
    return k == nullptr ? -1.0
                        : k->train_metric(aggregation::Metric::Time);
}

// ---------------------------------------------------------------------------
// Oracle suite shape

TEST(EvalOracle, DefaultSuiteCoversSingleAndMultiParameter) {
    const auto cases = default_oracle_cases();
    ASSERT_GE(cases.size(), 8u);
    std::size_t multi = 0;
    std::vector<std::string> names;
    for (const auto& c : cases) {
        names.push_back(c.name);
        ASSERT_FALSE(c.points.empty()) << c.name;
        for (const auto& p : c.points) {
            ASSERT_EQ(p.size(), c.num_params()) << c.name;
            EXPECT_GT(c.truth_value(p), 0.0) << c.name;
        }
        if (c.num_params() > 1) {
            ++multi;
        } else {
            // Paper's efficient sampling: five points per parameter.
            EXPECT_EQ(c.points.size(), 5u) << c.name;
        }
    }
    EXPECT_GE(multi, 2u);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
        << "duplicate oracle case names";
}

TEST(EvalOracle, QuickSuiteIsSubsetOfDefault) {
    const auto quick = quick_oracle_cases();
    const auto all = default_oracle_cases();
    ASSERT_FALSE(quick.empty());
    EXPECT_LT(quick.size(), all.size());
    for (const auto& q : quick) {
        const bool found =
            std::any_of(all.begin(), all.end(),
                        [&](const OracleCase& c) { return c.name == q.name; });
        EXPECT_TRUE(found) << q.name;
    }
}

TEST(EvalOracle, CaseNameHashIsStableAcrossPlatforms) {
    // FNV-1a reference values; std::hash would not be reproducible.
    EXPECT_EQ(case_name_hash(""), 1469598103934665603ULL);
    EXPECT_EQ(case_name_hash("linear"), case_name_hash("linear"));
    EXPECT_NE(case_name_hash("linear"), case_name_hash("quadratic"));
}

// ---------------------------------------------------------------------------
// Noise-free materialisation: aggregation must reproduce the truth exactly

TEST(EvalOracle, NoiseFreeAggregationRecoversTruthExactly) {
    for (const auto& oracle : default_oracle_cases()) {
        for (std::size_t c = 0; c < oracle.points.size(); c += 3) {
            const double got = aggregated_oracle_value(oracle, c, {});
            EXPECT_NEAR(got, oracle.truth_value(oracle.points[c]),
                        1e-9 * oracle.truth_value(oracle.points[c]))
                << oracle.name << " config " << c;
        }
    }
}

TEST(EvalOracle, WarmupEpochIsEmittedAndDiscarded) {
    const OracleCase oracle = find_case("linear");
    const auto runs = materialize_config(oracle, 1, {});
    ASSERT_FALSE(runs.empty());
    ASSERT_FALSE(runs.front().ranks.empty());
    const auto& marks = runs.front().ranks.front().marks;
    const bool has_warmup = std::any_of(
        marks.begin(), marks.end(), [](const trace::NvtxMark& m) {
            return m.epoch == 0 &&
                   m.kind == trace::NvtxMark::Kind::EpochStart;
        });
    ASSERT_TRUE(has_warmup) << "warm-up epoch missing from the trace";
    // The warm-up values are inflated 1.5x; aggregating *without* the
    // warm-up discard must therefore change the validation-step picture
    // only if discarding is broken - the train median stays pinned because
    // the single inflated step cannot move a 7-step median. Assert the
    // default pipeline (discard) hits the truth exactly.
    const double got = aggregated_oracle_value(oracle, 1, {});
    EXPECT_DOUBLE_EQ(got, oracle.truth_value(oracle.points[1]));
}

TEST(EvalOracle, SporadicKernelOnlyInFirstConfiguration) {
    const OracleCase oracle = find_case("linear");
    const auto first = materialize_config(oracle, 0, {});
    const auto later = materialize_config(oracle, 2, {});
    const auto has_sporadic = [](const profiling::ProfiledRun& run) {
        for (const auto& rank : run.ranks) {
            for (const auto& ev : rank.events) {
                if (ev.name == kSporadicKernel) {
                    return true;
                }
            }
        }
        return false;
    };
    EXPECT_TRUE(has_sporadic(first.front()));
    EXPECT_FALSE(has_sporadic(later.front()));
}

TEST(EvalOracle, MaterialisationIsDeterministicAndSeedSensitive) {
    const OracleCase oracle = find_case("quadratic");
    MaterializeOptions a;
    a.noise = 0.05;
    a.seed = 7;
    const double v1 = aggregated_oracle_value(oracle, 2, a);
    const double v2 = aggregated_oracle_value(oracle, 2, a);
    EXPECT_DOUBLE_EQ(v1, v2) << "same seed must reproduce bit-identically";
    MaterializeOptions b = a;
    b.seed = 8;
    EXPECT_NE(v1, aggregated_oracle_value(oracle, 2, b))
        << "noise must actually depend on the seed";
}

TEST(EvalOracle, NonPositiveTruthIsRejected) {
    OracleCase bad = find_case("linear");
    bad.truth = modeling::PerformanceModel(-10.0, {}, {"x1"});
    EXPECT_THROW(materialize_config(bad, 0, {}), InvalidArgumentError);
    EXPECT_THROW(materialize_config(bad, 99, {}), InvalidArgumentError)
        << "out-of-range config index";
}

// ---------------------------------------------------------------------------
// EDP round-trip

TEST(EvalOracle, EdpTreeRoundTripsThroughStrictParser) {
    const OracleCase oracle = find_case("log");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "extradeep-test-eval-rt";
    std::filesystem::remove_all(dir);
    const auto paths = write_edp_tree(oracle, {}, dir.string());
    EXPECT_EQ(paths.size(),
              oracle.points.size() *
                  static_cast<std::size_t>(oracle.repetitions));
    const auto in_memory = materialize(oracle, {});
    std::size_t idx = 0;
    for (std::size_t c = 0; c < in_memory.size(); ++c) {
        for (const auto& expected : in_memory[c]) {
            // The strict single-argument overload throws on any defect.
            const profiling::ProfiledRun parsed =
                profiling::read_edp_file(paths[idx++]);
            EXPECT_EQ(parsed.params, expected.params);
            EXPECT_EQ(parsed.repetition, expected.repetition);
            ASSERT_EQ(parsed.ranks.size(), expected.ranks.size());
            for (std::size_t r = 0; r < expected.ranks.size(); ++r) {
                EXPECT_EQ(parsed.ranks[r].events.size(),
                          expected.ranks[r].events.size());
                EXPECT_EQ(parsed.ranks[r].marks.size(),
                          expected.ranks[r].marks.size());
            }
        }
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end scoring

TEST(EvalScorer, NoiseFreeLinearCaseScoresPerfectly) {
    const OracleCase oracle = find_case("linear");
    ScoreOptions options;
    options.noise = 0.0;
    const CaseScore s = score_case(oracle, options);
    EXPECT_TRUE(s.exact_recovery) << s.fitted_str;
    EXPECT_LT(s.smape_in_range, 1e-6);
    for (const double e : s.extrap_error) {
        EXPECT_LT(e, 1e-6);
    }
    EXPECT_DOUBLE_EQ(s.pi_coverage, 1.0);
    ASSERT_GE(s.cost_smape, 0.0) << "1-D case must score the cost model";
    // The truth cost for linear T is c*x + d*x^2, which a single-term PMNF
    // hypothesis cannot represent exactly even on noise-free data; ~0.6%
    // SMAPE is the model-class floor, so only gate against gross breakage.
    EXPECT_LT(s.cost_smape, 2.0);
    EXPECT_EQ(s.files_written,
              oracle.points.size() *
                  static_cast<std::size_t>(oracle.repetitions));
    EXPECT_EQ(s.configs_kept, oracle.points.size());
    EXPECT_GT(s.hypotheses_searched, 1);
}

TEST(EvalScorer, NoiseFreeMultiParamCaseRecoversBothExponents) {
    const OracleCase oracle = find_case("mp_additive");
    ScoreOptions options;
    const CaseScore s = score_case(oracle, options);
    EXPECT_TRUE(s.exact_recovery) << s.fitted_str;
    EXPECT_LT(s.smape_in_range, 1e-6);
    EXPECT_LT(s.cost_smape, 0.0)
        << "cost scoring is N/A for multi-parameter cases";
    EXPECT_EQ(s.configs_kept, oracle.points.size());
}

TEST(EvalScorer, ScoringIsDeterministicForFixedSeed) {
    const OracleCase oracle = find_case("log");
    ScoreOptions options;
    options.noise = 0.05;
    options.seed = 3;
    options.coverage_draws = 4;
    const CaseScore a = score_case(oracle, options);
    const CaseScore b = score_case(oracle, options);
    EXPECT_DOUBLE_EQ(a.smape_in_range, b.smape_in_range);
    EXPECT_DOUBLE_EQ(a.extrap_error[2], b.extrap_error[2]);
    EXPECT_DOUBLE_EQ(a.pi_coverage, b.pi_coverage);
}

TEST(EvalScorer, CaseWithoutPointsIsRejected) {
    OracleCase empty = find_case("linear");
    empty.points.clear();
    EXPECT_THROW(score_case(empty, {}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Report: records, JSON, table

CaseScore sample_score() {
    CaseScore s;
    s.case_name = "linear";
    s.noise = 0.05;
    s.seed = 1;
    s.exact_recovery = true;
    s.smape_in_range = 1.25;
    s.extrap_error[0] = 2.0;
    s.extrap_error[1] = 4.0;
    s.extrap_error[2] = 8.0;
    s.pi_coverage = 0.9;
    s.cost_smape = 1.5;
    s.fit_seconds = 0.01;
    s.hypotheses_searched = 54;
    s.hypotheses_per_sec = 5400.0;
    return s;
}

TEST(EvalReport, RecordsFollowTheStableSchemaOrder) {
    const auto records = to_records(sample_score());
    const std::vector<std::string> expected = {
        "exponent_recovery", "smape_in_range", "extrap_error_2x",
        "extrap_error_4x",   "extrap_error_8x", "pi_coverage",
        "cost_smape",        "fit_seconds",     "hypotheses_searched",
        "hypotheses_per_sec"};
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(records[i].metric, expected[i]);
        EXPECT_EQ(records[i].case_name, "linear");
        EXPECT_DOUBLE_EQ(records[i].noise, 0.05);
    }
    EXPECT_DOUBLE_EQ(records[0].value, 1.0);
    EXPECT_DOUBLE_EQ(records[1].value, 1.25);
}

TEST(EvalReport, CostMetricOmittedWhenNotApplicable) {
    CaseScore s = sample_score();
    s.cost_smape = -1.0;
    const auto records = to_records(s);
    const bool has_cost = std::any_of(
        records.begin(), records.end(),
        [](const gate::MetricRecord& r) { return r.metric == "cost_smape"; });
    EXPECT_FALSE(has_cost);
}

TEST(EvalReport, BenchJsonCarriesSchemaRevisionAndRecords) {
    const auto records = to_records(sample_score());
    const std::string json =
        gate::bench_json("extradeep-eval/1", records, {}, {"abc1234", {}});
    EXPECT_NE(json.find("\"schema\": \"extradeep-eval/1\""), std::string::npos);
    EXPECT_NE(json.find("\"git_rev\": \"abc1234\""), std::string::npos);
    EXPECT_NE(json.find("\"metric\": \"smape_in_range\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 1"), std::string::npos);
    // Non-finite values must be rejected, not silently serialised as 'nan'.
    std::vector<gate::MetricRecord> bad = records;
    bad.front().value = std::nan("");
    EXPECT_THROW(gate::bench_json("extradeep-eval/1", bad, {}, {}),
                 InvalidArgumentError);
}

TEST(EvalReport, RenderTableMentionsEveryCase) {
    const std::string table = render_table({sample_score()});
    EXPECT_NE(table.find("linear"), std::string::npos);
    EXPECT_NE(table.find("yes"), std::string::npos);
}

}  // namespace
}  // namespace extradeep::eval
