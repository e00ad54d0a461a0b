// Adaptive profiling planner (src/planner): plan determinism across thread
// counts, the racing
// invariants (eliminated arms stay retired, budgets are respected), the
// oracle measurement backend's equivalence with the fixed-grid harness, and
// the planner's observability instruments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "common/error.hpp"
#include "common/gate.hpp"
#include "common/json.hpp"
#include "eval/measurement.hpp"
#include "eval/oracle.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "planner/planner.hpp"
#include "planner/report.hpp"

namespace {

using namespace extradeep;

eval::OracleCase find_case(const std::string& name) {
    for (auto& c : eval::default_oracle_cases()) {
        if (c.name == name) {
            return c;
        }
    }
    throw InvalidArgumentError("test: unknown oracle case " + name);
}

planner::PlanOptions noisy_options() {
    planner::PlanOptions options;
    options.num_threads = 1;
    return options;
}

// --- run_plan core behaviour ------------------------------------------------

TEST(Planner, NoiseFreeCaseStopsAfterSeedRound) {
    eval::OracleMeasurementSource source(find_case("linear"), {});
    const planner::PlanResult plan =
        planner::run_plan(source, noisy_options());
    // Noise-free data collapses every prediction interval, so all arms are
    // confidently retired on the seed fit: 5 runs instead of 25.
    EXPECT_EQ(plan.stop_reason, "confidence");
    EXPECT_DOUBLE_EQ(plan.runs_used, 5.0);
    EXPECT_DOUBLE_EQ(plan.baseline_runs, 25.0);
    EXPECT_DOUBLE_EQ(plan.cost_reduction_pct, 80.0);
    ASSERT_EQ(plan.rounds.size(), 1u);
    EXPECT_EQ(plan.rounds[0].arm_pulled, -1);
    for (const auto& arm : plan.arms) {
        EXPECT_TRUE(arm.eliminated);
        EXPECT_EQ(arm.eliminated_reason, "confident");
        EXPECT_EQ(arm.eliminated_round, 0);
    }
    EXPECT_EQ(source.runs_materialized(), 5u);
}

TEST(Planner, NoisyCaseSavesRunsWithinEliminationInvariants) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    const planner::PlanResult plan =
        planner::run_plan(source, noisy_options());
    EXPECT_GT(plan.runs_used, 5.0);
    EXPECT_LT(plan.runs_used, plan.baseline_runs);
    // Reported budget equals the backend's proof-of-work counter.
    EXPECT_DOUBLE_EQ(plan.runs_used,
                     static_cast<double>(source.runs_materialized()));
    // The racing loop must never pull an arm that an earlier round retired.
    for (const auto& round : plan.rounds) {
        if (round.arm_pulled < 0) {
            continue;
        }
        const planner::ArmState& arm =
            plan.arms[static_cast<std::size_t>(round.arm_pulled)];
        ASSERT_TRUE(arm.eliminated);
        EXPECT_GE(arm.eliminated_round, round.round);
    }
    // Per-arm bookkeeping adds up to the budget.
    double pulls = 0.0;
    for (const auto& arm : plan.arms) {
        EXPECT_EQ(static_cast<std::size_t>(arm.pulls), arm.values.size());
        EXPECT_LE(arm.pulls, noisy_options().max_pulls_per_arm);
        pulls += static_cast<double>(arm.pulls);
    }
    EXPECT_DOUBLE_EQ(plan.runs_used, pulls);
}

TEST(Planner, BudgetStopsTheRace) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    planner::PlanOptions options = noisy_options();
    options.budget = 7;  // seed round (5) + two racing pulls
    const planner::PlanResult plan = planner::run_plan(source, options);
    EXPECT_EQ(plan.stop_reason, "budget");
    EXPECT_DOUBLE_EQ(plan.runs_used, 7.0);
}

TEST(Planner, ValidatesOptions) {
    eval::MaterializeOptions mat;
    eval::OracleCase small = find_case("linear");
    small.points.resize(2);  // fewer arms than the fitter's min_points
    eval::OracleMeasurementSource small_source(small, mat);
    EXPECT_THROW(planner::run_plan(small_source, noisy_options()),
                 InvalidArgumentError);

    eval::OracleMeasurementSource source(find_case("linear"), mat);
    planner::PlanOptions bad_seed = noisy_options();
    bad_seed.seed_pulls = 0;
    EXPECT_THROW(planner::run_plan(source, bad_seed), InvalidArgumentError);
    planner::PlanOptions bad_width = noisy_options();
    bad_width.target_rel_width = 0.0;
    EXPECT_THROW(planner::run_plan(source, bad_width), InvalidArgumentError);
    planner::PlanOptions bad_budget = noisy_options();
    bad_budget.budget = 4;  // cannot cover the 5-arm seed round
    EXPECT_THROW(planner::run_plan(source, bad_budget), InvalidArgumentError);
}

// --- determinism ------------------------------------------------------------

TEST(Planner, PlanJsonIsByteIdenticalAcrossThreadCounts) {
    std::vector<std::string> renders;
    for (const int threads : {1, 2, 4}) {
        planner::PlanOptions options = noisy_options();
        options.num_threads = threads;
        const std::vector<planner::PlanCaseReport> reports = planner::plan_suite(
            {find_case("linear"), find_case("xlogx")}, {0.0, 0.05}, 1, options);
        renders.push_back(gate::bench_json(
            "extradeep-plan/1", planner::to_records(reports),
            planner::bench_members(reports), {"testrev", {}}));
    }
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_EQ(renders[0], renders[2]);
}

TEST(Planner, SameSeedSamePlanFreshSource) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    mat.seed = 42;
    std::vector<std::string> renders;
    for (int i = 0; i < 2; ++i) {
        eval::OracleMeasurementSource source(find_case("quadratic"), mat);
        const planner::PlanResult plan =
            planner::run_plan(source, noisy_options());
        std::string trace;
        for (const auto& round : plan.rounds) {
            trace += std::to_string(round.arm_pulled) + ":" + round.fitted +
                     ";";
        }
        renders.push_back(trace);
    }
    EXPECT_EQ(renders[0], renders[1]);
}

// --- oracle measurement backend ---------------------------------------------

TEST(OracleMeasurementSource, MatchesFixedGridData) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    const eval::OracleCase oracle = find_case("linear");
    eval::OracleMeasurementSource source(oracle, mat);
    ASSERT_EQ(source.num_configs(), oracle.points.size());
    EXPECT_EQ(source.param_names(), oracle.truth.param_names());
    // One pull equals one fixed-grid repetition: materialising the run
    // directly and aggregating it reproduces measure() bit for bit.
    for (const std::size_t config : {std::size_t{0}, std::size_t{3}}) {
        for (const int rep : {0, 2}) {
            const profiling::ProfiledRun run =
                eval::materialize_run(oracle, config, rep, mat);
            const std::vector<profiling::ProfiledRun> runs = {run};
            const aggregation::ConfigurationData data =
                aggregation::aggregate_runs(runs);
            const aggregation::KernelStats* kernel =
                data.find_kernel(eval::kOracleKernel);
            ASSERT_NE(kernel, nullptr);
            EXPECT_DOUBLE_EQ(source.measure(config, rep),
                             kernel->train_metric(aggregation::Metric::Time));
        }
    }
    // Same (config, repetition) pull is idempotent; distinct repetitions
    // draw independent noise.
    EXPECT_DOUBLE_EQ(source.measure(1, 0), source.measure(1, 0));
    EXPECT_NE(source.measure(1, 0), source.measure(1, 1));
    // Repetitions beyond the case's fixed-grid count stay deterministic.
    EXPECT_DOUBLE_EQ(source.measure(1, 7), source.measure(1, 7));
    EXPECT_EQ(source.runs_materialized(), 10u);
    EXPECT_DOUBLE_EQ(source.run_cost(0), 1.0);
    EXPECT_THROW(source.measure(source.num_configs(), 0),
                 InvalidArgumentError);
}

// --- observability ----------------------------------------------------------

TEST(Planner, PublishesInstrumentsToInjectedRegistry) {
    eval::MaterializeOptions mat;
    mat.noise = 0.05;
    eval::OracleMeasurementSource source(find_case("linear"), mat);
    obs::MetricsRegistry metrics;
    obs::FakeClock clock(0, 1500);  // 1.5 us per reading
    planner::PlanOptions options = noisy_options();
    options.metrics = &metrics;
    options.clock = &clock;
    const planner::PlanResult plan = planner::run_plan(source, options);
    EXPECT_EQ(metrics.counter("extradeep_plan_arms_pulled").value(),
              static_cast<std::uint64_t>(plan.runs_used));
    EXPECT_EQ(metrics.counter("extradeep_plan_budget_spent").value(),
              static_cast<std::uint64_t>(plan.runs_used));
    // One refit per recorded round, timed through the injected clock.
    const obs::Histogram& latency = metrics.histogram(
        "extradeep_plan_refit_latency_us",
        obs::MetricsRegistry::default_latency_buckets_us());
    EXPECT_EQ(latency.count(), plan.rounds.size());
    EXPECT_GT(latency.sum(), 0.0);
    const std::string exposition = metrics.exposition();
    EXPECT_NE(exposition.find("extradeep_plan_arms_pulled"),
              std::string::npos);
    EXPECT_NE(exposition.find("extradeep_plan_budget_spent"),
              std::string::npos);
    EXPECT_NE(exposition.find("extradeep_plan_refit_latency_us"),
              std::string::npos);
}

TEST(ScopedLatencyTimer, ObservesElapsedAndToleratesNullHistogram) {
    obs::FakeClock clock(1000, 0);
    obs::Histogram histogram(obs::MetricsRegistry::default_latency_buckets_us());
    {
        const obs::ScopedLatencyTimer timer(clock, &histogram);
        clock.advance(250000);  // 250 us
    }
    EXPECT_EQ(histogram.count(), 1u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 250.0);
    {
        // Null histogram disables the probe; the clock must stay unread.
        const obs::ScopedLatencyTimer timer(clock, nullptr);
        clock.advance(1);
    }
    EXPECT_EQ(clock.now_ns(), 1000u + 250000u + 1u);
}

// --- report ----------------------------------------------------------------

TEST(PlanReport, JsonParsesAndCarriesSchema) {
    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite({find_case("linear")}, {0.0}, 1, noisy_options());
    const std::string rendered = gate::bench_json(
        "extradeep-plan/1", planner::to_records(reports),
        planner::bench_members(reports), {"abc123", {}});
    const json::Value doc = json::parse(rendered, "plan JSON");
    const json::Value* schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "extradeep-plan/1");
    ASSERT_NE(doc.find("plans"), nullptr);
    ASSERT_NE(doc.find("records"), nullptr);
    EXPECT_EQ(doc.find("plans")->array.size(), 1u);
}

TEST(PlanReport, RecordsIncludeSuiteSummaryAndPaperReference) {
    const std::vector<planner::PlanCaseReport> reports =
        planner::plan_suite({find_case("linear")}, {0.0}, 1, noisy_options());
    const std::vector<gate::MetricRecord> records =
        planner::to_records(reports);
    bool found_paper = false;
    for (const auto& r : records) {
        if (r.case_name == "suite" &&
            r.metric == "paper_sampling_reduction_pct") {
            found_paper = true;
            EXPECT_DOUBLE_EQ(r.value, planner::kPaperSamplingReductionPct);
        }
    }
    EXPECT_TRUE(found_paper);
}

}  // namespace
