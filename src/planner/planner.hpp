#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/measurement.hpp"
#include "modeling/fitter.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace extradeep::planner {

/// Tuning knobs of the adaptive experiment planner (DESIGN.md Sec. 15).
/// The planner treats candidate configurations as arms of a best-arm-style
/// racing problem: it repeatedly profiles the configuration whose
/// prediction is least certain and retires (eliminates) arms once the
/// fitted model's relative prediction-interval width at their point drops
/// below `target_rel_width`.
struct PlanOptions {
    /// Measurements taken per arm in the seed round. At least 1; the fit
    /// needs one value per configuration before any scoring can happen.
    int seed_pulls = 1;
    /// Hard per-arm cap, mirroring the fixed grid's repetition count; an
    /// arm reaching it is retired as "exhausted" (more repetitions than the
    /// grid would never be a saving).
    int max_pulls_per_arm = 5;
    /// Total pull budget in profiled runs; 0 derives the fixed-grid cost
    /// (num_configs * max_pulls_per_arm).
    int budget = 0;
    /// An arm is confidently settled when interval_half_width(point) /
    /// (sqrt(pulls) * |prediction|) falls to this value or below.
    double target_rel_width = 0.12;
    /// Arms with fewer than this many pulls face a stricter confidence bar
    /// (target_rel_width * untrusted_margin): a single measurement that
    /// happens to sit on the fitted curve must not retire its arm while the
    /// residual scatter says the data is noisy. Noise-adaptive by
    /// construction - on noise-free sources the interval collapses and
    /// even 1-pull arms clear the stricter bar immediately.
    int trusted_pulls = 3;
    double untrusted_margin = 0.02;
    /// Confidence level of the acquisition intervals.
    double confidence = 0.95;
    /// Threads for the hypothesis search (FitOptions::num_threads). The
    /// plan is bit-identical at any setting - the fitter's reductions are
    /// order-stable by construction.
    int num_threads = 1;
    /// Time source for the refit-latency histogram only; never serialised
    /// into the PlanResult, so plans stay byte-reproducible under real
    /// clocks. nullptr means the shared steady clock.
    const obs::Clock* clock = nullptr;
    /// Metrics sink for extradeep_plan_* instruments. nullptr publishes to
    /// the global registry when tracing is enabled (the fitter's pattern)
    /// and disables metrics otherwise.
    obs::MetricsRegistry* metrics = nullptr;
};

/// Per-arm outcome of a finished plan.
struct ArmState {
    std::vector<double> point;
    std::vector<double> values;  ///< pulled measurements, in pull order
    double mean = 0.0;           ///< running mean of `values`
    int pulls = 0;
    bool eliminated = false;
    int eliminated_round = -1;       ///< -1 = still active when the plan stopped
    std::string eliminated_reason;   ///< "confident" | "exhausted" | ""
    double last_rel_width = 0.0;     ///< relative width at the last refit
};

/// One refit round of the plan. Round 0 is the seed round (every arm pulled
/// seed_pulls times, arm_pulled == -1); each later round pulls exactly one
/// arm and refits.
struct PlanRound {
    int round = 0;
    int arm_pulled = -1;
    int pulls_this_round = 0;
    double budget_spent = 0.0;  ///< cumulative runs after this round
    std::string fitted;         ///< model rendered after the refit
    std::string growth;         ///< dominant growth, all parameters
    bool growth_changed = false;
    double max_rel_width = 0.0;  ///< over arms still active after elimination
    int eliminated_total = 0;    ///< cumulative arms retired
};

/// A finished plan: what was measured, in what order, what it cost, and the
/// model the surviving data supports. Serialised as schema extradeep-plan/1
/// by planner::bench_members.
struct PlanResult {
    double runs_used = 0.0;
    double baseline_runs = 0.0;       ///< fixed-grid cost of the same case
    double cost_reduction_pct = 0.0;  ///< 100 * (1 - runs_used / baseline)
    std::string stop_reason;          ///< "confidence" | "exhausted" | "budget"
    std::vector<ArmState> arms;
    std::vector<PlanRound> rounds;
    modeling::PerformanceModel model;
    std::vector<std::string> param_names;
};

/// Runs the adaptive plan against a measurement source. Deterministic: the
/// source must be, and everything else is - the refit dispatches on the
/// ThreadPool submit() lane but the caller blocks on its completion, and
/// the acquisition argmax breaks ties toward the lowest arm index. Throws
/// InvalidArgumentError when the source has fewer arms than the fitter's
/// min_points or the budget cannot cover the seed round.
PlanResult run_plan(eval::MeasurementSource& source,
                    const PlanOptions& options);

}  // namespace extradeep::planner
