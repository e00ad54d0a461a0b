#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::aggregation {

/// Semantic validation of profiled runs, between parsing and aggregation.
///
/// The EDP parser guarantees well-formed records and finite, non-negative
/// metric values; this pass checks the invariants a line-based parser cannot
/// see: NVTX mark pairing and nesting, monotonic step indices, duplicate
/// ranks, rank completeness across a run, and repetition completeness across
/// a configuration. Each run receives a keep/drop verdict that the ingestion
/// layer uses to degrade gracefully instead of aborting the experiment.

struct RunValidationOptions {
    /// Exact number of ranks the run must contain; -1 accepts any count >= 1.
    /// (Cross-run uniformity is checked by validate_experiment.)
    int expected_ranks = -1;
    /// Minimum number of complete (non-async) step windows summed over all
    /// ranks. A run without a single complete step contributes nothing to
    /// the medians and is dropped.
    int min_step_windows = 1;
};

/// Keep/drop verdict for one run. Error-severity diagnostics explain a
/// drop; warnings describe oddities that do not disqualify the run.
struct RunVerdict {
    bool keep = true;
    DiagnosticLog diagnostics;
};

/// Validates one profiled run:
///  - params present, with finite values,
///  - finite, non-negative wall time and event/mark metric values,
///  - at least one rank; rank ids unique and non-negative,
///  - expected_ranks (if set) matched exactly,
///  - every rank's marks segment into steps (pairing/nesting, via
///    trace::segment_steps) with strictly increasing step indices per
///    (epoch, step kind),
///  - at least min_step_windows complete steps across all ranks.
RunVerdict validate_run(const profiling::ProfiledRun& run,
                        const RunValidationOptions& options = {});

struct ExperimentValidationOptions {
    RunValidationOptions run;
    /// Configurations with fewer surviving repetitions are dropped whole.
    int min_repetitions = 1;
    /// Require every surviving run of a configuration to have the modal
    /// rank count of that configuration (rank completeness: a run that lost
    /// ranks would bias the median over ranks toward zero).
    bool require_uniform_ranks = true;
};

/// Verdicts for a whole experiment, shaped like the input: one keep flag
/// per run and per configuration.
struct ExperimentVerdict {
    std::vector<std::vector<bool>> keep_run;  ///< [config][repetition]
    std::vector<bool> keep_config;
    DiagnosticLog diagnostics;
    std::size_t runs_kept = 0;
    std::size_t runs_dropped = 0;
    std::size_t configs_kept = 0;
    std::size_t configs_dropped = 0;

    /// True if at least one configuration survived.
    bool any_usable() const { return configs_kept > 0; }
};

/// Validates every run of every configuration (one inner vector per
/// measurement point = the repetitions of that point), then applies the
/// cross-run invariants: identical params within a configuration, uniform
/// rank counts (optional), duplicate repetition indices (warning only), and
/// the min_repetitions floor per configuration.
ExperimentVerdict validate_experiment(
    std::span<const std::vector<profiling::ProfiledRun>> configs,
    const ExperimentValidationOptions& options = {});

/// Everything the cross-run stage of validate_experiment needs to know
/// about one run, decoupled from the run's bulk data (events/marks). The
/// streaming ingestion path validates each run at read time, keeps only
/// these facts, and discards the trace — so experiment validation produces
/// the identical diagnostic sequence without the runs in memory.
struct ValidatedRunFacts {
    std::map<std::string, double> params;
    std::size_t n_ranks = 0;
    int repetition = 0;
    RunVerdict verdict;  ///< validate_run outcome for this run
};

/// The cross-run stage of validate_experiment, operating on precomputed
/// per-run verdicts and facts. validate_experiment is implemented as
/// validate_run over every run followed by this function, so materialising
/// and streaming callers share one implementation (and one diagnostic
/// order).
ExperimentVerdict validate_experiment_facts(
    std::span<const std::vector<ValidatedRunFacts>> configs,
    const ExperimentValidationOptions& options = {});

}  // namespace extradeep::aggregation
