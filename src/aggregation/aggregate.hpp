#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "aggregation/metrics.hpp"
#include "profiling/edp_io.hpp"
#include "trace/kernel.hpp"

namespace extradeep::aggregation {

/// Median per-step metric values of one kernel at one measurement point -
/// the Ṽ of Fig. 2 after steps (1)-(3), separately for training and
/// validation steps (Eq. 4 needs both).
struct KernelStats {
    std::string name;
    trace::KernelCategory category = trace::KernelCategory::CudaKernel;
    double train[kMetricCount] = {};  ///< Ṽ_t per metric
    double val[kMetricCount] = {};    ///< Ṽ_v per metric
    int ranks_seen = 0;  ///< ranks on which the kernel ever appeared
    int reps_seen = 0;   ///< repetitions in which the kernel ever appeared

    double train_metric(Metric m) const { return train[static_cast<int>(m)]; }
    double val_metric(Metric m) const { return val[static_cast<int>(m)]; }
};

/// The fully aggregated data of one measurement point ("Extra-Deep object",
/// app.x4 in Fig. 2): per-kernel medians plus per-phase (computation /
/// communication / memory) per-step totals for application models.
struct ConfigurationData {
    std::map<std::string, double> params;
    int repetitions = 0;
    std::vector<KernelStats> kernels;  ///< sorted by name
    double phase_train[trace::kPhaseCount][kMetricCount] = {};
    double phase_val[trace::kPhaseCount][kMetricCount] = {};

    /// Looks a kernel up by name; nullptr if absent.
    const KernelStats* find_kernel(const std::string& name) const;

    /// Per-step phase total, e.g. phase_metric(Phase::Communication,
    /// Metric::Time, StepKind::Train) == Ṽt_comm.
    double phase_metric(trace::Phase phase, Metric metric, bool train) const;
};

struct AggregationOptions {
    /// Leading warm-up epochs whose steps are excluded from aggregation
    /// (paper: "the first epoch acts as a warm-up round ... its measurements
    /// are not used for modeling").
    int discard_warmup_epochs = 1;
};

/// Runs Fig. 2 steps (1)-(3) over all repetitions of one measurement point:
///  (1) per-step sums v_nkr of each kernel's metric values (events falling
///      between two steps are credited to the preceding step, handling
///      asynchronously executed kernels),
///  (2) median over steps, then median over MPI ranks -> Ṽ_r,
///  (3) median over repetitions -> Ṽ,
/// then sums kernels by phase for the application models (step (4) skips
/// kernel filtering, which happens across configurations - see
/// ExperimentData). All runs must carry identical params; throws
/// InvalidArgumentError otherwise or on empty input.
ConfigurationData aggregate_runs(std::span<const profiling::ProfiledRun> runs,
                                 const AggregationOptions& options = {});

}  // namespace extradeep::aggregation
