#pragma once

#include <cstddef>
#include <vector>

namespace e2ebench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank, so a tail figure never rests on a handful of
/// observations.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// One exact sample percentile.
struct Percentile {
    double value = 0.0;       ///< the sample at the nearest rank
    std::size_t n = 0;        ///< sample count
    std::size_t beyond = 0;   ///< samples ranked after the percentile
    bool reportable = false;  ///< beyond >= kMinSamplesBeyond
};

/// 1-based nearest rank of quantile q in n samples: ceil(q * n), clamped to
/// [1, n]. Computed in integer arithmetic on q in units of 1e-6 so that
/// e.g. q = 0.99, n = 1000 gives exactly 990.
std::size_t nearest_rank(std::size_t n, double q);

/// Samples ranked strictly after the nearest rank of q (0 for n == 0).
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// sample with at least q * n samples at or below it. Always an observed
/// value, never an interpolation or a histogram bucket edge. An empty
/// sample gives value 0 and reportable false.
Percentile percentile_sorted(const std::vector<double>& sorted, double q);

/// Same on an unsorted sample (sorts a copy).
Percentile percentile(std::vector<double> samples, double q);

/// Nearest-rank median (the lower middle sample for even n); 0 if empty.
double median(std::vector<double> samples);

/// True if the backlog samples of one constant-rate step trend upward: the
/// mean of the last third exceeds the mean of the first third by more than
/// max(kBacklogSlack, 50 % of the first-third mean). Fewer than three
/// samples never count as growing.
inline constexpr double kBacklogSlack = 8.0;
bool backlog_growing(const std::vector<double>& backlog);

/// Measurements of one open-loop ladder step.
struct LadderStep {
    double rate_qps = 0.0;
    std::vector<double> latency_us;  ///< per answered request, from due time
    std::size_t failed = 0;          ///< refused, wrong or unanswered
    std::vector<double> backlog;     ///< outstanding requests, sampled evenly
};

struct StepVerdict {
    double rate_qps = 0.0;
    Percentile p50;
    Percentile p99;
    bool latency_ok = false;  ///< p99 reportable and within the limit
    bool failures_ok = false;
    bool backlog_ok = false;
    bool ok() const { return latency_ok && failures_ok && backlog_ok; }
};

StepVerdict judge_step(const LadderStep& step, double p99_limit_us);

/// Highest rate of an ascending ladder whose step and every lower step
/// passed; 0 if the lowest step failed.
double max_sustained_rate(const std::vector<StepVerdict>& ladder);

}  // namespace e2ebench
