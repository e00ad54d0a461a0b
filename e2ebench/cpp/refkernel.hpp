#pragma once

#include <vector>

namespace e2ebench {

/// Fixed CPU work that belongs to the benchmark, never to the program under
/// test, so no change to src/ moves it. A timed pass is bracketed by runs
/// of the reference kernel; the pass's CPU time divided by theirs is the
/// pass in units of the host's speed at that moment. On a shared host the
/// vCPUs speed up and slow down by tens of percent from minute to minute
/// (neighbours on the same cores, clock changes); the ratio cancels that to
/// first order while every change of the program still moves it.
enum class RefKind {
    Parse,  ///< tab-separated record parsing and keyed aggregation (ingest-like)
    Fit,    ///< small least-squares solves over an exponent grid (fit-like)
};

/// CPU seconds the reference kernel takes on the host the benchmark was
/// calibrated on (4-vCPU Xeon model 207, idle). Normalised figures are
/// `ratio * kNominalRefSeconds`: seconds on a host as fast as that one.
inline constexpr double kNominalRefSeconds = 0.05;

/// Runs the reference kernel once and returns the process CPU seconds it
/// took (cpu_seconds()).
double ref_kernel_cpu_s(RefKind kind);

/// One pass in host-speed units: `pass_cpu_s` divided by the mean of the
/// reference runs just before and just after it, times kNominalRefSeconds.
double normalised_s(double pass_cpu_s, double ref_before_s, double ref_after_s);

/// Normalised seconds of passes[i], bracketed by refs[i] and refs[i + 1]
/// (refs.size() == passes.size() + 1).
std::vector<double> normalised_passes(const std::vector<double>& passes,
                                      const std::vector<double>& refs);

}  // namespace e2ebench
