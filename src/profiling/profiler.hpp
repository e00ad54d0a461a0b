#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "profiling/edp_io.hpp"
#include "profiling/sampling.hpp"
#include "sim/simulator.hpp"

namespace extradeep::profiling {

/// Drives the simulator like Nsight Systems drives a real job: runs the
/// configured sampling strategy and collects per-rank traces, accounting for
/// the profiler's own overhead (paper Sec. 4.2.4: ~5.4 % of execution time).
class Profiler {
public:
    explicit Profiler(SamplingStrategy strategy,
                      double overhead_fraction = 0.054);

    const SamplingStrategy& strategy() const { return strategy_; }

    /// Profiles one run of `simulator`'s configuration. `params` names the
    /// measurement point (the aggregation stage models against these
    /// values); `repetition` seeds the run's noise.
    ProfiledRun profile(const sim::TrainingSimulator& simulator,
                        std::map<std::string, double> params, int repetition,
                        std::uint64_t experiment_seed = 0) const;

    /// Predicted wall-clock cost of profiling one run under this strategy,
    /// including profiler overhead - without generating the events.
    double profiling_cost(const sim::TrainingSimulator& simulator) const;

private:
    SamplingStrategy strategy_;
    double overhead_fraction_;
};

/// Derives the per-run noise seed from the measurement point and the
/// repetition, so profiling and ground-truth measurement of the same run
/// agree.
std::uint64_t run_seed_for(const std::map<std::string, double>& params,
                           int repetition, std::uint64_t experiment_seed);

}  // namespace extradeep::profiling
