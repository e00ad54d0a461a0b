#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "aggregation/metrics.hpp"
#include "extradeep/runner.hpp"
#include "ledger.hpp"

namespace e2ebench {

/// One build pipeline pass through the public data-plane APIs:
/// ingest_edp_files -> derived epoch/phase series -> model_kernels and the
/// eight application models -> analysis (speedup, efficiency, cost, config
/// search, growth ranking) -> write_edpm -> read_edpm.
struct PipelineOptions {
    extradeep::ExperimentSpec spec;  ///< step math, provenance, warm-up
    std::string model_name = "bench";
    int threads = 1;        ///< ingest threads and fit threads
    bool streaming = true;  ///< out-of-core ingest
    int max_terms = 1;      ///< PMNF search space
    std::vector<extradeep::aggregation::Metric> kernel_metrics = {
        extradeep::aggregation::Metric::Time};
    /// Hand the aggregated data back in PassOutput::data (layer probes).
    bool keep_data = false;
};

struct PassOutput {
    std::string edpm;            ///< exported .edpm bytes
    std::string kernel_models;   ///< one line per kernel model, rendered
    bool roundtrip_ok = false;   ///< read_edpm(edpm) re-exports identically
    std::size_t runs_total = 0;
    std::size_t runs_kept = 0;
    std::size_t configs_kept = 0;
    std::size_t modelable_kernels = 0;
    std::size_t diagnostics = 0;
    std::size_t kernel_fits = 0;   ///< PMNF fits inside model_kernels
    std::size_t app_fits = 0;      ///< the eight application models
    std::size_t hypotheses = 0;    ///< hypotheses searched over all fits
    std::size_t analysis_calls = 0;
    std::optional<extradeep::aggregation::ExperimentData> data;
};

/// Span names the pass records into the ledger (children of "pass").
/// ("fit" spans, one per application-model ModelGenerator::fit call, nest
/// under "fit_app").
inline constexpr const char* kPassStages[] = {
    "ingest", "derive", "model_kernels", "fit_app", "analysis",
    "write_edpm", "read_edpm"};

PassOutput run_pass(const std::vector<std::string>& paths,
                    const PipelineOptions& options, Ledger& ledger);

}  // namespace e2ebench
