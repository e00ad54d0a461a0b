#pragma once

#include <string>
#include <vector>

#include "common/gate.hpp"
#include "eval/scorer.hpp"

namespace extradeep::eval {

/// Flattens a score into records. Deterministic metrics come first
/// (exponent_recovery, smape_in_range, extrap_error_{2x,4x,8x},
/// pi_coverage, and cost_smape when applicable), then throughput metrics
/// (fit_seconds, hypotheses_searched, hypotheses_per_sec), which are
/// machine-dependent and never gated.
std::vector<gate::MetricRecord> to_records(const CaseScore& score);
std::vector<gate::MetricRecord> to_records(
    const std::vector<CaseScore>& scores);

/// Human-readable results table (one row per case x noise).
std::string render_table(const std::vector<CaseScore>& scores);

}  // namespace extradeep::eval
