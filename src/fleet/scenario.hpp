#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/gate.hpp"
#include "extradeep/runner.hpp"
#include "fleet/continuous.hpp"
#include "sim/drift.hpp"

namespace extradeep::fleet {

/// One profiled run of `ranks` on `spec`'s system (profiler seed
/// `spec.seed`, repetition `rep`), as the raw EDP bytes a collector pushes.
std::string run_edp_bytes(const ExperimentSpec& spec, int ranks, int rep);

/// The `t` of a served `ok t=<v> lo=<v> hi=<v>` predict response; throws
/// Error on any other response.
double parse_predict_t(const std::string& response);

/// Configuration of the end-to-end continuous-modeling drift scenario (the
/// `fleet_drift_gate` ctest and `extradeep drift`).
struct ScenarioOptions {
    /// One run per rank count per round (so each round refreshes every
    /// modeling point once).
    std::vector<int> ranks = {2, 4, 6, 8, 10};
    /// Rounds pushed under the base system before the drift is injected.
    int pre_rounds = 3;
    /// Round budget for re-convergence after the injection.
    int max_drift_rounds = 10;
    /// The injected mid-stream change (onset is implied by the phases).
    /// Hardware degradation hits communication, the dominant phase at the
    /// probe scale, so the ground-truth shift is large (~1.5x at hw:2) and
    /// a stale model is unambiguously outside the convergence tolerance.
    sim::DriftKind drift_kind = sim::DriftKind::HardwareDegrade;
    double drift_severity = 2.0;
    /// Probe point for convergence checks (a modeling point, so model error
    /// against ground truth is small once the window has turned over).
    int probe_x = 10;
    /// Served prediction within this relative error of the drifted ground
    /// truth, sustained for `sustain` consecutive rounds, counts as
    /// converged.
    double rel_tol = 0.12;
    int sustain = 2;
    /// Deterministically corrupted payloads pushed after convergence; every
    /// one must be rejected without perturbing the exported model bytes.
    int corrupt_pushes = 5;
    /// Template experiment (system = the base fleet before drift).
    ExperimentSpec spec;
    int serve_threads = 4;
    int window = 6;
    int fit_threads = 2;
    /// Scratch directory; empty = a per-process directory under the system
    /// temp dir, removed afterwards.
    std::string work_dir;
    /// Progress lines on stderr.
    bool verbose = false;
};

/// Outcome plus the BENCH_fleet.json records (schema extradeep-fleet/1).
struct ScenarioReport {
    bool converged = false;
    /// Runs pushed after the injection until convergence was first sustained
    /// (the paper-facing tracking metric; ranks.size() runs per round).
    int convergence_lag_runs = 0;
    FleetStats stats;
    std::vector<gate::MetricRecord> records;
};

/// Runs the full loop end to end, all over real TCP: daemon with an
/// attached FleetService → baseline rounds pushed via the `ingest` verb →
/// drift injection (every later run generated on the degraded system) →
/// per-round re-fit + hot swap → served `predict` probes until the answer
/// tracks the new ground truth — with a concurrent query client running the
/// whole time (its error/drop counts are records: both must be zero, the
/// zero-downtime half of the acceptance criteria) and a corrupt-push batch
/// at the end (quarantine without model perturbation). Throws Error on
/// infrastructure failures; scenario outcomes are reported as records, not
/// exceptions, so the gate decides.
ScenarioReport run_drift_scenario(const ScenarioOptions& options);

}  // namespace extradeep::fleet
