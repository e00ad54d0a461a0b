#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace e2ebench {

/// Arguments of one measured run.
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    std::string inputs;  ///< generated input directory (read-only)
    std::string work;    ///< scratch directory of this run (emptied first)
    std::string self_exe;
};

/// Outcome of one run: counts, output-check verdict, end-to-end metrics.
/// Per-layer metrics go into the ledger.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< refused, erroring or wrong outputs
    std::vector<std::string> problems;
    std::map<std::string, double> end_to_end;

    void fail(const std::string& what, std::uint64_t count = 1) {
        failed += count;
        if (problems.size() < 20) {
            problems.push_back(what);
        }
    }
};

/// Per-workload entry points. gen_* write the inputs of a seed into a
/// directory; run_* measure and check.
void gen_build(bool bulk, std::uint64_t seed, const std::string& dir);
void run_build(bool bulk, const RunArgs& args, RunResult& result,
               Ledger& ledger);
/// One unwarmed pass in a fresh process (the build set-up probe); prints
/// its wall seconds on stdout.
int setup_pass_child(bool bulk, std::uint64_t seed, const std::string& inputs);

/// Serve-layer probes on a live daemon whose registry is the model files
/// of `models_dir` (the fleet probe's daemon, after the pushes drained): the
/// open-loop rate ladder over the full query mix, library-mode execute per
/// verb and transport round trips. Answers are checked against library
/// mode.
void probe_serve_layers(int port, const std::string& models_dir,
                        std::uint64_t seed, Ledger& ledger, RunResult& result);

/// The fleet and serve layers, probed by traced build_sampled runs on the
/// fleet inputs under `inputs` (write_fleet_inputs): 5 s of pushes beside
/// reads through FleetService and the daemon, the serve probes, and a
/// serial replay whose models must equal the served ones.
void probe_fleet_layers(const RunArgs& args, const std::string& inputs,
                        Ledger& ledger, RunResult& result);

}  // namespace e2ebench
