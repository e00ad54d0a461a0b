// extradeep-advisor: the what-if ground-truth verification harness.
//
// Fits the per-case models, evaluates the default what-if portfolio at an
// interpolation and an extrapolation point, re-simulates every scenario
// against the mutated simulator (the oracle), and scores the advisor's
// predicted savings, ranking concordance, and interval coverage. Emits a
// human table plus the machine-readable BENCH_whatif.json records, and
// optionally enforces whatif_thresholds.json (the `whatif_accuracy_gate`
// ctest).
//
// Usage:
//   extradeep-advisor                        # full suite (3 cases)
//   extradeep-advisor --quick                # gate subset (1 case)
//   extradeep-advisor --seed 7 --threads 0 --reps 5
//   extradeep-advisor --out BENCH_whatif.json
//   extradeep-advisor --thresholds whatif_thresholds.json  # exit 1 on violation

#include <cstdio>
#include <string>

#include "advisor/verify.hpp"
#include "common/cli.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--seed N] [--threads N] [--reps N]\n"
                 "          [--out FILE] [--thresholds FILE]\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    advisor::VerifyOptions options;
    cli::Args args(argc, argv, 1);
    cli::Report report{"extradeep-whatif/1", "what-if accuracy gate",
                       args.command()};

    try {
        std::string arg;
        while (args.next(arg)) {
            if (arg == "--quick") {
                options.quick = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(args.value(arg));
            } else if (arg == "--threads") {
                options.fit_threads = std::stoi(args.value(arg));
            } else if (arg == "--reps") {
                options.repetitions = std::stoi(args.value(arg));
            } else if (report.parse_flag(arg, args)) {
            } else if (arg == "-h" || arg == "--help") {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
                usage(argv[0]);
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
        const advisor::VerifyOutcome outcome = advisor::run_verify(options);
        std::printf("%s", outcome.table.c_str());
        return cli::finish(report, outcome.records);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
