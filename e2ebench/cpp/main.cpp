// e2ebench: the repository benchmark program. run.py builds it and calls
//   e2ebench gen --workload W --seed N --out DIR
//   e2ebench run --workload W --seed N --seconds S --trace 0|1
//                --inputs DIR --work DIR [--git-rev R] [--source-digest D]
//                [--command CMD]
//   e2ebench setup-pass --workload W --seed N --inputs DIR
// `run` prints a provenance line, then the result line (the last line of
// standard output): {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "host.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace e2ebench {

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// End-to-end metrics: every workload reports every one.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"build_s", "s"},
};

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"e2e.build_s", "s"},
    {"e2e.build_wall_s", "s"},
    {"e2e.build_cpu_s", "s"},
    {"e2e.build_n", "count"},
    {"host.ref_cpu_ms", "ms"},
    {"e2e.query_p50_us", "us"},
    {"e2e.query_p99_us", "us"},
    {"e2e.query_n", "count"},
    {"e2e.max_rate_qps", "1/s"},
    {"e2e.push_p50_us", "us"},
    {"e2e.push_p90_us", "us"},
    {"e2e.push_n", "count"},
    {"e2e.freshness_p50_ms", "ms"},
    {"e2e.freshness_p90_ms", "ms"},
    {"e2e.freshness_n", "count"},
    {"profiling.parse_mb_per_s", "MB/s"},
    {"profiling.records_per_s", "1/s"},
    {"profiling.records", "count"},
    {"profiling.diagnostics", "count"},
    {"ingest.s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.share", "ratio"},
    {"ingest.runs_kept_ratio", "ratio"},
    {"ingest.rss_delta_mb", "MB"},
    {"aggregation.self_s", "s"},
    {"aggregation.configs_kept", "count"},
    {"aggregation.modelable_kernels", "count"},
    {"modeling.fits", "count"},
    {"modeling.hypotheses", "count"},
    {"modeling.fit_s", "s"},
    {"modeling.hypotheses_per_s", "1/s"},
    {"modeling.fit_p50_us", "us"},
    {"modeling.share", "ratio"},
    {"modeling.thread_speedup", "ratio"},
    {"analysis.s", "s"},
    {"analysis.calls", "count"},
    {"serialize.write_s", "s"},
    {"serialize.read_s", "s"},
    {"serialize.bytes", "B"},
    {"registry.load_s", "s"},
    {"registry.models", "count"},
    {"query.pool_errors", "count"},
    {"query.execute_p50_us.predict", "us"},
    {"query.execute_p50_us.speedup", "us"},
    {"query.execute_p50_us.efficiency", "us"},
    {"query.execute_p50_us.cost", "us"},
    {"query.execute_p50_us.search", "us"},
    {"query.execute_p50_us.whatif", "us"},
    {"query.execute_p50_us.advise", "us"},
    {"query.execute_p50_us.plan", "us"},
    {"server.ping_rtt_p50_us", "us"},
    {"server.overhead_p50_us", "us"},
    {"server.pipelined_pair_p50_us", "us"},
    {"ladder.r1.p50_us", "us"},
    {"ladder.r1.p99_us", "us"},
    {"ladder.r2.p50_us", "us"},
    {"ladder.r2.p99_us", "us"},
    {"ladder.r3.p50_us", "us"},
    {"ladder.r3.p99_us", "us"},
    {"ladder.r4.p50_us", "us"},
    {"ladder.r4.p99_us", "us"},
    {"loadgen.send_lag_p99_us", "us"},
    {"loadgen.backlog_max", "count"},
    {"loadgen.rate_achieved_qps", "1/s"},
    {"fleet.handle_ingest_p50_us", "us"},
    {"fleet.install_p50_us", "us"},
    {"fleet.refit_p50_ms", "ms"},
    {"fleet.refits", "count"},
    {"fleet.swaps", "count"},
    {"fleet.swap_ratio", "ratio"},
    {"fleet.refits_skipped", "count"},
    {"fleet.stale_discarded", "count"},
    {"fleet.quarantined", "count"},
    {"fleet.staleness_max_runs", "count"},
    {"obs.trace_overhead_pct", "%"},
};

const std::vector<std::string> kWorkloads = {"build_bulk", "build_sampled"};

int usage() {
    std::fprintf(stderr,
                 "usage: e2ebench gen --workload W --seed N --out DIR\n"
                 "       e2ebench run --workload W --seed N --seconds S "
                 "--trace 0|1 --inputs DIR --work DIR\n"
                 "                    [--git-rev R] [--source-digest D] "
                 "[--command CMD]\n"
                 "       e2ebench setup-pass --workload W --seed N "
                 "--inputs DIR\n");
    return 2;
}

std::string metric_json(const char* name, double value, const char* unit) {
    return json_string(name) + ":{\"value\":" + json_double(value) +
           ",\"unit\":" + json_string(unit) + "}";
}

int run(const std::map<std::string, std::string>& flags, const RunArgs& args) {
    if (!args.trace) {
        // Internal spans or an unoptimised build would pollute every
        // end-to-end figure.
        if (std::getenv("EXTRADEEP_TRACE") != nullptr) {
            std::fprintf(stderr,
                         "e2ebench: refusing an untraced run with "
                         "EXTRADEEP_TRACE set\n");
            return 3;
        }
        if (!release_build()) {
            std::fprintf(stderr,
                         "e2ebench: refusing an untraced run of a %s build; "
                         "build with CMAKE_BUILD_TYPE=Release\n",
                         build_type());
            return 3;
        }
    }
    Provenance prov;
    const auto flag = [&flags](const char* key) {
        const auto it = flags.find(key);
        return it == flags.end() ? std::string("unknown") : it->second;
    };
    prov.git_rev = flag("--git-rev");
    prov.source_digest = flag("--source-digest");
    prov.command = flag("--command");
    prov.workload = args.workload;
    prov.seed = args.seed;
    prov.seconds = args.seconds;
    prov.trace = args.trace;
    prov.spin_mops_per_thread = spin_calibration(host_threads(), 0.05);
    std::printf("%s\n", provenance_json(prov).c_str());
    std::fflush(stdout);

    fs::remove_all(args.work);
    fs::create_directories(args.work);
    RunResult result;
    Ledger ledger(args.trace);
    run_build(args.workload == "build_bulk", args, result, ledger);
    fs::remove_all(args.work);

    for (const std::string& p : result.problems) {
        std::fprintf(stderr, "e2ebench: check failed: %s\n", p.c_str());
    }
    std::string metrics;
    if (args.trace) {
        for (const MetricDef& m : kPerLayer) {
            const auto it = ledger.metrics().find(m.name);
            const double v = it == ledger.metrics().end() ? 0.0 : it->second;
            metrics += metrics.empty() ? "" : ",";
            metrics += metric_json(m.name, v, m.unit);
        }
    } else {
        for (const MetricDef& m : kEndToEnd) {
            const auto it = result.end_to_end.find(m.name);
            if (it == result.end_to_end.end()) {
                throw extradeep::Error(std::string("e2ebench: workload did not "
                                                   "measure ") + m.name);
            }
            metrics += metrics.empty() ? "" : ",";
            metrics += metric_json(m.name, it->second, m.unit);
        }
    }
    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return 0;
}

}  // namespace

}  // namespace e2ebench

int main(int argc, char** argv) {
    using namespace e2ebench;
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    std::map<std::string, std::string> flags;
    for (int i = 2; i + 1 < argc; i += 2) {
        flags[argv[i]] = argv[i + 1];
    }
    const auto need = [&flags](const char* key) -> const std::string& {
        const auto it = flags.find(key);
        if (it == flags.end()) {
            throw extradeep::Error(std::string("e2ebench: missing ") + key);
        }
        return it->second;
    };
    try {
        const std::string& workload = need("--workload");
        bool known = false;
        for (const std::string& w : kWorkloads) {
            known = known || w == workload;
        }
        if (!known) {
            std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                         workload.c_str());
            return 2;
        }
        const std::uint64_t seed = std::stoull(need("--seed"));
        const bool bulk = workload == "build_bulk";
        if (cmd == "gen") {
            const std::string& out = need("--out");
            fs::create_directories(out);
            gen_build(bulk, seed, out);
            return 0;
        }
        if (cmd == "setup-pass") {
            return setup_pass_child(bulk, seed, need("--inputs"));
        }
        if (cmd == "run") {
            RunArgs args;
            args.workload = workload;
            args.seed = seed;
            args.seconds = std::stoi(need("--seconds"));
            args.trace = need("--trace") == "1";
            args.inputs = need("--inputs");
            args.work = need("--work");
            args.self_exe = fs::absolute(argv[0]).string();
            if (args.seconds < 1) {
                return usage();
            }
            return run(flags, args);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
    return usage();
}
