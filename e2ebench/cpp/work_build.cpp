// build_bulk and build_sampled: the EDP -> .edpm build pipeline, pass
// after pass over a fixed corpus (pipeline.cpp), each pass on one thread
// and bracketed by reference-kernel runs (refkernel.hpp). Traced
// build_sampled runs go on to serve and refit live (probe_fleet_layers).

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "extradeep/models.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "profiling/edp_stream.hpp"
#include "refkernel.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace extradeep;

namespace e2ebench {

namespace {

/// Set-up probes per run: each is one pass in a fresh process.
constexpr int kSetupProbes = 5;
constexpr int kMinPasses = 3;
/// Timed passes run on one thread: a pass that waits for the slowest of
/// `nproc` threads measures the shared host's scheduler as much as the
/// program. The traced run reports the `nproc`-thread speed-up.
constexpr int kPassThreads = 1;

CorpusSpec corpus_spec(bool bulk, std::uint64_t seed) {
    return bulk ? bulk_corpus_spec(seed) : sampled_corpus_spec(seed);
}

/// bulk: default 1-term space, time models only (parse-bound).
/// sampled: 2-term space (1432 hypotheses per fit), every kernel for time,
/// bytes and visits (fit-bound).
PipelineOptions pipeline_options(bool bulk, std::uint64_t seed, int threads,
                                 bool streaming) {
    PipelineOptions o;
    o.spec = corpus_spec(bulk, seed).experiment;
    o.model_name = bulk ? "build-bulk" : "build-sampled";
    o.threads = threads;
    o.streaming = streaming;
    o.max_terms = bulk ? 1 : 2;
    if (!bulk) {
        o.kernel_metrics = {aggregation::Metric::Time,
                            aggregation::Metric::Bytes,
                            aggregation::Metric::Visits};
    }
    return o;
}

/// The reference kernel closest to the workload's dominant stage.
RefKind ref_kind(bool bulk) { return bulk ? RefKind::Parse : RefKind::Fit; }

std::vector<std::string> corpus_paths(const std::string& inputs) {
    return list_files(inputs + "/corpus", ".edp");
}

double corpus_mb(const std::vector<std::string>& paths) {
    std::uintmax_t bytes = 0;
    for (const std::string& p : paths) {
        bytes += fs::file_size(p);
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

struct ParseDrain {
    double seconds = 0.0;
    std::uint64_t records = 0;
    std::uint64_t diagnostics = 0;
};

/// Parse-only drain of the corpus with EdpStreamReader::next, files spread
/// over `threads` threads the way ingest spreads them.
ParseDrain parse_drain(const std::vector<std::string>& paths, int threads) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> diagnostics{0};
    const double t0 = now_s();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            profiling::EdpRecord rec;
            profiling::EdpReadOptions opts;
            opts.mode = ParseMode::Tolerant;
            for (std::size_t i = next++; i < paths.size(); i = next++) {
                std::ifstream is(paths[i]);
                profiling::EdpStreamReader reader(is, opts);
                std::uint64_t n = 0;
                while (reader.next(rec)) {
                    ++n;
                }
                records += n;
                diagnostics += reader.diagnostics().total();
            }
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    return {now_s() - t0, records.load(), diagnostics.load()};
}

void check_pass(const PassOutput& out, const std::string& ref_edpm,
                const std::string& ref_kernels, RunResult& result) {
    ++result.attempted;
    if (out.edpm != ref_edpm) {
        result.fail("exported .edpm differs from the serial reference");
    } else if (out.kernel_models != ref_kernels) {
        result.fail("kernel models differ from the serial reference");
    } else if (!out.roundtrip_ok) {
        result.fail("read_edpm did not reproduce the exported model");
    }
}

}  // namespace

void gen_build(bool bulk, std::uint64_t seed, const std::string& dir) {
    const std::vector<std::string> paths =
        write_corpus(corpus_spec(bulk, seed), dir + "/corpus");
    // The reference: one thread, materialising ingest. DESIGN §7/§13 make
    // every other thread count and the streaming path bit-identical to it.
    Ledger off(false);
    const PassOutput ref =
        run_pass(paths, pipeline_options(bulk, seed, 1, false), off);
    if (ref.edpm.empty() || !ref.roundtrip_ok ||
        ref.runs_kept != ref.runs_total) {
        throw Error("e2ebench: reference build of the generated corpus failed");
    }
    write_file(dir + "/reference.edpm", ref.edpm);
    write_file(dir + "/reference.kernels", ref.kernel_models);
    if (!bulk) {
        write_fleet_inputs(seed, dir + "/fleet");
    }
}

int setup_pass_child(bool bulk, std::uint64_t seed, const std::string& inputs) {
    const std::vector<std::string> paths = corpus_paths(inputs);
    Ledger off(false);
    // The kernel's own first-run costs (page faults, allocator) are not the
    // program's set-up.
    ref_kernel_cpu_s(ref_kind(bulk));
    const double ref_before = ref_kernel_cpu_s(ref_kind(bulk));
    const double t0 = cpu_seconds();
    const PassOutput out =
        run_pass(paths, pipeline_options(bulk, seed, kPassThreads, true), off);
    const double pass_cpu = cpu_seconds() - t0;
    const double ref_after = ref_kernel_cpu_s(ref_kind(bulk));
    if (out.edpm != read_file(inputs + "/reference.edpm")) {
        std::fprintf(stderr, "e2ebench: set-up pass output differs\n");
        return 1;
    }
    std::printf("%s\n",
                json_double(normalised_s(pass_cpu, ref_before, ref_after))
                    .c_str());
    return 0;
}

void run_build(bool bulk, const RunArgs& args, RunResult& result,
               Ledger& ledger) {
    const std::vector<std::string> paths = corpus_paths(args.inputs);
    const std::string ref_edpm = read_file(args.inputs + "/reference.edpm");
    const std::string ref_kernels =
        read_file(args.inputs + "/reference.kernels");
    const int threads = host_threads();
    const RefKind ref = ref_kind(bulk);
    const std::string workload = bulk ? "build_bulk" : "build_sampled";

    // Set-up: the first, unwarmed pass, each in a fresh process.
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
        ++result.attempted;
        try {
            setups.push_back(std::stod(run_child(
                {args.self_exe, "setup-pass", "--workload", workload, "--seed",
                 std::to_string(args.seed), "--inputs", args.inputs})));
        } catch (const std::exception& e) {
            result.fail(std::string("set-up pass: ") + e.what());
        }
    }
    result.end_to_end["setup_s"] = median(setups);

    PipelineOptions opts = pipeline_options(bulk, args.seed, kPassThreads, true);
    // Untraced passes: every end-to-end figure comes from these. A traced
    // run spends half its time here, half on traced passes.
    Ledger off(false);
    const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
    std::vector<double> pass_cpu;
    std::vector<double> pass_wall;
    ref_kernel_cpu_s(ref);  // warm-up, as in the set-up probes
    std::vector<double> refs = {ref_kernel_cpu_s(ref)};
    const double rss_before = current_rss_mb();
    double rss_after_first = 0.0;
    const double t_end = now_s() + budget;
    while (pass_cpu.size() < static_cast<std::size_t>(kMinPasses) ||
           now_s() < t_end) {
        const double w0 = now_s();
        const double c0 = cpu_seconds();
        const PassOutput out = run_pass(paths, opts, off);
        pass_cpu.push_back(cpu_seconds() - c0);
        pass_wall.push_back(now_s() - w0);
        refs.push_back(ref_kernel_cpu_s(ref));
        if (pass_cpu.size() == 1) {
            rss_after_first = peak_rss_mb();
        }
        check_pass(out, ref_edpm, ref_kernels, result);
    }
    const double build_s = median(normalised_passes(pass_cpu, refs));
    const double wall_p50 = median(pass_wall);
    result.end_to_end["peak_rss_mb"] = peak_rss_mb();
    result.end_to_end["build_s"] = build_s;
    if (!ledger.enabled()) {
        return;
    }

    ledger.set("e2e.build_s", build_s);
    ledger.set("e2e.build_wall_s", wall_p50);
    ledger.set("e2e.build_cpu_s", median(pass_cpu));
    ledger.set("e2e.build_n", static_cast<double>(pass_cpu.size()));
    ledger.set("host.ref_cpu_ms", median(refs) * 1e3);

    // Traced passes, then the layer probes that need a pass's data.
    opts.keep_data = true;
    std::vector<double> traced;
    PassOutput last;
    const double t_traced_end = now_s() + budget;
    while (traced.size() < static_cast<std::size_t>(kMinPasses) ||
           now_s() < t_traced_end) {
        const double t0 = now_s();
        last = run_pass(paths, opts, ledger);
        traced.push_back(now_s() - t0);
        check_pass(last, ref_edpm, ref_kernels, result);
    }
    ledger.set("obs.trace_overhead_pct",
               (median(traced) / wall_p50 - 1.0) * 100.0);

    const double mb = corpus_mb(paths);
    const ParseDrain drain = parse_drain(paths, kPassThreads);
    ledger.set("profiling.parse_mb_per_s", mb / drain.seconds);
    ledger.set("profiling.records_per_s",
               static_cast<double>(drain.records) / drain.seconds);
    ledger.set("profiling.records", static_cast<double>(drain.records));
    ledger.set("profiling.diagnostics", static_cast<double>(drain.diagnostics));

    const double pass_s = median(ledger.durations("pass"));
    const double ingest_s = median(ledger.durations("ingest"));
    ledger.set("ingest.s", ingest_s);
    ledger.set("ingest.mb_per_s", mb / ingest_s);
    ledger.set("ingest.share", ingest_s / pass_s);
    ledger.set("ingest.runs_kept_ratio",
               last.runs_total == 0 ? 0.0
                                    : static_cast<double>(last.runs_kept) /
                                          static_cast<double>(last.runs_total));
    ledger.set("ingest.rss_delta_mb", rss_after_first - rss_before);
    ledger.set("aggregation.self_s", ingest_s - drain.seconds);
    ledger.set("aggregation.configs_kept", static_cast<double>(last.configs_kept));
    ledger.set("aggregation.modelable_kernels",
               static_cast<double>(last.modelable_kernels));

    const double kernels_s = median(ledger.durations("model_kernels"));
    const double fit_s = kernels_s + median(ledger.durations("fit_app"));
    ledger.set("modeling.fits",
               static_cast<double>(last.kernel_fits + last.app_fits));
    ledger.set("modeling.hypotheses", static_cast<double>(last.hypotheses));
    ledger.set("modeling.fit_s", fit_s);
    ledger.set("modeling.hypotheses_per_s",
               static_cast<double>(last.hypotheses) / fit_s);
    ledger.set("modeling.fit_p50_us", median(ledger.durations("fit")) * 1e6);
    ledger.set("modeling.share", fit_s / pass_s);
    {
        // The same model_kernels call at nproc threads, for the speed-up
        // over the passes' one thread.
        modeling::FitOptions parallel;
        parallel.space.max_terms = opts.max_terms;
        parallel.num_threads = threads;
        const StepMathFn steps = make_step_math_fn(
            opts.spec.dataset, opts.spec.strategy,
            opts.spec.model_parallel_degree, opts.spec.scaling,
            opts.spec.batch_per_worker);
        const double t0 = now_s();
        {
            const Ledger::Span span(ledger, "model_kernels_tn");
            model_kernels(*last.data, steps, opts.kernel_metrics,
                          modeling::ModelGenerator(parallel));
        }
        ledger.set("modeling.thread_speedup", kernels_s / (now_s() - t0));
    }
    ledger.set("analysis.s", median(ledger.durations("analysis")));
    ledger.set("analysis.calls", static_cast<double>(last.analysis_calls));
    ledger.set("serialize.write_s", median(ledger.durations("write_edpm")));
    ledger.set("serialize.read_s", median(ledger.durations("read_edpm")));
    ledger.set("serialize.bytes", static_cast<double>(last.edpm.size()));
    if (!bulk) {
        probe_fleet_layers(args, args.inputs + "/fleet", ledger, result);
    }
}

}  // namespace e2ebench
