// Unit tests of the benchmark's own measurement code: exact quantiles and
// the ">= 10 samples beyond" rule, the ladder verdicts on synthetic latency
// traces, the span ledger, host normalisation, and equal-seeds-equal-inputs
// for every workload.
//
//   e2ebench_selftest SCRATCH_DIR      (run.py --selftest passes one)

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "refkernel.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace e2ebench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

std::vector<double> iota(int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) {
        v.push_back(i);
    }
    return v;
}

void test_quantiles() {
    // 1..10: nearest rank ceil(q * n).
    CHECK(nearest_rank(10, 0.5) == 5);
    CHECK(nearest_rank(10, 0.9) == 9);
    CHECK(nearest_rank(10, 0.99) == 10);
    CHECK(nearest_rank(10, 0.0) == 1);
    CHECK(nearest_rank(10, 1.0) == 10);
    CHECK(nearest_rank(1000, 0.99) == 990);  // exact, no float round-up
    CHECK(nearest_rank(0, 0.5) == 0);
    const Percentile p50 = percentile(iota(10), 0.5);
    CHECK(p50.value == 5.0 && p50.n == 10 && p50.beyond == 5);
    CHECK(!p50.reportable);  // only 5 samples beyond
    CHECK(percentile(iota(10), 0.9).value == 9.0);
    CHECK(percentile(iota(10), 0.99).value == 10.0);
    // Unsorted input gives the same answer.
    CHECK(percentile({7, 3, 9, 1, 5}, 0.5).value == 5.0);
    CHECK(median({4, 1, 3, 2}) == 2.0);  // lower middle for even n
    CHECK(median({}) == 0.0);
    // The ">= 10 beyond" rule, at its edges.
    const Percentile p99_1000 = percentile(iota(1000), 0.99);
    CHECK(p99_1000.value == 990.0 && p99_1000.beyond == 10);
    CHECK(p99_1000.reportable);
    const Percentile p99_999 = percentile(iota(999), 0.99);
    CHECK(p99_999.value == 990.0 && p99_999.beyond == 9);
    CHECK(!p99_999.reportable);
    CHECK(percentile(iota(100), 0.9).reportable);    // 10 beyond
    CHECK(!percentile(iota(99), 0.9).reportable);    // 9 beyond
    CHECK(percentile(iota(20), 0.5).reportable);     // 10 beyond
    CHECK(!percentile({}, 0.5).reportable);
}

LadderStep flat_step(double rate, std::size_t n, double latency_us) {
    LadderStep s;
    s.rate_qps = rate;
    s.latency_us.assign(n, latency_us);
    s.backlog.assign(100, 2.0);
    return s;
}

void test_ladder() {
    CHECK(!backlog_growing({}));
    CHECK(!backlog_growing({5, 500}));  // too few samples to judge
    CHECK(!backlog_growing(std::vector<double>(90, 4.0)));
    std::vector<double> ramp;
    for (int i = 0; i < 90; ++i) {
        ramp.push_back(i);
    }
    CHECK(backlog_growing(ramp));
    std::vector<double> noisy;
    for (int i = 0; i < 90; ++i) {
        noisy.push_back(i % 2 == 0 ? 1.0 : 7.0);  // bounded, not growing
    }
    CHECK(!backlog_growing(noisy));

    const double limit = 5000.0;
    const StepVerdict ok = judge_step(flat_step(1000, 2000, 100.0), limit);
    CHECK(ok.ok() && ok.p99.reportable && ok.p99.value == 100.0);
    // p99 above the limit: 2000 samples, the top 30 at 9 ms.
    LadderStep slow = flat_step(2000, 2000, 100.0);
    for (std::size_t i = 0; i < 30; ++i) {
        slow.latency_us[i] = 9000.0;
    }
    const StepVerdict slow_v = judge_step(slow, limit);
    CHECK(!slow_v.latency_ok && slow_v.p99.value == 9000.0 && !slow_v.ok());
    // The top 10 slow samples sit beyond p99: still within the limit.
    LadderStep tail = flat_step(2000, 2000, 100.0);
    for (std::size_t i = 0; i < 10; ++i) {
        tail.latency_us[i] = 9000.0;
    }
    CHECK(judge_step(tail, limit).ok());
    LadderStep failing = flat_step(4000, 2000, 100.0);
    failing.failed = 1;
    CHECK(!judge_step(failing, limit).ok());
    LadderStep growing = flat_step(4000, 2000, 100.0);
    growing.backlog = ramp;
    CHECK(!judge_step(growing, limit).ok());
    // Too few samples for a reportable p99: not sustained.
    CHECK(!judge_step(flat_step(500, 500, 100.0), limit).ok());

    const StepVerdict v1 = judge_step(flat_step(1000, 2000, 100.0), limit);
    const StepVerdict v2 = judge_step(flat_step(2000, 2000, 200.0), limit);
    const StepVerdict v3 = judge_step(slow, limit);
    const StepVerdict v4 = judge_step(flat_step(8000, 2000, 300.0), limit);
    CHECK(max_sustained_rate({v1, v2, v3, v4}) == 2000.0);  // stops at v3
    CHECK(max_sustained_rate({v1, v2}) == 2000.0);
    CHECK(max_sustained_rate({v3, v1}) == 0.0);
    CHECK(max_sustained_rate({}) == 0.0);
}

void test_ledger() {
    Ledger off(false);
    {
        const Ledger::Span s(off, "x");
    }
    CHECK(off.spans().empty());
    Ledger on(true);
    {
        const Ledger::Span outer(on, "outer");
        {
            const Ledger::Span inner(on, "inner");
            volatile double sink = 0;
            for (int i = 0; i < 100000; ++i) {
                sink = sink + i;
            }
        }
    }
    CHECK(on.spans().size() == 2);
    CHECK(on.spans()[1].parent == on.spans()[0].id);
    CHECK(on.spans()[0].parent == 0);
    CHECK(on.durations("outer").size() == 1);
    CHECK(on.durations("outer")[0] >= on.durations("inner")[0]);
}

void test_normalisation() {
    // A pass of 10 reference-kernel times reads 10 nominal kernels, however
    // fast the host ran both.
    CHECK(std::fabs(normalised_s(1.0, 0.1, 0.1) - 10 * kNominalRefSeconds) <
          1e-12);
    CHECK(std::fabs(normalised_s(2.0, 0.2, 0.2) - 10 * kNominalRefSeconds) <
          1e-12);
    // The pass is divided by the mean of the runs before and after it.
    CHECK(std::fabs(normalised_s(1.5, 0.1, 0.2) - 10 * kNominalRefSeconds) <
          1e-12);
    const std::vector<double> norm =
        normalised_passes({1.0, 3.0}, {0.1, 0.1, 0.2});
    CHECK(norm.size() == 2);
    CHECK(std::fabs(norm[0] - 10 * kNominalRefSeconds) < 1e-12);
    CHECK(std::fabs(norm[1] - 20 * kNominalRefSeconds) < 1e-12);
    bool threw = false;
    try {
        normalised_passes({1.0, 2.0}, {0.1, 0.1});
    } catch (const std::exception&) {
        threw = true;
    }
    CHECK(threw);
    // Both kernels do real, positive work.
    CHECK(ref_kernel_cpu_s(RefKind::Parse) > 0.0);
    CHECK(ref_kernel_cpu_s(RefKind::Fit) > 0.0);
}

void test_request_determinism() {
    const std::vector<std::string> names = {"a", "b", "c", "d"};
    CHECK(serve_requests(7, names, 2000) == serve_requests(7, names, 2000));
    CHECK(serve_requests(7, names, 2000) != serve_requests(8, names, 2000));
    CHECK(predict_requests(7, names, 500) == predict_requests(7, names, 500));
    CHECK(predict_requests(7, names, 500) != predict_requests(8, names, 500));
    // The verb mix: predict dominates, advise is rare.
    std::size_t predicts = 0;
    std::size_t advises = 0;
    for (const std::string& r : serve_requests(3, names, 10000)) {
        predicts += r.rfind("predict ", 0) == 0;
        advises += r.rfind("advise ", 0) == 0;
    }
    CHECK(predicts > 6500 && predicts < 7900);
    CHECK(advises > 30 && advises < 300);
    // The push sequence cycles with period experiments x configs x runs.
    const std::size_t period =
        fleet_experiments().size() * fleet_ranks().size() * kFleetRunsPerConfig;
    for (std::size_t i = 0; i < 2 * period; ++i) {
        CHECK(push_at("p", i).path == push_at("p", i + period).path);
    }
    CHECK(push_at("p", 0).experiment == push_at("p", 4).experiment);
    CHECK(push_at("p", 0).experiment != push_at("p", 5).experiment);
}

void test_input_determinism(const std::string& scratch) {
    struct Gen {
        const char* workload;
        void (*gen)(std::uint64_t, const std::string&);
    };
    const Gen gens[] = {
        {"build_bulk", [](std::uint64_t s, const std::string& d) { gen_build(true, s, d); }},
        {"build_sampled", [](std::uint64_t s, const std::string& d) { gen_build(false, s, d); }},
    };
    for (const Gen& g : gens) {
        const std::string base = scratch + "/" + g.workload;
        g.gen(11, base + "-a");
        g.gen(11, base + "-b");
        g.gen(12, base + "-c");
        const std::uint64_t a = directory_digest(base + "-a");
        CHECK(a == directory_digest(base + "-b"));
        CHECK(a != directory_digest(base + "-c"));
        std::printf("inputs of %s: equal seeds equal, other seed differs\n",
                    g.workload);
        for (const char* suffix : {"-a", "-b", "-c"}) {
            fs::remove_all(base + suffix);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: e2ebench_selftest SCRATCH_DIR\n");
        return 2;
    }
    test_quantiles();
    test_ladder();
    test_ledger();
    test_normalisation();
    test_request_determinism();
    test_input_determinism(argv[1]);
    if (g_failures != 0) {
        std::fprintf(stderr, "e2ebench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("e2ebench_selftest: all checks passed\n");
    return 0;
}
