#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace e2ebench {

std::size_t nearest_rank(std::size_t n, double q) {
    if (n == 0) {
        return 0;
    }
    const auto micro =
        static_cast<std::uint64_t>(std::llround(std::clamp(q, 0.0, 1.0) * 1e6));
    const std::uint64_t rank = (micro * n + 999'999) / 1'000'000;
    return static_cast<std::size_t>(
        std::clamp<std::uint64_t>(rank, 1, static_cast<std::uint64_t>(n)));
}

std::size_t samples_beyond(std::size_t n, double q) {
    return n - nearest_rank(n, q);
}

Percentile percentile_sorted(const std::vector<double>& sorted, double q) {
    Percentile p;
    p.n = sorted.size();
    if (sorted.empty()) {
        return p;
    }
    p.value = sorted[std::max<std::size_t>(nearest_rank(p.n, q), 1) - 1];
    p.beyond = samples_beyond(p.n, q);
    p.reportable = p.beyond >= kMinSamplesBeyond;
    return p;
}

Percentile percentile(std::vector<double> samples, double q) {
    std::sort(samples.begin(), samples.end());
    return percentile_sorted(samples, q);
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5).value;
}

bool backlog_growing(const std::vector<double>& backlog) {
    const std::size_t third = backlog.size() / 3;
    if (third == 0) {
        return false;
    }
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
        first += backlog[i];
        last += backlog[backlog.size() - 1 - i];
    }
    first /= static_cast<double>(third);
    last /= static_cast<double>(third);
    return last - first > std::max(kBacklogSlack, 0.5 * first);
}

StepVerdict judge_step(const LadderStep& step, double p99_limit_us) {
    StepVerdict v;
    v.rate_qps = step.rate_qps;
    std::vector<double> sorted = step.latency_us;
    std::sort(sorted.begin(), sorted.end());
    v.p50 = percentile_sorted(sorted, 0.50);
    v.p99 = percentile_sorted(sorted, 0.99);
    v.latency_ok = v.p99.reportable && v.p99.value <= p99_limit_us;
    v.failures_ok = step.failed == 0;
    v.backlog_ok = !backlog_growing(step.backlog);
    return v;
}

double max_sustained_rate(const std::vector<StepVerdict>& ladder) {
    double best = 0.0;
    for (const StepVerdict& v : ladder) {
        if (!v.ok()) {
            break;
        }
        best = v.rate_qps;
    }
    return best;
}

}  // namespace e2ebench
