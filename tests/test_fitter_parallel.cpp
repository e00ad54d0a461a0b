// Equivalence tests for the parallel PMNF hypothesis search: at any thread
// count the fitter must return *bit-identical* models to the serial path —
// same terms, same coefficients, same quality metrics — because every
// hypothesis fit is an independent computation over the shared factor-column
// cache and the reduction breaks score ties by hypothesis index.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "eval/oracle.hpp"
#include "extradeep/models.hpp"
#include "modeling/fitter.hpp"
#include "modeling/model.hpp"

using namespace extradeep;
using namespace extradeep::modeling;

namespace {

/// Bitwise equality, so NaN quality figures (e.g. R^2 of a constant or
/// overflowing series) compare equal to themselves.
bool same_bits(double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Asserts two fitted models are identical down to the last bit.
void expect_identical(const PerformanceModel& a, const PerformanceModel& b) {
    EXPECT_EQ(a.constant(), b.constant());
    ASSERT_EQ(a.terms().size(), b.terms().size());
    for (std::size_t t = 0; t < a.terms().size(); ++t) {
        EXPECT_EQ(a.terms()[t].coefficient, b.terms()[t].coefficient);
        ASSERT_EQ(a.terms()[t].factors.size(), b.terms()[t].factors.size());
        for (std::size_t f = 0; f < a.terms()[t].factors.size(); ++f) {
            EXPECT_EQ(a.terms()[t].factors[f], b.terms()[t].factors[f]);
        }
    }
    EXPECT_TRUE(same_bits(a.quality().fit_smape, b.quality().fit_smape));
    EXPECT_TRUE(same_bits(a.quality().cv_smape, b.quality().cv_smape));
    EXPECT_TRUE(same_bits(a.quality().rss, b.quality().rss));
    EXPECT_TRUE(same_bits(a.quality().r_squared, b.quality().r_squared));
    EXPECT_EQ(a.quality().hypotheses_searched, b.quality().hypotheses_searched);
    EXPECT_EQ(a.param_names(), b.param_names());
    EXPECT_EQ(a.to_string(), b.to_string());
}

ModelGenerator generator_with_threads(int threads, int max_terms = 2) {
    FitOptions opts;
    opts.space.max_terms = max_terms;
    opts.num_threads = threads;
    return ModelGenerator(opts);
}

}  // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (const int threads : {1, 2, 4, 7}) {
        std::vector<std::atomic<int>> hits(103);
        for (auto& h : hits) h = 0;
        ThreadPool(threads).parallel_for(
            hits.size(), [&](int, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    ++hits[i];
                }
            });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
        }
    }
}

TEST(ParallelFor, ZeroCountRunsNothing) {
    bool ran = false;
    ThreadPool(4).parallel_for(0,
                               [&](int, std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesLowestChunkException) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    try {
        pool.parallel_for(100, [&](int chunk, std::size_t, std::size_t) {
            throw std::runtime_error("chunk " + std::to_string(chunk));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 0");
    }
}

TEST(ParallelFor, PoolIsReusableAcrossCalls) {
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallel_for(1000, [&](int, std::size_t begin, std::size_t end) {
            long local = 0;
            for (std::size_t i = begin; i < end; ++i) {
                local += static_cast<long>(i);
            }
            sum += local;
        });
        EXPECT_EQ(sum, 999L * 1000L / 2);
    }
}

/// Countdown latch for the submit() tests: tasks signal, the test waits.
class Latch {
public:
    explicit Latch(int count) : count_(count) {}
    void count_down() {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--count_ == 0) {
            cv_.notify_all();
        }
    }
    void wait() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return count_ <= 0; });
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int count_;
};

TEST(ThreadPoolSubmit, RunsEveryTask) {
    ThreadPool pool(4);
    constexpr int kTasks = 200;
    std::atomic<int> ran{0};
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            done.count_down();
        });
    }
    done.wait();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(pool.queued_tasks(), 0u);
}

TEST(ThreadPoolSubmit, SingleWorkerRunsFifo) {
    // ThreadPool(2) = caller + exactly one background worker, so submitted
    // tasks must execute in submission order.
    ThreadPool pool(2);
    constexpr int kTasks = 64;
    std::vector<int> order;
    std::mutex order_mutex;
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&, i] {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(i);
            }
            done.count_down();
        });
    }
    done.wait();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPoolSubmit, ThrowsOnWorkerlessPool) {
    // A degenerate pool has no background worker to ever run the task; the
    // contract is to fail loudly instead of queueing forever.
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

TEST(ThreadPoolSubmit, QueuedTasksReportsBacklog) {
    ThreadPool pool(2);  // one background worker
    std::mutex gate;
    std::condition_variable gate_cv;
    bool open = false;
    Latch started(1);
    pool.submit([&] {
        started.count_down();
        std::unique_lock<std::mutex> lock(gate);
        gate_cv.wait(lock, [&] { return open; });
    });
    started.wait();  // the worker is now parked inside the first task
    Latch rest(3);
    for (int i = 0; i < 3; ++i) {
        pool.submit([&] { rest.count_down(); });
    }
    EXPECT_EQ(pool.queued_tasks(), 3u);
    {
        std::lock_guard<std::mutex> lock(gate);
        open = true;
    }
    gate_cv.notify_all();
    rest.wait();
    EXPECT_EQ(pool.queued_tasks(), 0u);
}

TEST(ThreadPoolSubmit, CoexistsWithParallelFor) {
    // The serve daemon's usage pattern: detached tasks in flight while the
    // same pool also serves fork-join loops. Both must complete, and the
    // fork-join job must not deadlock behind queued tasks.
    ThreadPool pool(4);
    constexpr int kTasks = 100;
    std::atomic<int> ran{0};
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            done.count_down();
        });
    }
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&](int, std::size_t begin, std::size_t end) {
        long local = 0;
        for (std::size_t i = begin; i < end; ++i) {
            local += static_cast<long>(i);
        }
        sum += local;
    });
    EXPECT_EQ(sum, 999L * 1000L / 2);
    done.wait();
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ResolveNumThreads, Semantics) {
    EXPECT_EQ(resolve_num_threads(1), 1);
    EXPECT_EQ(resolve_num_threads(7), 7);
    EXPECT_GE(resolve_num_threads(0), 1);
    EXPECT_GE(resolve_num_threads(-3), 1);
}

TEST(ParallelFitter, Identical1D) {
    Rng rng(42);
    const std::vector<double> xs = {2, 4, 6, 8, 10, 12, 16, 24, 32, 48};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((10.0 + 3.0 * x + 0.5 * x * std::log2(x)) *
                     rng.lognormal_factor(0.03));
    }
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, Identical2D) {
    Rng rng(7);
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (const double y : {2.0, 4.0, 8.0, 16.0, 32.0}) {
            pts.push_back({x, y});
            ys.push_back((5.0 + 2.0 * x + 3.0 * std::log2(y)) *
                         rng.lognormal_factor(0.02));
        }
    }
    const PerformanceModel serial =
        generator_with_threads(1).fit(pts, ys, {"x1", "x2"});
    const PerformanceModel parallel =
        generator_with_threads(4).fit(pts, ys, {"x1", "x2"});
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, IdenticalWithRankDeficientHypotheses) {
    // Only two distinct x values: every 2-term basis (3 columns) has rank at
    // most 2, so a large share of the hypothesis space is rank deficient and
    // must be skipped identically by both paths.
    const std::vector<double> xs = {2, 2, 2, 8, 8, 8};
    const std::vector<double> ys = {1.1, 0.9, 1.0, 4.1, 3.9, 4.0};
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
    EXPECT_LE(serial.terms().size(), 1u);
}

TEST(ParallelFitter, IdenticalWithNonFiniteBasisHypotheses) {
    // x = 1e120 overflows the cubic (and most higher) basis columns to
    // infinity; those hypotheses are invalid and both paths must reject them
    // the same way without poisoning the rest of the search.
    const std::vector<double> xs = {2, 4, 8, 16, 1e120};
    const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0, 400.0};
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, HardwareThreadCountAlsoIdentical) {
    // num_threads = 0 resolves to the hardware concurrency, whatever it is
    // on the machine running the tests.
    Rng rng(3);
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((4.0 + 2.0 * x) * rng.lognormal_factor(0.05));
    }
    const PerformanceModel serial = generator_with_threads(1, 1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(0, 1).fit(xs, ys);
    expect_identical(serial, parallel);
}

// ---------------------------------------------------------------------------
// Thread-count identity over the oracle cases and randomised PMNF data, at
// both search-space sizes. Beyond the models, prediction intervals are
// compared too: they read the stored covariance (the normal equations),
// which the model comparison does not cover.

namespace {

/// Fits the same data at 1, 2 and 4 threads and asserts the models —
/// including prediction intervals at interpolated and extrapolated points —
/// are bit-identical to the serial fit.
void expect_thread_count_identical(const std::vector<std::vector<double>>& pts,
                                   const std::vector<double>& ys,
                                   const std::vector<std::string>& names,
                                   int max_terms) {
    const PerformanceModel serial =
        generator_with_threads(1, max_terms).fit(pts, ys, names);
    for (const int threads : {2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " terms " +
                     std::to_string(max_terms));
        const PerformanceModel parallel =
            generator_with_threads(threads, max_terms).fit(pts, ys, names);
        expect_identical(serial, parallel);
        for (const double scale : {1.0, 2.0, 8.0}) {
            std::vector<double> probe = pts.back();
            for (double& v : probe) {
                v *= scale;
            }
            const auto a = serial.predict_interval(probe);
            const auto b = parallel.predict_interval(probe);
            EXPECT_EQ(a.prediction, b.prediction) << "scale " << scale;
            EXPECT_EQ(a.lower, b.lower) << "scale " << scale;
            EXPECT_EQ(a.upper, b.upper) << "scale " << scale;
        }
    }
}

}  // namespace

TEST(ParallelFitter, OracleCasesIdenticalAcrossThreadCounts) {
    for (const auto& oracle : eval::default_oracle_cases()) {
        std::vector<double> ys;
        ys.reserve(oracle.points.size());
        for (const auto& p : oracle.points) {
            ys.push_back(oracle.truth_value(p));
        }
        SCOPED_TRACE(oracle.name);
        for (const int max_terms : {1, 2}) {
            expect_thread_count_identical(oracle.points, ys,
                                          oracle.truth.param_names(), max_terms);
        }
    }
}

TEST(ParallelFitter, RandomSpacesIdenticalAcrossThreadCounts) {
    // Randomised PMNF data: noisy samples of random-growth functions over
    // 1-D and 2-D grids, single- and two-term search spaces.
    for (const std::uint64_t seed : {11u, 23u, 57u}) {
        Rng rng(seed);
        std::vector<std::vector<double>> pts;
        std::vector<double> ys;
        const double slope = 0.5 + 5.0 * rng.uniform01();
        const double curve = rng.uniform01();
        for (const double x : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}) {
            pts.push_back({x});
            ys.push_back((3.0 + slope * x + curve * x * std::log2(x)) *
                         rng.lognormal_factor(0.04));
        }
        SCOPED_TRACE("1d seed " + std::to_string(seed));
        for (const int max_terms : {1, 2}) {
            expect_thread_count_identical(pts, ys, {"x1"}, max_terms);
        }
    }
    for (const std::uint64_t seed : {5u, 91u}) {
        Rng rng(seed);
        std::vector<std::vector<double>> pts;
        std::vector<double> ys;
        const double a = 1.0 + 3.0 * rng.uniform01();
        const double b = 1.0 + 2.0 * rng.uniform01();
        for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
            for (const double y : {2.0, 4.0, 8.0, 16.0, 32.0}) {
                pts.push_back({x, y});
                ys.push_back((4.0 + a * x + b * std::log2(y)) *
                             rng.lognormal_factor(0.03));
            }
        }
        SCOPED_TRACE("2d seed " + std::to_string(seed));
        for (const int max_terms : {1, 2}) {
            expect_thread_count_identical(pts, ys, {"x1", "x2"}, max_terms);
        }
    }
}

// ---------------------------------------------------------------------------
// Batched search: fit_batch scores every hypothesis against all value sets
// on the same points, sharing the factorizations, and must return for each
// value set exactly the model a standalone fit would, at any thread count.

namespace {

/// Asserts fit_batch over `value_sets` equals one serial fit per value set,
/// at 1, 2 and 4 threads.
void expect_batch_matches_fits(const std::vector<std::vector<double>>& pts,
                               const std::vector<std::vector<double>>& value_sets,
                               const std::vector<std::string>& names,
                               int max_terms) {
    std::vector<PerformanceModel> solo;
    for (const auto& ys : value_sets) {
        solo.push_back(generator_with_threads(1, max_terms).fit(pts, ys, names));
    }
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " terms " +
                     std::to_string(max_terms));
        const std::vector<PerformanceModel> batch =
            generator_with_threads(threads, max_terms)
                .fit_batch(pts, value_sets, names);
        ASSERT_EQ(batch.size(), value_sets.size());
        for (std::size_t j = 0; j < batch.size(); ++j) {
            SCOPED_TRACE("value set " + std::to_string(j));
            expect_identical(batch[j], solo[j]);
            ASSERT_EQ(batch[j].has_fit_info(), solo[j].has_fit_info());
            if (solo[j].has_fit_info()) {
                const auto a = batch[j].predict_interval(pts.back());
                const auto b = solo[j].predict_interval(pts.back());
                EXPECT_TRUE(same_bits(a.lower, b.lower));
                EXPECT_TRUE(same_bits(a.upper, b.upper));
            }
        }
    }
}

/// `ys` scaled by independent lognormal noise.
std::vector<double> noisy(const std::vector<double>& ys, Rng& rng,
                          double sigma) {
    std::vector<double> out;
    for (const double y : ys) {
        out.push_back(y * rng.lognormal_factor(sigma));
    }
    return out;
}

}  // namespace

TEST(FitBatch, MatchesPerSeriesFitsOnOracleCases) {
    // Noise reorders the factor ranking of multi-parameter cases, so their
    // batches split into several searches.
    Rng rng(314);
    for (const auto& oracle : eval::default_oracle_cases()) {
        std::vector<double> truth;
        for (const auto& p : oracle.points) {
            truth.push_back(oracle.truth_value(p));
        }
        const std::vector<std::vector<double>> value_sets = {
            truth, noisy(truth, rng, 0.05), noisy(truth, rng, 0.2),
            std::vector<double>(truth.size(), 7.0)};
        SCOPED_TRACE(oracle.name);
        for (const int max_terms : {1, 2}) {
            expect_batch_matches_fits(oracle.points, value_sets,
                                      oracle.truth.param_names(), max_terms);
        }
    }
}

TEST(FitBatch, MatchesPerSeriesFitsOnRandomSpaces) {
    Rng rng(2718);
    std::vector<std::vector<double>> pts_1d;
    for (const double x : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0}) {
        pts_1d.push_back({x});
    }
    std::vector<std::vector<double>> sets_1d;
    for (int s = 0; s < 6; ++s) {
        const double slope = 0.5 + 5.0 * rng.uniform01();
        const double curve = rng.uniform01();
        std::vector<double> ys;
        for (const auto& p : pts_1d) {
            const double x = p[0];
            ys.push_back((3.0 + slope * x + curve * x * std::log2(x)) *
                         rng.lognormal_factor(0.04));
        }
        sets_1d.push_back(ys);
    }
    for (const int max_terms : {1, 2}) {
        expect_batch_matches_fits(pts_1d, sets_1d, {"x1"}, max_terms);
    }

    std::vector<std::vector<double>> pts_2d;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (const double y : {2.0, 4.0, 8.0, 16.0}) {
            pts_2d.push_back({x, y});
        }
    }
    std::vector<std::vector<double>> sets_2d;
    for (int s = 0; s < 4; ++s) {
        const double a = 1.0 + 3.0 * rng.uniform01();
        const double b = 1.0 + 2.0 * rng.uniform01();
        std::vector<double> ys;
        for (const auto& p : pts_2d) {
            ys.push_back((4.0 + a * p[0] + b * std::log2(p[1]) * (s % 2)) *
                         rng.lognormal_factor(0.03));
        }
        sets_2d.push_back(ys);
    }
    for (const int max_terms : {1, 2}) {
        expect_batch_matches_fits(pts_2d, sets_2d, {"x1", "x2"}, max_terms);
    }
}

TEST(FitBatch, DegenerateSeriesDoNotPoisonTheirNeighbours) {
    // An all-zero, a constant and a huge-magnitude series beside valid ones.
    // The huge series overflows the solves of the steep hypotheses to
    // non-finite coefficients or predictions, which must invalidate those
    // hypotheses for that series only.
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<std::vector<double>> pts;
    std::vector<double> linear;
    std::vector<double> huge;
    for (const double x : xs) {
        pts.push_back({x});
        linear.push_back(2.0 + 0.5 * x);
        huge.push_back(1e305 * x);
    }
    const std::vector<std::vector<double>> value_sets = {
        linear, std::vector<double>(xs.size(), 0.0), huge,
        std::vector<double>(xs.size(), 3.25), linear};
    for (const int max_terms : {1, 2}) {
        expect_batch_matches_fits(pts, value_sets, {"x1"}, max_terms);
    }
    const auto models = generator_with_threads(2).fit_batch(pts, value_sets);
    EXPECT_FALSE(models[0].terms().empty());
    EXPECT_TRUE(models[1].terms().empty());
    EXPECT_EQ(models[1].constant(), 0.0);
}

TEST(FitBatch, EmptyBatchReturnsNoModels) {
    const std::vector<std::vector<double>> pts = {{2}, {4}, {6}, {8}, {10}};
    EXPECT_TRUE(generator_with_threads(2).fit_batch(pts, {}).empty());
}

TEST(FitBatch, SizeMismatchNamesTheValueSet) {
    const std::vector<std::vector<double>> pts = {{2}, {4}, {6}, {8}, {10}};
    const std::vector<double> good = {1, 2, 3, 4, 5};
    try {
        generator_with_threads(1).fit_batch(pts, {good, good, {1, 2, 3, 4}});
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find("value set 2"), std::string::npos)
            << e.what();
    }
    std::vector<double> bad = good;
    bad[3] = std::nan("");
    try {
        generator_with_threads(1).fit_batch(pts, {good, bad});
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find("value set 1"), std::string::npos)
            << e.what();
    }
}

TEST(ModelKernels, BatchedPointGroupsMatchPerTaskFits) {
    // Kernel "gap" is absent at x1 = 6, so its tasks are fitted on other
    // points than the rest: two batches, each of which must give exactly
    // the per-task fits of every (kernel, metric) series.
    aggregation::ExperimentData data("x1");
    for (const double x : {2.0, 4.0, 6.0, 8.0, 10.0, 12.0}) {
        aggregation::ConfigurationData config;
        config.params["x1"] = x;
        config.repetitions = 1;
        for (const char* name : {"allreduce", "conv", "gap"}) {
            if (std::string(name) == "gap" && x == 6.0) {
                continue;
            }
            aggregation::KernelStats k;
            k.name = name;
            const double scale = std::string(name) == "conv" ? 1.0 : 0.1;
            for (int m = 0; m < aggregation::kMetricCount; ++m) {
                k.train[m] = scale * (m + 1) * (1.0 + 0.3 * x * std::log2(x));
                k.val[m] = scale * (m + 2) * (2.0 + std::sqrt(x));
            }
            config.kernels.push_back(k);
        }
        data.add(config);
    }
    const std::vector<aggregation::Metric> metrics = {
        aggregation::Metric::Time, aggregation::Metric::Visits,
        aggregation::Metric::Bytes};
    const StepMathFn steps = make_step_math_fn(
        "CIFAR-10", parallel::StrategyKind::Data, 1,
        parallel::ScalingMode::Weak, 256);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const ModelGenerator generator = generator_with_threads(threads);
        const auto entries = model_kernels(data, steps, metrics, generator);
        ASSERT_EQ(entries.size(), 9u);
        for (const KernelModelEntry& e : entries) {
            SCOPED_TRACE(e.name);
            std::vector<double> xs;
            std::vector<double> train;
            std::vector<double> val;
            for (const auto& config : data.configs()) {
                if (const auto* k = config.find_kernel(e.name)) {
                    xs.push_back(config.params.at("x1"));
                    train.push_back(k->train_metric(e.metric));
                    val.push_back(k->val_metric(e.metric));
                }
            }
            EXPECT_EQ(xs.size(), e.name == "gap" ? 5u : 6u);
            expect_identical(e.model.train_step_model(),
                             generator_with_threads(1).fit(xs, train));
            expect_identical(e.model.val_step_model(),
                             generator_with_threads(1).fit(xs, val));
        }
    }
}
