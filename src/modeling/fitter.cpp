#include "modeling/fitter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace extradeep::modeling {

namespace {

/// Selection scores of one hypothesis. The winner's coefficients, residual
/// and covariance are recomputed once after selection (see
/// ModelGenerator::fit), so the search itself carries no heap state.
struct HypothesisFit {
    bool valid = false;
    double fit_smape = std::numeric_limits<double>::infinity();
    double cv_smape = std::numeric_limits<double>::infinity();
};

/// Shared per-point-set cache of factor basis columns. Across the PMNF
/// hypothesis space the same factor x^i log2(x)^j appears in many hypotheses
/// (every 2-term combination re-uses the single factors); evaluating each
/// distinct factor once per point set and assembling hypothesis basis
/// matrices from the cached columns removes the repeated pow/log work from
/// the search hot loop. Multiplication order when combining a term's factor
/// columns matches Term::basis exactly, so cached and direct evaluation are
/// bit-identical.
class FactorColumnCache {
public:
    FactorColumnCache(const std::vector<std::vector<Term>>& hypotheses,
                      const std::vector<std::vector<double>>& points)
        : num_points_(points.size()) {
        for (const auto& h : hypotheses) {
            for (const auto& t : h) {
                for (const auto& f : t.factors) {
                    if (find(f) != nullptr) {
                        continue;
                    }
                    if (f.param < 0 ||
                        static_cast<std::size_t>(f.param) >=
                            (points.empty() ? 0 : points.front().size())) {
                        throw InvalidArgumentError(
                            "FactorColumnCache: parameter index out of range");
                    }
                    std::vector<double> column;
                    column.reserve(points.size());
                    for (const auto& p : points) {
                        column.push_back(f.evaluate(p[f.param]));
                    }
                    factors_.push_back(f);
                    columns_.push_back(std::move(column));
                }
            }
        }
    }

    std::size_t num_points() const { return num_points_; }

    const std::vector<double>& column(const Factor& f) const {
        const std::vector<double>* col = find(f);
        if (col == nullptr) {
            throw InvalidArgumentError("FactorColumnCache: unknown factor");
        }
        return *col;
    }

private:
    const std::vector<double>* find(const Factor& f) const {
        // The distinct-factor count is small (~100 for the default space), so
        // a linear scan beats hashing here.
        for (std::size_t i = 0; i < factors_.size(); ++i) {
            if (factors_[i] == f) {
                return &columns_[i];
            }
        }
        return nullptr;
    }

    std::size_t num_points_ = 0;
    std::vector<Factor> factors_;
    std::vector<std::vector<double>> columns_;
};

/// The value sets scored together in one batched search.
using ValueSets = std::vector<const std::vector<double>*>;

/// Per-thread scratch buffers for the hypothesis-fit loop: the basis matrix,
/// the row-subset system of the leave-one-out refits, the factorizations of
/// the full and leave-one-out systems, one solution, the prediction vectors
/// and the per-value-set verdicts are reused across hypotheses instead of
/// reallocated per fit, so the search allocates nothing once each buffer
/// has seen its largest shape. Every cell the fit reads is overwritten
/// first, so reuse cannot leak state between hypotheses (and results stay
/// bit-identical to fresh buffers). Cache-line aligned: the buffer headers
/// are rewritten per hypothesis, and neighbouring threads' scratch sharing a
/// line cost a third of the two-thread search time.
struct alignas(64) FitScratch {
    linalg::Matrix basis;
    linalg::Matrix a;
    std::vector<double> b;
    std::vector<double> term_col;
    std::vector<double> predicted;
    std::vector<double> cv_pred;
    linalg::QrFactor full;
    std::vector<linalg::QrFactor> loo;  ///< loo[i]: the system without row i
    linalg::QrSolution solution;
    std::vector<HypothesisFit> fits;  ///< fits[j]: verdict for value set j
};

/// Assembles a hypothesis's basis matrix from cached factor columns into
/// `scratch.basis`: column 0 is the constant, column t+1 the t-th term's
/// basis value at each point.
void basis_matrix(const std::vector<Term>& terms,
                  const FactorColumnCache& cache, FitScratch& scratch) {
    const std::size_t n = cache.num_points();
    scratch.basis.assign(n, terms.size() + 1);
    linalg::Matrix& b = scratch.basis;
    for (std::size_t r = 0; r < n; ++r) {
        b(r, 0) = 1.0;
    }
    // The term column is built in a contiguous buffer (the product of the
    // cached factor columns, in Term::basis factor order — the same
    // per-element multiply chain as Term::basis) and then scattered into the
    // strided basis column.
    for (std::size_t t = 0; t < terms.size(); ++t) {
        scratch.term_col.assign(n, 1.0);
        for (const auto& f : terms[t].factors) {
            const std::vector<double>& col = cache.column(f);
            for (std::size_t r = 0; r < n; ++r) {
                scratch.term_col[r] *= col[r];
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            b(r, t + 1) = scratch.term_col[r];
        }
    }
}

/// Factors the system of scratch.basis without each of its rows in turn,
/// into scratch.loo. Returns false at the first rank-deficient subset: the
/// hypothesis then fails cross-validation whatever the values.
bool factor_leave_one_out(FitScratch& scratch) {
    const linalg::Matrix& basis = scratch.basis;
    const std::size_t n = basis.rows();
    const std::size_t k = basis.cols();
    if (scratch.loo.size() < n) {
        scratch.loo.resize(n);
    }
    for (std::size_t excluded = 0; excluded < n; ++excluded) {
        scratch.a.assign(n - 1, k);
        std::size_t r = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == excluded) {
                continue;
            }
            std::memcpy(scratch.a.row(r), basis.row(i), k * sizeof(double));
            ++r;
        }
        linalg::qr_factor(scratch.a, scratch.loo[excluded]);
        if (scratch.loo[excluded].rank_deficient) {
            return false;
        }
    }
    return true;
}

/// Whether a hypothesis with `num_terms` terms can be judged on n points.
/// Exact-interpolation fits (n == k with at least one term) are rejected:
/// they leave no residual, so every such hypothesis scores a near-zero SMAPE
/// regardless of its functional form and selection among them would be
/// arbitrary. Only the degenerate constant-through-one-point case is kept as
/// an ultimate fallback.
bool enough_points(std::size_t n, std::size_t num_terms) {
    const std::size_t k = num_terms + 1;
    return n >= k + 1 || (n == k && num_terms == 0);
}

/// Scores one value set against the factored hypothesis in scratch (basis,
/// full and, when `cross_validate`, leave-one-out factors).
HypothesisFit fit_values(const std::vector<double>& values,
                         bool cross_validate, FitScratch& scratch) {
    HypothesisFit out;
    const linalg::Matrix& basis = scratch.basis;
    const std::size_t n = basis.rows();
    const std::size_t k = basis.cols();
    linalg::qr_solve(scratch.full, values, scratch.solution);
    const std::vector<double>& coef = scratch.solution.coefficients;
    for (const double c : coef) {
        if (!std::isfinite(c)) {
            return out;
        }
    }

    scratch.predicted.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            v += basis(i, c) * coef[c];
        }
        scratch.predicted[i] = v;
    }
    out.fit_smape = stats::smape(scratch.predicted, values);

    // Leave-one-out cross-validation, the paper's selection criterion.
    if (cross_validate) {
        scratch.cv_pred.resize(n);
        scratch.b.resize(n - 1);
        for (std::size_t leave = 0; leave < n; ++leave) {
            std::size_t r = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (i != leave) {
                    scratch.b[r++] = values[i];
                }
            }
            linalg::qr_solve(scratch.loo[leave], scratch.b, scratch.solution);
            const std::vector<double>& part = scratch.solution.coefficients;
            double v = 0.0;
            for (std::size_t c = 0; c < k; ++c) {
                v += basis(leave, c) * part[c];
            }
            if (!std::isfinite(v)) {
                return out;
            }
            scratch.cv_pred[leave] = v;
        }
        out.cv_smape = stats::smape(scratch.cv_pred, values);
    } else {
        // Only reachable for the constant hypothesis at n == 1 (see
        // enough_points): no spare point for cross-validation, fall back to
        // the fit error with a stiff penalty so validated models win.
        out.cv_smape = out.fit_smape * 4.0 + 1.0;
    }
    out.valid = true;
    return out;
}

/// Scores one hypothesis against every value set into scratch.fits. The
/// basis, its finiteness check and the n + 1 factorizations are computed
/// once; each value set then pays only for its solves, with the arithmetic
/// of a standalone fit. A verdict that does not depend on the values (a
/// non-finite basis, a rank-deficient full or leave-one-out system)
/// invalidates the hypothesis for all of them.
void score_hypothesis(const std::vector<Term>& terms,
                      const FactorColumnCache& cache,
                      const ValueSets& value_sets, FitScratch& scratch) {
    scratch.fits.assign(value_sets.size(), HypothesisFit{});
    const std::size_t n = cache.num_points();
    if (!enough_points(n, terms.size())) {
        return;
    }
    basis_matrix(terms, cache, scratch);
    const linalg::Matrix& basis = scratch.basis;
    for (std::size_t r = 0; r < basis.rows(); ++r) {
        for (std::size_t c = 0; c < basis.cols(); ++c) {
            if (!std::isfinite(basis(r, c))) {
                return;
            }
        }
    }
    linalg::qr_factor(basis, scratch.full);
    if (scratch.full.rank_deficient) {
        return;
    }
    const bool cross_validate = n >= basis.cols() + 1;
    if (cross_validate && !factor_leave_one_out(scratch)) {
        return;
    }
    for (std::size_t j = 0; j < value_sets.size(); ++j) {
        scratch.fits[j] = fit_values(*value_sets[j], cross_validate, scratch);
    }
}

/// Canonical order-independent key of a hypothesis, used to deduplicate the
/// multi-parameter candidate list: the multi-parameter generator can re-emit
/// hypotheses that are already present as single-parameter candidates (e.g.
/// when a parameter contributes no usable factor), and term order within a
/// hypothesis carries no meaning. Exponent doubles come verbatim from the
/// search space, so comparing them exactly is well defined.
using FactorKey = std::tuple<int, double, int>;
using HypothesisKey = std::vector<std::vector<FactorKey>>;

HypothesisKey hypothesis_key(const std::vector<Term>& h) {
    HypothesisKey key;
    key.reserve(h.size());
    for (const auto& t : h) {
        std::vector<FactorKey> factors;
        factors.reserve(t.factors.size());
        for (const auto& f : t.factors) {
            factors.emplace_back(f.param, f.poly_exp, f.log_exp);
        }
        std::sort(factors.begin(), factors.end());
        key.push_back(std::move(factors));
    }
    std::sort(key.begin(), key.end());
    return key;
}

void dedupe_hypotheses(std::vector<std::vector<Term>>& hypotheses) {
    std::set<HypothesisKey> seen;
    std::vector<std::vector<Term>> unique;
    unique.reserve(hypotheses.size());
    for (auto& h : hypotheses) {
        if (seen.insert(hypothesis_key(h)).second) {
            unique.push_back(std::move(h));
        }
    }
    hypotheses = std::move(unique);
}

/// One hypothesis search: a hypothesis list and the value sets (indices
/// into fit_batch's value_sets) whose fits search exactly that list.
struct Search {
    std::vector<std::vector<Factor>> best_factors;  ///< per parameter (dims > 1)
    std::vector<std::vector<Term>> hypotheses;
    std::vector<std::size_t> members;
};

/// Extra-P's heuristic for multi-parameter fits: each parameter's factors
/// are ranked on the subset of points where all *other* parameters are held
/// at their most frequent combination, so the other parameters' influence
/// does not distort the ranking. Returns the row indices of that subset, or
/// of all points when the subset has fewer than three.
std::vector<std::size_t> ranking_rows(
    const std::vector<std::vector<double>>& points, std::size_t d) {
    std::map<std::vector<double>, int> combos;
    for (const auto& p : points) {
        std::vector<double> key = p;
        key[d] = 0.0;
        ++combos[key];
    }
    const auto best_combo = std::max_element(
        combos.begin(), combos.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<double> key = points[i];
        key[d] = 0.0;
        if (key == best_combo->first) {
            rows.push_back(i);
        }
    }
    if (rows.size() < 3) {
        rows.resize(points.size());  // fall back to the full data
        for (std::size_t i = 0; i < rows.size(); ++i) {
            rows[i] = i;
        }
    }
    return rows;
}

/// Partitions the value sets into hypothesis searches. With one parameter
/// the list is the single-parameter space for every value set. With more,
/// it holds the constant, every parameter's 1-term hypotheses, and the
/// multi-parameter combinations of each parameter's best factors; those
/// depend on the values, and value sets with the same best factors share a
/// search.
std::vector<Search> plan_searches(
    const FitOptions& options, const std::vector<std::vector<double>>& points,
    const std::vector<std::vector<double>>& value_sets) {
    const std::size_t dims = points.front().size();
    std::vector<Search> searches;
    if (dims == 1) {
        Search& all = searches.emplace_back();
        all.hypotheses = options.space.single_parameter_hypotheses(0);
        all.members.resize(value_sets.size());
        for (std::size_t j = 0; j < value_sets.size(); ++j) {
            all.members[j] = j;
        }
        return searches;
    }

    std::vector<std::vector<std::vector<Term>>> singles(dims);
    std::vector<std::vector<std::vector<Factor>>> best_factors(
        value_sets.size(), std::vector<std::vector<Factor>>(dims));
    FitScratch rank_scratch;
    for (std::size_t d = 0; d < dims; ++d) {
        singles[d] =
            options.space.single_parameter_hypotheses(static_cast<int>(d));
        const std::vector<std::size_t> rows = ranking_rows(points, d);
        std::vector<std::vector<double>> rank_points;
        for (const std::size_t i : rows) {
            rank_points.push_back(points[i]);
        }
        std::vector<std::vector<double>> rank_values(value_sets.size());
        ValueSets rank_sets;
        for (std::size_t j = 0; j < value_sets.size(); ++j) {
            for (const std::size_t i : rows) {
                rank_values[j].push_back(value_sets[j][i]);
            }
            rank_sets.push_back(&rank_values[j]);
        }
        // Rank this parameter's 1-term hypotheses by CV error, sharing one
        // factor-column cache over the ranking subset.
        const FactorColumnCache rank_cache(singles[d], rank_points);
        std::vector<std::vector<std::pair<double, Factor>>> ranked(
            value_sets.size());
        for (const auto& h : singles[d]) {
            if (h.size() != 1) {
                continue;
            }
            score_hypothesis(h, rank_cache, rank_sets, rank_scratch);
            for (std::size_t j = 0; j < value_sets.size(); ++j) {
                if (rank_scratch.fits[j].valid) {
                    ranked[j].emplace_back(rank_scratch.fits[j].cv_smape,
                                           h.front().factors.front());
                }
            }
        }
        for (std::size_t j = 0; j < value_sets.size(); ++j) {
            std::sort(ranked[j].begin(), ranked[j].end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            const std::size_t top = std::min<std::size_t>(
                ranked[j].size(),
                static_cast<std::size_t>(options.multi_param_top_factors));
            for (std::size_t i = 0; i < top; ++i) {
                best_factors[j][d].push_back(ranked[j][i].second);
            }
        }
    }

    for (std::size_t j = 0; j < value_sets.size(); ++j) {
        auto same = std::find_if(
            searches.begin(), searches.end(),
            [&](const Search& s) { return s.best_factors == best_factors[j]; });
        if (same == searches.end()) {
            Search search;
            search.best_factors = best_factors[j];
            search.hypotheses.push_back({});  // constant
            for (const auto& single : singles) {
                for (const auto& h : single) {
                    if (h.size() == 1) {  // keep single-param candidates too
                        search.hypotheses.push_back(h);
                    }
                }
            }
            const auto multi =
                options.space.multi_parameter_hypotheses(best_factors[j]);
            search.hypotheses.insert(search.hypotheses.end(), multi.begin(),
                                     multi.end());
            // Only the multi-parameter generator can emit duplicates; the
            // single-parameter spaces are duplicate-free by construction.
            dedupe_hypotheses(search.hypotheses);
            searches.push_back(std::move(search));
            same = searches.end() - 1;
        }
        same->members.push_back(j);
    }
    return searches;
}

/// The model of a search winner: its basis rebuilt and solved once more
/// with least_squares. That is the same matrix and the same arithmetic as
/// its full fit in the search, so coefficients and residual are
/// bit-identical, and only this solve pays for the covariance inverse.
PerformanceModel winner_model(std::vector<Term> terms,
                              const HypothesisFit& best_fit, int searched,
                              const FactorColumnCache& cache,
                              const std::vector<std::vector<double>>& points,
                              const std::vector<double>& values,
                              std::vector<std::string> param_names,
                              FitScratch& scratch) {
    basis_matrix(terms, cache, scratch);
    const linalg::LeastSquaresResult full =
        linalg::least_squares(scratch.basis, values);
    for (std::size_t t = 0; t < terms.size(); ++t) {
        terms[t].coefficient = full.coefficients[t + 1];
    }
    PerformanceModel model(full.coefficients[0], std::move(terms),
                           std::move(param_names));

    const double rss = full.residual_norm * full.residual_norm;
    ModelQuality q;
    q.fit_smape = best_fit.fit_smape;
    q.cv_smape = best_fit.cv_smape;
    q.rss = rss;
    q.hypotheses_searched = searched;
    {
        std::vector<double> predicted(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            predicted[i] = model.evaluate(points[i]);
        }
        q.r_squared = stats::r_squared(predicted, values);
    }
    model.set_quality(q);

    const int dof = static_cast<int>(points.size()) -
                    static_cast<int>(model.terms().size()) - 1;
    if (dof >= 1) {
        model.set_fit_info(full.covariance_unscaled, rss / dof, dof);
    }
    return model;
}

}  // namespace

ModelGenerator::ModelGenerator(FitOptions options) : options_(std::move(options)) {}

PerformanceModel ModelGenerator::fit(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& values,
    std::vector<std::string> param_names) const {
    return std::move(fit_batch(points, {values}, std::move(param_names)).front());
}

std::vector<PerformanceModel> ModelGenerator::fit_batch(
    const std::vector<std::vector<double>>& points,
    const std::vector<std::vector<double>>& value_sets,
    std::vector<std::string> param_names) const {
    const obs::Span fit_span{"fit.model"};
    for (std::size_t j = 0; j < value_sets.size(); ++j) {
        if (value_sets[j].size() != points.size()) {
            throw InvalidArgumentError(
                "ModelGenerator::fit: value set " + std::to_string(j) +
                " has " + std::to_string(value_sets[j].size()) +
                " values for " + std::to_string(points.size()) + " points");
        }
        for (const double v : value_sets[j]) {
            if (!std::isfinite(v)) {
                throw InvalidArgumentError(
                    "ModelGenerator::fit: non-finite value in value set " +
                    std::to_string(j));
            }
        }
    }
    if (points.size() < static_cast<std::size_t>(options_.min_points)) {
        throw InvalidArgumentError(
            "ModelGenerator::fit: at least " +
            std::to_string(options_.min_points) +
            " measurement points are required (got " +
            std::to_string(points.size()) + ")");
    }
    const std::size_t dims = points.front().size();
    if (dims == 0) {
        throw InvalidArgumentError("ModelGenerator::fit: zero-dimensional points");
    }
    for (const auto& p : points) {
        if (p.size() != dims) {
            throw InvalidArgumentError(
                "ModelGenerator::fit: inconsistent point dimensions");
        }
    }
    if (value_sets.empty()) {
        return {};
    }
    param_names.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
        if (param_names[d].empty()) {
            param_names[d] = std::string("x") + std::to_string(d + 1);
        }
    }

    const std::vector<Search> searches =
        plan_searches(options_, points, value_sets);
    std::size_t max_hypotheses = 1;
    for (const Search& search : searches) {
        max_hypotheses = std::max(max_hypotheses, search.hypotheses.size());
    }
    const int threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(resolve_num_threads(options_.num_threads)),
        max_hypotheses));
    ThreadPool pool(threads);
    std::vector<FitScratch> scratch(static_cast<std::size_t>(threads));
    std::vector<PerformanceModel> models(value_sets.size());

    for (const Search& search : searches) {
        const std::vector<std::vector<Term>>& hypotheses = search.hypotheses;
        const std::size_t count = search.members.size();
        ValueSets sets;
        for (const std::size_t j : search.members) {
            sets.push_back(&value_sets[j]);
        }
        if (obs::trace_enabled()) {
            obs::global_metrics()
                .counter("extradeep_fit_hypotheses_total")
                .increment(hypotheses.size() * count);
            obs::global_metrics()
                .counter("extradeep_fit_models_total")
                .increment(count);
        }

        // Fit all hypotheses and select by (penalised) cross-validated
        // SMAPE, hypothesis-major: every hypothesis is factored once and
        // then scored against each value set. The loop is embarrassingly
        // parallel: every hypothesis fit only reads the shared factor-column
        // cache, and each chunk reduces into its own (score, index, fit)
        // slot per value set. Chunks are merged in index order with ties
        // broken by the smaller hypothesis index, which reproduces the
        // serial first-strict-minimum selection bit for bit at any thread
        // count.
        const FactorColumnCache cache(hypotheses, points);
        struct ChunkBest {
            double score = std::numeric_limits<double>::infinity();
            std::size_t index = 0;
            HypothesisFit fit;
            bool any = false;
        };
        std::vector<ChunkBest> chunk_best(static_cast<std::size_t>(threads) *
                                          count);
        pool.parallel_for(
            hypotheses.size(),
            [&](int chunk, std::size_t begin, std::size_t end) {
                // Per-chunk span: under the TaskContextHook these nest below
                // fit.model even on worker threads, so the exported trace
                // shows the search's parallel structure per thread.
                const obs::Span chunk_span{"fit.hypothesis_chunk"};
                ChunkBest* best =
                    &chunk_best[static_cast<std::size_t>(chunk) * count];
                FitScratch& chunk_scratch =
                    scratch[static_cast<std::size_t>(chunk)];
                for (std::size_t i = begin; i < end; ++i) {
                    score_hypothesis(hypotheses[i], cache, sets, chunk_scratch);
                    const double penalty =
                        1.0 + options_.term_penalty *
                                  static_cast<double>(hypotheses[i].size());
                    for (std::size_t j = 0; j < count; ++j) {
                        const HypothesisFit& f = chunk_scratch.fits[j];
                        if (!f.valid) {
                            continue;
                        }
                        const double score = f.cv_smape * penalty;
                        if (!best[j].any || score < best[j].score) {
                            best[j].score = score;
                            best[j].index = i;
                            best[j].fit = f;
                            best[j].any = true;
                        }
                    }
                }
            });
        std::vector<const ChunkBest*> winners(count, nullptr);
        for (std::size_t j = 0; j < count; ++j) {
            for (int c = 0; c < threads; ++c) {
                const ChunkBest& b =
                    chunk_best[static_cast<std::size_t>(c) * count + j];
                const ChunkBest*& winner = winners[j];
                if (b.any && (winner == nullptr || b.score < winner->score ||
                              (b.score == winner->score &&
                               b.index < winner->index))) {
                    winner = &b;
                }
            }
            if (winners[j] == nullptr) {
                throw NumericalError(
                    "ModelGenerator::fit: no hypothesis could be fitted");
            }
        }
        // The winners' re-solves are independent too; each chunk rebuilds
        // its bases in its own scratch.
        const int searched = static_cast<int>(hypotheses.size());
        pool.parallel_for(count, [&](int chunk, std::size_t begin,
                                     std::size_t end) {
            for (std::size_t j = begin; j < end; ++j) {
                const std::size_t member = search.members[j];
                models[member] = winner_model(
                    hypotheses[winners[j]->index], winners[j]->fit, searched,
                    cache, points, value_sets[member], param_names,
                    scratch[static_cast<std::size_t>(chunk)]);
            }
        });
    }
    return models;
}

namespace {

std::vector<std::vector<double>> one_parameter_points(
    const std::vector<double>& xs) {
    std::vector<std::vector<double>> points;
    points.reserve(xs.size());
    for (const double x : xs) {
        points.push_back({x});
    }
    return points;
}

}  // namespace

PerformanceModel ModelGenerator::fit(const std::vector<double>& xs,
                                     const std::vector<double>& ys,
                                     const std::string& param_name) const {
    return fit(one_parameter_points(xs), ys, {param_name});
}

std::vector<PerformanceModel> ModelGenerator::fit_batch(
    const std::vector<double>& xs,
    const std::vector<std::vector<double>>& value_sets,
    const std::string& param_name) const {
    return fit_batch(one_parameter_points(xs), value_sets, {param_name});
}

}  // namespace extradeep::modeling
