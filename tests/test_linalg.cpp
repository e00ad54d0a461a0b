#include "common/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

using namespace extradeep::linalg;
using extradeep::InvalidArgumentError;
using extradeep::NumericalError;
using extradeep::Rng;

TEST(Matrix, ConstructionAndIndexing) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Transpose) {
    Matrix m(2, 3);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(0, 2) = 3;
    m(1, 0) = 4;
    m(1, 1) = 5;
    m(1, 2) = 6;
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, Multiply) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix b(2, 2);
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
    Matrix a(2, 3);
    Matrix b(2, 2);
    EXPECT_THROW(a * b, InvalidArgumentError);
}

TEST(SolveSpd, Identity) {
    Matrix s(2, 2);
    s(0, 0) = 1.0;
    s(1, 1) = 1.0;
    const auto x = solve_spd(s, {3.0, -4.0});
    EXPECT_DOUBLE_EQ(x[0], 3.0);
    EXPECT_DOUBLE_EQ(x[1], -4.0);
}

TEST(SolveSpd, KnownSystem) {
    // [[4,1],[1,3]] x = [1, 2]  ->  x = [1/11, 7/11]
    Matrix s(2, 2);
    s(0, 0) = 4;
    s(0, 1) = 1;
    s(1, 0) = 1;
    s(1, 1) = 3;
    const auto x = solve_spd(s, {1.0, 2.0});
    EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
    EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(SolveSpd, ThrowsOnIndefinite) {
    Matrix s(2, 2);
    s(0, 0) = 1;
    s(0, 1) = 2;
    s(1, 0) = 2;
    s(1, 1) = 1;  // eigenvalues 3, -1
    EXPECT_THROW(solve_spd(s, {1.0, 1.0}), NumericalError);
}

TEST(InvertSpd, InverseTimesOriginalIsIdentity) {
    Matrix s(3, 3);
    s(0, 0) = 4;
    s(0, 1) = 1;
    s(0, 2) = 0.5;
    s(1, 0) = 1;
    s(1, 1) = 3;
    s(1, 2) = 0.2;
    s(2, 0) = 0.5;
    s(2, 1) = 0.2;
    s(2, 2) = 2;
    const Matrix inv = invert_spd(s);
    const Matrix prod = s * inv;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
        }
    }
}

TEST(LeastSquares, ExactLineRecovery) {
    // y = 2 + 3x on 4 points: exact solution, zero residual.
    Matrix a(4, 2);
    std::vector<double> b(4);
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i;
        b[i] = 2.0 + 3.0 * i;
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    EXPECT_NEAR(r.coefficients[0], 2.0, 1e-10);
    EXPECT_NEAR(r.coefficients[1], 3.0, 1e-10);
    EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
    // Points (0,0), (1,1), (2,1): LS line is y = 1/6 + x/2.
    Matrix a(3, 2);
    a(0, 0) = 1;
    a(0, 1) = 0;
    a(1, 0) = 1;
    a(1, 1) = 1;
    a(2, 0) = 1;
    a(2, 1) = 2;
    const auto r = least_squares(a, {0.0, 1.0, 1.0});
    EXPECT_NEAR(r.coefficients[0], 1.0 / 6.0, 1e-10);
    EXPECT_NEAR(r.coefficients[1], 0.5, 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
    // Normal-equation property: A^T (A beta - b) == 0.
    Rng rng(7);
    Matrix a(8, 3);
    std::vector<double> b(8);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            a(i, j) = rng.uniform(-2.0, 2.0);
        }
        b[i] = rng.uniform(-5.0, 5.0);
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    for (std::size_t j = 0; j < 3; ++j) {
        double dot = 0.0;
        for (std::size_t i = 0; i < 8; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < 3; ++c) {
                pred += a(i, c) * r.coefficients[c];
            }
            dot += a(i, j) * (pred - b[i]);
        }
        EXPECT_NEAR(dot, 0.0, 1e-9);
    }
}

TEST(LeastSquares, FlagsRankDeficiency) {
    // Duplicate columns.
    Matrix a(4, 2);
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = i + 1.0;
        a(i, 1) = 2.0 * (i + 1.0);
    }
    const auto r = least_squares(a, {1.0, 2.0, 3.0, 4.0});
    EXPECT_TRUE(r.rank_deficient);
}

TEST(LeastSquares, ThrowsOnUnderdetermined) {
    Matrix a(2, 3);
    EXPECT_THROW(least_squares(a, {1.0, 2.0}), InvalidArgumentError);
}

TEST(LeastSquares, CovarianceMatchesNormalEquations) {
    Matrix a(5, 2);
    std::vector<double> b(5);
    for (int i = 0; i < 5; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i + 1.0;
        b[i] = 3.0 * (i + 1.0) + (i % 2 ? 0.1 : -0.1);
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    // (A^T A) * cov == I
    const Matrix ata = a.transposed() * a;
    const Matrix prod = ata * r.covariance_unscaled;
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
        }
    }
}

TEST(LeastSquares, NormalEquationsMatchesReferenceLoop) {
    // The stored covariance must be the inverse of exactly the classic
    // column loop nest out(i, j) = sum_k a(k, i) * a(k, j) with its exact-zero
    // skip, summed in ascending row order. Magnitudes spanning six orders
    // make any reordering of those additions change some bit. least_squares
    // inverts from the Cholesky factor of its SPD check, so the sweep covers
    // every shape the fitter produces (m in {5, 9, 30}, n in 1..4) as well.
    Rng rng(77);
    const auto random_system = [&rng](std::size_t rows, std::size_t cols) {
        Matrix a(rows, cols);
        std::vector<double> b(rows);
        for (std::size_t k = 0; k < rows; ++k) {
            for (std::size_t j = 0; j < cols; ++j) {
                a(k, j) = std::pow(10.0, rng.uniform(-3.0, 3.0)) *
                          rng.uniform(-1.0, 1.0);
            }
            b[k] = rng.uniform(-10.0, 10.0);
        }
        return std::make_pair(a, b);
    };
    const auto check = [](const Matrix& a, const std::vector<double>& b) {
        const std::size_t rows = a.rows();
        const std::size_t cols = a.cols();
        Matrix reference(cols, cols);
        for (std::size_t i = 0; i < cols; ++i) {
            for (std::size_t k = 0; k < rows; ++k) {
                const double v = a(k, i);
                if (v == 0.0) continue;
                for (std::size_t j = 0; j < cols; ++j) {
                    reference(i, j) += v * a(k, j);
                }
            }
        }
        const Matrix expected = invert_spd(reference);
        const auto r = least_squares(a, b);
        ASSERT_FALSE(r.rank_deficient);
        ASSERT_EQ(r.covariance_unscaled.rows(), cols);
        ASSERT_EQ(r.covariance_unscaled.cols(), cols);
        for (std::size_t i = 0; i < cols; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                const double got = r.covariance_unscaled(i, j);
                const double want = expected(i, j);
                EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
                    << "(" << i << ", " << j << "): " << got << " vs "
                    << want;
            }
        }
    };

    auto [a, b] = random_system(9, 4);
    a(0, 0) = 0.0;
    a(4, 2) = 0.0;
    a(7, 3) = -0.0;
    check(a, b);
    for (const std::size_t rows : {5u, 9u, 30u}) {
        for (std::size_t cols = 1; cols <= 4; ++cols) {
            SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
            const auto [sa, sb] = random_system(rows, cols);
            check(sa, sb);
        }
    }
}

// Property sweep: random well-conditioned systems are solved to high
// accuracy.
class LeastSquaresRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LeastSquaresRandomTest, RecoversPlantedCoefficients) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 10;
    const std::size_t k = 3;
    Matrix a(n, k);
    std::vector<double> truth = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                                 rng.uniform(-3, 3)};
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = rng.uniform(0.5, 4.0);
        a(i, 2) = a(i, 1) * a(i, 1) + rng.uniform(0.0, 1.0);
        for (std::size_t c = 0; c < k; ++c) {
            b[i] += a(i, c) * truth[c];
        }
    }
    const auto r = least_squares(a, b);
    ASSERT_FALSE(r.rank_deficient);
    for (std::size_t c = 0; c < k; ++c) {
        EXPECT_NEAR(r.coefficients[c], truth[c], 1e-7);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeastSquaresRandomTest,
                         ::testing::Range(1, 11));

namespace {

bool same_bits(double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Expects `work` to hold exactly the bits of the given solution.
void expect_same_solution(const LeastSquaresWork& work,
                          const std::vector<double>& coefficients,
                          double residual_norm, bool rank_deficient) {
    EXPECT_EQ(work.rank_deficient, rank_deficient);
    EXPECT_TRUE(same_bits(work.residual_norm, residual_norm))
        << work.residual_norm << " vs " << residual_norm;
    ASSERT_EQ(work.coefficients.size(), coefficients.size());
    for (std::size_t c = 0; c < coefficients.size(); ++c) {
        EXPECT_TRUE(same_bits(work.coefficients[c], coefficients[c]))
            << "coefficient " << c << ": " << work.coefficients[c] << " vs "
            << coefficients[c];
    }
}

/// Expects the workspace solve to carry exactly the bits of least_squares.
void expect_matches_least_squares(const Matrix& a,
                                  const std::vector<double>& b,
                                  const LeastSquaresWork& work) {
    const auto ref = least_squares(a, b);
    expect_same_solution(work, ref.coefficients, ref.residual_norm,
                         ref.rank_deficient);
}

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            a(i, j) = std::pow(10.0, rng.uniform(-2.0, 2.0)) *
                      rng.uniform(-1.0, 1.0);
        }
    }
    return a;
}

std::vector<double> random_rhs(Rng& rng, std::size_t rows) {
    std::vector<double> b(rows);
    for (double& x : b) {
        x = rng.uniform(-10.0, 10.0);
    }
    return b;
}

}  // namespace

TEST(LeastSquaresWork, RandomShapesThroughOneWorkspaceMatchLeastSquares) {
    // One long-lived workspace, as in the fitter's per-thread scratch: every
    // shape m x n with m in 2..30 and n in 1..4, so buffers shrink and grow
    // between solves.
    Rng rng(2024);
    LeastSquaresWork work;
    for (std::size_t m = 2; m <= 30; ++m) {
        for (std::size_t n = 1; n <= 4 && n <= m; ++n) {
            const Matrix a = random_matrix(rng, m, n);
            const std::vector<double> b = random_rhs(rng, m);
            least_squares_into(a, b, work);
            SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
            expect_matches_least_squares(a, b, work);
        }
    }
}

TEST(LeastSquaresWork, ZeroColumnIsRankDeficient) {
    Rng rng(5);
    Matrix a = random_matrix(rng, 6, 3);
    for (std::size_t i = 0; i < 6; ++i) {
        a(i, 1) = 0.0;
    }
    const std::vector<double> b = random_rhs(rng, 6);
    LeastSquaresWork work;
    least_squares_into(a, b, work);
    EXPECT_TRUE(work.rank_deficient);
    EXPECT_EQ(work.coefficients[1], 0.0);
    expect_matches_least_squares(a, b, work);
}

TEST(LeastSquaresWork, ExactlyCollinearPairIsRankDeficient) {
    Rng rng(6);
    Matrix a = random_matrix(rng, 7, 3);
    for (std::size_t i = 0; i < 7; ++i) {
        a(i, 2) = 4.0 * a(i, 1);
    }
    const std::vector<double> b = random_rhs(rng, 7);
    LeastSquaresWork work;
    least_squares_into(a, b, work);
    EXPECT_TRUE(work.rank_deficient);
    expect_matches_least_squares(a, b, work);
}

TEST(LeastSquaresWork, NearCollinearPairFailsOnlyTheSpdCheck) {
    // Columns x and x * (1 +- 1e-9), the sign alternating by row (a uniform
    // factor would make the pair exactly collinear): R's second pivot is
    // ~1e-9 of the column norm, well above the QR rank tolerance (1e-11), so
    // back substitution keeps both coefficients non-zero; the Cholesky pivot
    // of A^T A is ~1e-18 relative, below its 1e-13 tolerance, so the solve
    // is flagged.
    Matrix a(5, 2);
    std::vector<double> b(5);
    for (std::size_t i = 0; i < 5; ++i) {
        const double x = 2.0 * static_cast<double>(i + 1);
        a(i, 0) = x;
        a(i, 1) = x * (1.0 + (i % 2 == 0 ? 1e-9 : -1e-9));
        b[i] = 3.0 * x + (i % 2 == 0 ? 0.25 : -0.25);
    }
    LeastSquaresWork work;
    least_squares_into(a, b, work);
    EXPECT_TRUE(work.rank_deficient);
    EXPECT_NE(work.coefficients[0], 0.0);
    EXPECT_NE(work.coefficients[1], 0.0);
    expect_matches_least_squares(a, b, work);
    EXPECT_EQ(least_squares(a, b).covariance_unscaled.rows(), 0u);
}

TEST(LeastSquaresWork, ReuseAcrossShapesMatchesFreshWorkspace) {
    Rng rng(31);
    const Matrix small = random_matrix(rng, 4, 3);
    const std::vector<double> small_b = random_rhs(rng, 4);
    const Matrix tall = random_matrix(rng, 30, 2);
    const std::vector<double> tall_b = random_rhs(rng, 30);

    LeastSquaresWork reused;
    const auto solve_and_compare = [&](const Matrix& a,
                                       const std::vector<double>& b) {
        least_squares_into(a, b, reused);
        LeastSquaresWork fresh;
        least_squares_into(a, b, fresh);
        expect_same_solution(reused, fresh.coefficients, fresh.residual_norm,
                             fresh.rank_deficient);
        const Matrix& reused_chol = reused.factor.chol;
        const Matrix& fresh_chol = fresh.factor.chol;
        ASSERT_EQ(reused_chol.rows(), fresh_chol.rows());
        for (std::size_t i = 0; i < fresh_chol.rows(); ++i) {
            for (std::size_t j = 0; j < fresh_chol.cols(); ++j) {
                EXPECT_TRUE(same_bits(reused_chol(i, j), fresh_chol(i, j)));
            }
        }
    };
    solve_and_compare(small, small_b);
    solve_and_compare(tall, tall_b);
    solve_and_compare(small, small_b);
}

// ---------------------------------------------------------------------------
// Factor once, solve many: qr_factor + qr_solve is least_squares_into split
// at the values, so one factor must serve every right-hand side with the
// bits of a fresh solve, and the rank verdicts must be known before any.

namespace {

/// Householder least squares in the classic column-at-a-time form, b
/// transformed along with A inside the same sweep: the arithmetic that
/// qr_factor + qr_solve split apart. Returns the coefficients and leaves
/// Q^T b in `rhs`.
std::vector<double> reference_householder(const Matrix& a,
                                          const std::vector<double>& b,
                                          std::vector<double>& rhs) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    Matrix r = a;
    rhs = b;
    double col_norm_max = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            norm += r(i, k) * r(i, k);
        }
        norm = std::sqrt(norm);
        col_norm_max = std::max(col_norm_max, norm);
        if (norm == 0.0) {
            continue;
        }
        const double alpha = r(k, k) >= 0.0 ? -norm : norm;
        std::vector<double> v(m - k);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) {
            v[i - k] = r(i, k);
        }
        double vnorm2 = 0.0;
        for (const double x : v) {
            vnorm2 += x * x;
        }
        if (vnorm2 == 0.0) {
            continue;
        }
        for (std::size_t c = k; c < n; ++c) {
            double dot = 0.0;
            for (std::size_t i = k; i < m; ++i) {
                dot += v[i - k] * r(i, c);
            }
            const double f = 2.0 * dot / vnorm2;
            for (std::size_t i = k; i < m; ++i) {
                r(i, c) -= f * v[i - k];
            }
        }
        double dot = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            dot += v[i - k] * rhs[i];
        }
        const double f = 2.0 * dot / vnorm2;
        for (std::size_t i = k; i < m; ++i) {
            rhs[i] -= f * v[i - k];
        }
    }
    const double tol = 1e-11 * (col_norm_max > 0 ? col_norm_max : 1.0);
    std::vector<double> coef(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        if (std::abs(r(ii, ii)) <= tol) {
            continue;
        }
        double acc = rhs[ii];
        for (std::size_t c = ii + 1; c < n; ++c) {
            acc -= r(ii, c) * coef[c];
        }
        coef[ii] = acc / r(ii, ii);
    }
    return coef;
}

/// Expects a factor + solve of (a, b) to carry exactly the bits of a fresh
/// least_squares_into: coefficients, the residual norm of the transformed
/// tail, and the rank verdict.
void expect_matches_fresh_solve(const Matrix& a, const std::vector<double>& b,
                                const QrFactor& factor,
                                const QrSolution& solution) {
    LeastSquaresWork fresh;
    least_squares_into(a, b, fresh);
    ASSERT_FALSE(factor.pivot_dropped);
    double res2 = 0.0;
    for (std::size_t i = a.cols(); i < a.rows(); ++i) {
        res2 += solution.rhs[i] * solution.rhs[i];
    }
    expect_same_solution(fresh, solution.coefficients, std::sqrt(res2),
                         factor.rank_deficient);
}

}  // namespace

TEST(QrFactor, FactorThenSolveMatchesLeastSquaresInto) {
    // The random-shape sweep of the workspace test: one long-lived factor
    // and solution against a fresh least_squares_into per system.
    Rng rng(2024);
    QrFactor factor;
    QrSolution solution;
    for (std::size_t m = 2; m <= 30; ++m) {
        for (std::size_t n = 1; n <= 4 && n <= m; ++n) {
            const Matrix a = random_matrix(rng, m, n);
            const std::vector<double> b = random_rhs(rng, m);
            SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
            qr_factor(a, factor);
            qr_solve(factor, b, solution);
            expect_matches_fresh_solve(a, b, factor, solution);
        }
    }
}

TEST(QrFactor, ArithmeticMatchesTheColumnAtATimeReference) {
    // Pins the operation order of the split itself: the reflections
    // replayed on b must round exactly like the classic sweep that
    // transforms b alongside A. Magnitudes spanning four orders make any
    // reordering of a dot product or update change some bit.
    Rng rng(4242);
    QrFactor factor;
    QrSolution solution;
    for (std::size_t m = 2; m <= 30; ++m) {
        for (std::size_t n = 1; n <= 4 && n <= m; ++n) {
            const Matrix a = random_matrix(rng, m, n);
            const std::vector<double> b = random_rhs(rng, m);
            SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
            std::vector<double> rhs;
            const std::vector<double> coef = reference_householder(a, b, rhs);
            qr_factor(a, factor);
            qr_solve(factor, b, solution);
            ASSERT_EQ(solution.coefficients.size(), coef.size());
            for (std::size_t c = 0; c < coef.size(); ++c) {
                EXPECT_TRUE(same_bits(solution.coefficients[c], coef[c]))
                    << "coefficient " << c << ": " << solution.coefficients[c]
                    << " vs " << coef[c];
            }
            ASSERT_EQ(solution.rhs.size(), rhs.size());
            for (std::size_t i = 0; i < rhs.size(); ++i) {
                EXPECT_TRUE(same_bits(solution.rhs[i], rhs[i]))
                    << "Q^T b row " << i << ": " << solution.rhs[i] << " vs "
                    << rhs[i];
            }
        }
    }
}

TEST(QrFactor, ManyRightHandSidesThroughOneFactorMatchFreshSolves) {
    Rng rng(99);
    for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{5, 3},
                               {4, 2},
                               {9, 4},
                               {30, 2}}) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
        const Matrix a = random_matrix(rng, m, n);
        QrFactor factor;
        qr_factor(a, factor);
        QrSolution solution;
        for (int rhs = 0; rhs < 16; ++rhs) {
            const std::vector<double> b = random_rhs(rng, m);
            qr_solve(factor, b, solution);
            expect_matches_fresh_solve(a, b, factor, solution);
        }
    }
}

TEST(QrFactor, ExactlyCollinearPairIsFlaggedAtFactorTime) {
    Rng rng(6);
    Matrix a = random_matrix(rng, 7, 3);
    for (std::size_t i = 0; i < 7; ++i) {
        a(i, 2) = 4.0 * a(i, 1);
    }
    QrFactor factor;
    qr_factor(a, factor);
    EXPECT_TRUE(factor.pivot_dropped);
    EXPECT_TRUE(factor.rank_deficient);
}

TEST(QrFactor, NearCollinearPairFailsOnlyTheSpdCheckAtFactorTime) {
    // The near-collinear system of the workspace test: the QR rank test
    // passes, the Cholesky check of A^T A does not, and both verdicts are
    // known before any right-hand side is seen.
    Matrix a(5, 2);
    for (std::size_t i = 0; i < 5; ++i) {
        const double x = 2.0 * static_cast<double>(i + 1);
        a(i, 0) = x;
        a(i, 1) = x * (1.0 + (i % 2 == 0 ? 1e-9 : -1e-9));
    }
    QrFactor factor;
    qr_factor(a, factor);
    EXPECT_FALSE(factor.pivot_dropped);
    EXPECT_TRUE(factor.rank_deficient);
}

TEST(QrFactor, SolveRejectsMismatchedRightHandSide) {
    Rng rng(8);
    QrFactor factor;
    qr_factor(random_matrix(rng, 6, 2), factor);
    QrSolution solution;
    EXPECT_THROW(qr_solve(factor, random_rhs(rng, 5), solution),
                 InvalidArgumentError);
}

TEST(Matrix, AssignReshapesAndFills) {
    Matrix m(3, 4, 2.0);
    m.assign(2, 2, -1.0);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(1, 1), -1.0);
    m.assign(5, 3);
    EXPECT_EQ(m.rows(), 5u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(4, 2), 0.0);
}
