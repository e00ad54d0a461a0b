#include "common/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace extradeep::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
    if (cols_ != rhs.rows_) {
        throw InvalidArgumentError("Matrix multiply: dimension mismatch");
    }
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double v = (*this)(r, k);
            if (v == 0.0) continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c) {
                out(r, c) += v * rhs(k, c);
            }
        }
    }
    return out;
}

namespace {

/// y[i] += a * x[i] for i in [0, n): the contiguous row update of the
/// Householder sweep and of the normal-equation assembly.
void axpy(double* y, double a, const double* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        y[i] += a * x[i];
    }
}

/// A^T A for the m x n matrix `a` into `out`, accumulated as row outer
/// products in row order. Rows whose i-th entry is exactly 0.0 contribute
/// nothing to out(i, *), so each element sees the same addition sequence as
/// the classic out(i, j) = sum_r a(r, i) * a(r, j) column loop with that
/// zero-skip, while the inner traversal stays a contiguous axpy over the row.
void normal_equations(const Matrix& a, Matrix& out) {
    const std::size_t cols = a.cols();
    out.assign(cols, cols);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const double* row = a.row(r);
        for (std::size_t i = 0; i < cols; ++i) {
            const double v = row[i];
            if (v == 0.0) {
                continue;
            }
            axpy(out.row(i), v, row, cols);
        }
    }
}

// Cholesky factor L with S = L L^T, into `l`. Returns false if not SPD
// (within a relative tolerance on the diagonal).
bool cholesky(const Matrix& s, Matrix& l) {
    const std::size_t n = s.rows();
    if (s.cols() != n) return false;
    l.assign(n, n);
    double max_diag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        max_diag = std::max(max_diag, std::abs(s(i, i)));
    }
    const double tol = 1e-13 * (max_diag > 0 ? max_diag : 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = s(i, j);
            for (std::size_t k = 0; k < j; ++k) {
                acc -= l(i, k) * l(j, k);
            }
            if (i == j) {
                if (acc <= tol) return false;
                l(i, i) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return true;
}

/// Solves L L^T x = b in place (x holds b on entry). Forward substitution
/// overwrites b[i] with y[i] only after reading it, and back substitution
/// does the same with y, so the arithmetic is that of separate y and x
/// vectors.
void cholesky_solve(const Matrix& l, std::vector<double>& x) {
    const std::size_t n = l.rows();
    for (std::size_t i = 0; i < n; ++i) {
        double acc = x[i];
        for (std::size_t k = 0; k < i; ++k) {
            acc -= l(i, k) * x[k];
        }
        x[i] = acc / l(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = x[ii];
        for (std::size_t k = ii + 1; k < n; ++k) {
            acc -= l(k, ii) * x[k];
        }
        x[ii] = acc / l(ii, ii);
    }
}

/// (L L^T)^{-1}, column by column.
Matrix cholesky_inverse(const Matrix& l) {
    const std::size_t n = l.rows();
    Matrix inv(n, n);
    std::vector<double> col(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        col.assign(n, 0.0);
        col[c] = 1.0;
        cholesky_solve(l, col);
        for (std::size_t r = 0; r < n; ++r) {
            inv(r, c) = col[r];
        }
    }
    return inv;
}

}  // namespace

std::vector<double> solve_spd(const Matrix& s, const std::vector<double>& b) {
    if (s.rows() != s.cols() || s.rows() != b.size()) {
        throw InvalidArgumentError("solve_spd: dimension mismatch");
    }
    Matrix l;
    if (!cholesky(s, l)) {
        throw NumericalError("solve_spd: matrix is not positive definite");
    }
    std::vector<double> x = b;
    cholesky_solve(l, x);
    return x;
}

Matrix invert_spd(const Matrix& s) {
    if (s.cols() != s.rows()) {
        throw InvalidArgumentError("invert_spd: matrix not square");
    }
    Matrix l;
    if (!cholesky(s, l)) {
        throw NumericalError("invert_spd: matrix is not positive definite");
    }
    return cholesky_inverse(l);
}

void qr_factor(const Matrix& a, QrFactor& f) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) {
        throw InvalidArgumentError("least_squares: fewer rows than columns");
    }

    // Householder QR, overwriting a working copy of A. Copy-assignment
    // reuses the factor's storage once it is large enough.
    f.r = a;
    f.v.assign(n, m);
    f.vnorm2.assign(n, 0.0);
    Matrix& r = f.r;
    std::vector<double>& dots = f.dots;
    double col_norm_max = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        // Column norm below the pivot.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            norm += r(i, k) * r(i, k);
        }
        norm = std::sqrt(norm);
        col_norm_max = std::max(col_norm_max, norm);
        if (norm == 0.0) {
            continue;  // handled as rank deficiency in back substitution
        }
        const double alpha = r(k, k) >= 0.0 ? -norm : norm;
        // Householder vector v = x - alpha*e1.
        double* v = f.v.row(k);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) {
            v[i - k] = r(i, k);
        }
        double vnorm2 = 0.0;
        for (std::size_t i = 0; i < m - k; ++i) vnorm2 += v[i] * v[i];
        if (vnorm2 == 0.0) {
            continue;
        }
        f.vnorm2[k] = vnorm2;
        // Apply H = I - 2 v v^T / (v^T v) to the trailing block.
        // Loop-interchanged so the inner traversal runs along contiguous row
        // segments (axpy): dots[c - k] accumulates v^T R(:, c) in the
        // same ascending-i order as a per-column loop, so the result is
        // bit-identical to the column-at-a-time formulation.
        dots.assign(n - k, 0.0);
        for (std::size_t i = k; i < m; ++i) {
            axpy(dots.data(), v[i - k], r.row(i) + k, n - k);
        }
        for (std::size_t j = 0; j < n - k; ++j) {
            dots[j] = 2.0 * dots[j] / vnorm2;
        }
        for (std::size_t i = k; i < m; ++i) {
            axpy(r.row(i) + k, -v[i - k], dots.data(), n - k);
        }
    }

    f.rank_tol = 1e-11 * (col_norm_max > 0 ? col_norm_max : 1.0);
    f.pivot_dropped = false;
    for (std::size_t k = 0; k < n; ++k) {
        if (std::abs(r(k, k)) <= f.rank_tol) {
            f.pivot_dropped = true;
        }
    }
    f.rank_deficient = f.pivot_dropped;

    // SPD check on the normal equations: its 1e-13 Cholesky tolerance is far
    // stricter than the QR rank test above, and a hypothesis that fails it
    // is rejected like a rank-deficient one. Skipped when already flagged
    // (the hypothesis will be rejected by the model selector anyway).
    if (!f.rank_deficient) {
        normal_equations(a, f.normal);
        f.rank_deficient = !cholesky(f.normal, f.chol);
    }
}

void qr_solve(const QrFactor& f, const std::vector<double>& b,
              QrSolution& out) {
    const Matrix& r = f.r;
    const std::size_t m = r.rows();
    const std::size_t n = r.cols();
    if (b.size() != m) {
        throw InvalidArgumentError("least_squares: rhs size mismatch");
    }
    // Q^T b: the reflections of qr_factor, in its order, with the same
    // dot-then-update arithmetic it would have applied to a column.
    std::vector<double>& rhs = out.rhs;
    rhs = b;
    for (std::size_t k = 0; k < n; ++k) {
        const double vnorm2 = f.vnorm2[k];
        if (vnorm2 == 0.0) {
            continue;
        }
        const double* v = f.v.row(k);
        double dot = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            dot += v[i - k] * rhs[i];
        }
        const double scale = 2.0 * dot / vnorm2;
        for (std::size_t i = k; i < m; ++i) {
            rhs[i] -= scale * v[i - k];
        }
    }

    // Back substitution on the upper-triangular R; dropped pivots get a
    // zero coefficient.
    std::vector<double>& coef = out.coefficients;
    coef.assign(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        if (std::abs(r(ii, ii)) <= f.rank_tol) {
            coef[ii] = 0.0;
            continue;
        }
        double acc = rhs[ii];
        for (std::size_t c = ii + 1; c < n; ++c) {
            acc -= r(ii, c) * coef[c];
        }
        coef[ii] = acc / r(ii, ii);
    }
}

void least_squares_into(const Matrix& a, const std::vector<double>& b,
                        LeastSquaresWork& work) {
    qr_factor(a, work.factor);
    qr_solve(work.factor, b, work);
    work.rank_deficient = work.factor.rank_deficient;
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    double res2 = 0.0;
    if (!work.factor.pivot_dropped) {
        for (std::size_t i = n; i < m; ++i) {
            res2 += work.rhs[i] * work.rhs[i];
        }
    } else {
        // With a dropped pivot the rows above n also carry residual;
        // recompute it directly from A.
        for (std::size_t i = 0; i < m; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
                pred += a(i, c) * work.coefficients[c];
            }
            const double d = pred - b[i];
            res2 += d * d;
        }
    }
    work.residual_norm = std::sqrt(res2);
}

LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b) {
    LeastSquaresWork work;
    least_squares_into(a, b, work);
    LeastSquaresResult out;
    out.coefficients = std::move(work.coefficients);
    out.residual_norm = work.residual_norm;
    out.rank_deficient = work.rank_deficient;
    if (!out.rank_deficient) {
        out.covariance_unscaled = cholesky_inverse(work.factor.chol);
    }
    return out;
}

}  // namespace extradeep::linalg
