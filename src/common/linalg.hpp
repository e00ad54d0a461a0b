#pragma once

#include <cstddef>
#include <vector>

namespace extradeep::linalg {

/// Minimal dense row-major matrix used by the PMNF fitting code. Sizes are
/// tiny (design matrices of ~5-30 rows, 2-5 columns), so the implementation
/// favours clarity over blocking/vectorisation.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    double& operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /// Reshapes to rows x cols with every cell set to `fill`, reusing the
    /// existing storage when it is large enough, so a scratch matrix cycled
    /// through the same few shapes stops allocating after the first use.
    void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Row pointers into the row-major storage, for contiguous row loops.
    double* row(std::size_t r) { return data_.data() + r * cols_; }
    const double* row(std::size_t r) const { return data_.data() + r * cols_; }

    Matrix transposed() const;
    Matrix operator*(const Matrix& rhs) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Result of an ordinary-least-squares solve.
struct LeastSquaresResult {
    std::vector<double> coefficients;  ///< beta minimising ||A beta - b||_2
    double residual_norm = 0.0;        ///< ||A beta - b||_2 at the solution
    /// Unscaled parameter covariance (A^T A)^{-1}; multiply by the residual
    /// variance s^2 to obtain Var(beta). Row-major, cols x cols.
    Matrix covariance_unscaled;
    bool rank_deficient = false;  ///< true if A was (numerically) rank deficient
};

/// The values-independent half of a least-squares solve of A x ~= b: the
/// Householder QR of A, its rank verdict and the SPD check of A^T A. None of
/// it reads b, so one factor serves any number of right-hand sides through
/// qr_solve. Every buffer is resized and overwritten before it is read, so
/// one factor object can be refactored through any sequence of shapes; after
/// the largest shape has been seen once, qr_factor allocates nothing.
struct QrFactor {
    Matrix r;  ///< working copy of A, reduced to R by QR
    /// Row k: the Householder vector of column k (its first m - k entries).
    Matrix v;
    /// v_k^T v_k per column; 0 where column k was not reflected.
    std::vector<double> vnorm2;
    std::vector<double> dots;  ///< v^T R(:, c) over the trailing columns
    Matrix normal;             ///< A^T A, assembled for the SPD check
    /// Cholesky factor L of A^T A = L L^T; valid only when !rank_deficient.
    Matrix chol;
    double rank_tol = 0.0;  ///< pivots with |R(k, k)| <= rank_tol are dropped
    bool pivot_dropped = false;   ///< the QR rank test failed
    bool rank_deficient = false;  ///< the QR rank test or the SPD check failed
};

/// The per-right-hand-side half of a least-squares solve.
struct QrSolution {
    /// b transformed to Q^T b; its entries past the column count are the
    /// residual's components unless the factor dropped a pivot.
    std::vector<double> rhs;
    std::vector<double> coefficients;  ///< beta minimising ||A beta - b||_2
};

/// Caller-owned, reusable buffers of least_squares_into: one factor, one
/// solution, and the solve's residual and rank verdict.
struct LeastSquaresWork : QrSolution {
    QrFactor factor;
    double residual_norm = 0.0;   ///< ||A beta - b||_2 at the solution
    bool rank_deficient = false;  ///< copied from the factor
};

/// Householder QR of A (rows >= cols) with column norm checks, into `f`. A
/// column whose pivot falls below the rank tolerance sets `pivot_dropped`
/// (qr_solve then zeroes its coefficient) rather than throwing, because the
/// PMNF search legitimately generates collinear hypotheses that should
/// simply score badly. A system that passes the QR rank test is additionally
/// flagged when A^T A fails the Cholesky SPD check (a far stricter
/// tolerance), leaving `f.chol` as that factor otherwise.
void qr_factor(const Matrix& a, QrFactor& f);

/// Solves A x ~= b for the A that `f` factors: replays the Householder
/// reflections on b in the order qr_factor computed them, then back
/// substitution. The residual is left in the tail of `out.rhs`, unsummed:
/// the hypothesis search never reads it.
void qr_solve(const QrFactor& f, const std::vector<double>& b,
              QrSolution& out);

/// Least squares of A x ~= b into `work`: qr_factor + qr_solve, then the
/// residual norm from the transformed tail of b, or recomputed from A
/// directly when a pivot was dropped. A system that fails either rank check
/// has `rank_deficient` set.
void least_squares_into(const Matrix& a, const std::vector<double>& b,
                        LeastSquaresWork& work);

/// least_squares_into on a fresh workspace, plus the unscaled covariance
/// (A^T A)^{-1} from the Cholesky factor the SPD check computed (left empty
/// when rank deficient).
LeastSquaresResult least_squares(const Matrix& a, const std::vector<double>& b);

/// Solves the square symmetric positive definite system S x = b via Cholesky.
/// Throws NumericalError if S is not SPD.
std::vector<double> solve_spd(const Matrix& s, const std::vector<double>& b);

/// Inverse of a small SPD matrix via Cholesky. Throws NumericalError if the
/// matrix is not SPD.
Matrix invert_spd(const Matrix& s);

}  // namespace extradeep::linalg
