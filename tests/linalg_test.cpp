// Unit tests for the dense/sparse linear algebra kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "nemsim/linalg/lu.h"
#include "nemsim/linalg/matrix.h"
#include "nemsim/linalg/polyfit.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/linalg/sparse_lu.h"
#include "nemsim/util/error.h"

namespace nemsim::linalg {
namespace {

// ---------------------------------------------------------------- Vector

TEST(Vector, ArithmeticAndNorms) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{1.0, 1.0, 1.0};
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], -1.0);
  EXPECT_DOUBLE_EQ(a.inf_norm(), 3.0);
  EXPECT_NEAR(a.two_norm(), std::sqrt(14.0), 1e-12);
  EXPECT_DOUBLE_EQ(dot(a, b), 2.0);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a(3), b(2);
  EXPECT_THROW(a += b, InvalidArgument);
  EXPECT_THROW(dot(a, b), InvalidArgument);
}

TEST(Vector, BoundsCheckedAt) {
  Vector a(2);
  EXPECT_THROW(a.at(5), InvalidArgument);
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, MultiplyVector) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Vector x{1.0, 1.0};
  Vector y = m * x;
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MultiplyMatrixAgainstIdentity) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Matrix i = Matrix::identity(2);
  Matrix p = m * i;
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

TEST(Matrix, TransposedSwapsIndices) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, InfNormIsMaxRowSum) {
  Matrix m{{1.0, -2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.inf_norm(), 7.0);
}

// -------------------------------------------------------------------- LU

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{3.0, 5.0};
  Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  Vector b{2.0, 3.0};
  Vector x = solve(a, b);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition lu(a), SingularMatrixError);
}

TEST(Lu, DeterminantWithPermutationSign) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  LuDecomposition lu(a);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(Lu, BadlyRowScaledSystemStillAccurate) {
  // Rows differing by 12 orders of magnitude (amperes vs newtons in the
  // electromechanical MNA); equilibration must keep the solve accurate.
  Matrix a{{1e-12, 2e-12}, {3.0, -1.0}};
  Vector b{3e-12, 2.0};
  Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(Lu, RandomRoundTrip) {
  const std::size_t n = 20;
  Matrix a(n, n);
  unsigned state = 12345;
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state % 2000) / 1000.0 - 1.0;
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = next();
    a(r, r) += 5.0;  // diagonally dominant => well conditioned
  }
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = next();
  Vector b = a * x_true;
  Vector x = solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Lu, RcondEstimatePositive) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  LuDecomposition lu(a);
  EXPECT_GT(lu.rcond_estimate(), 0.0);
  EXPECT_LE(lu.rcond_estimate(), 1.0);
}

// --------------------------------------------------------------- polyfit

TEST(Polyfit, ExactQuadraticRecovery) {
  std::vector<double> xs, ys;
  for (int i = 0; i <= 10; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(2.0 - 3.0 * x + 0.5 * x * x);
  }
  Polynomial p = polyfit(xs, ys, 2);
  EXPECT_NEAR(p.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(p.coefficients()[1], -3.0, 1e-9);
  EXPECT_NEAR(p.coefficients()[2], 0.5, 1e-9);
  EXPECT_NEAR(fit_rms_error(p, xs, ys), 0.0, 1e-9);
}

TEST(Polyfit, DerivativeEvaluation) {
  Polynomial p({1.0, 2.0, 3.0});  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(p(2.0), 17.0);
  EXPECT_DOUBLE_EQ(p.derivative_at(2.0), 14.0);
  Polynomial d = p.derivative();
  EXPECT_DOUBLE_EQ(d(2.0), 14.0);
}

TEST(Polyfit, UnderdeterminedThrows) {
  std::vector<double> xs = {1.0, 2.0};
  std::vector<double> ys = {1.0, 2.0};
  EXPECT_THROW(polyfit(xs, ys, 2), InvalidArgument);
}

// ------------------------------------------------------------- sparse LU

TEST(SparseLu, RequiresPivoting) {
  // Zero diagonal: the elimination must pick the off-diagonal pivots.
  CsrMatrix a(2, {{0, 1}, {1, 0}});
  a.values()[a.slot(0, 1)] = 2.0;
  a.values()[a.slot(1, 0)] = 3.0;
  SparseLuFactorization lu;
  lu.factor(a);
  const Vector x = lu.solve(Vector{4.0, 6.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, LargeLadderNetwork) {
  // Tridiagonal (resistor ladder) system: genuinely sparse.  Verify
  // against -x[i-1] + 2 x[i] - x[i+1] = 1 (discrete Poisson with f = 1).
  const std::size_t n = 200;
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(i, i);
    if (i > 0) entries.emplace_back(i, i - 1);
    if (i + 1 < n) entries.emplace_back(i, i + 1);
  }
  CsrMatrix a(n, std::move(entries));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = a.row_start()[i]; s < a.row_start()[i + 1]; ++s) {
      a.values()[s] = a.col_index()[s] == i ? 2.0 : -1.0;
    }
  }
  SparseLuFactorization lu;
  lu.factor(a);
  const Vector b(n, 1.0);
  const Vector x = lu.solve(b);
  // Residual check.
  Vector r = a.multiply(x);
  r -= b;
  EXPECT_LT(r.inf_norm(), 1e-10);
  // Parabolic profile: maximum at the center.
  EXPECT_GT(x[n / 2], x[5]);
}

}  // namespace
}  // namespace nemsim::linalg
