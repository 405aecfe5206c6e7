// Dense vector and matrix types for the MNA engine.
//
// Newton solves run on the sparse LU (sparse_lu.h); the dense row-major
// matrix and its partial-pivot LU are the reference that path is tested
// against.  Bounds are checked in debug via assert and on the public at()
// accessors unconditionally.
#pragma once

#include <cassert>
#include <cstddef>
#include <iosfwd>
#include <vector>

namespace nemsim::linalg {

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  double operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }
  /// Bounds-checked access (throws InvalidArgument).
  double& at(std::size_t i);
  double at(std::size_t i) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  void assign(std::size_t n, double fill) { data_.assign(n, fill); }
  void fill(double value);

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scale);

  /// Maximum absolute entry; 0 for the empty vector.
  double inf_norm() const;
  /// Euclidean norm.
  double two_norm() const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(double s, Vector v);
double dot(const Vector& a, const Vector& b);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  /// Bounds-checked access (throws InvalidArgument).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw row-major storage: entry (r, c) lives at data()[r * cols() + c].
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill(double value);
  /// Resets to rows x cols, all zero (reuses storage when shape matches).
  void reset(std::size_t rows, std::size_t cols);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scale);

  /// y = A * x; shapes must agree.
  Vector multiply(const Vector& x) const;
  Matrix multiply(const Matrix& other) const;
  Matrix transposed() const;

  /// Maximum absolute row sum (induced infinity norm).
  double inf_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);

std::ostream& operator<<(std::ostream& os, const Vector& v);
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace nemsim::linalg
