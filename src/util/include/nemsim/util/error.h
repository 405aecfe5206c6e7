// Exception hierarchy for nemsim.
//
// All recoverable failures in the simulator are reported via exceptions
// derived from `nemsim::Error`, so callers can distinguish numerical
// failures (convergence, singular systems) from usage errors (bad netlist,
// bad arguments) with a single catch site.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace nemsim {

/// Base class of all nemsim exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A function was called with arguments that violate its preconditions.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A netlist is structurally invalid (unknown node, duplicate name, ...).
class NetlistError : public Error {
 public:
  explicit NetlistError(const std::string& what) : Error(what) {}
};

/// A linear system could not be factored (matrix numerically singular).
class SingularMatrixError : public Error {
 public:
  explicit SingularMatrixError(const std::string& what) : Error(what) {}
};

/// Structured description of a convergence failure: where the solve was
/// (time/dt), how hard it tried (iterations), how far it was from
/// converging (weighted norms) and which equations were worst.  Row names
/// use the simulator's unknown display names ("v(out)", "i(Vdd)",
/// "X1.x"), so the payload points directly at the offending device/node.
struct ConvergenceDiagnostics {
  /// Strategy or analysis phase that failed ("plain", "gmin", "source",
  /// "transient-step", ...).
  std::string strategy;
  double time = 0.0;           ///< analysis time at failure (0 for DC)
  double dt = 0.0;             ///< step size at failure (0 for DC)
  int iterations = 0;          ///< Newton iterations spent in the failing solve
  double residual_norm = 0.0;  ///< weighted residual norm at exit (<=1 converged)
  double update_norm = 0.0;    ///< weighted update norm at exit (<=1 converged)

  struct Row {
    std::string name;       ///< unknown/equation display name
    double residual = 0.0;  ///< raw residual value of the row
    double weighted = 0.0;  ///< residual / per-row tolerance (>1 violates)
  };
  /// Worst weighted-residual rows, most-violating first (top-k).
  std::vector<Row> worst_rows;

  /// Human-readable multi-line rendering of the payload.
  std::string describe() const {
    std::string out = "strategy=" + strategy +
                      " time=" + std::to_string(time) +
                      " dt=" + std::to_string(dt) +
                      " iterations=" + std::to_string(iterations) +
                      " residual_norm=" + std::to_string(residual_norm) +
                      " update_norm=" + std::to_string(update_norm);
    for (const Row& row : worst_rows) {
      out += "\n  worst row: " + row.name +
             " residual=" + std::to_string(row.residual) +
             " weighted=" + std::to_string(row.weighted);
    }
    return out;
  }
};

/// Newton iteration (or one of its homotopy fallbacks) failed to converge.
///
/// Optionally carries a ConvergenceDiagnostics payload naming the worst
/// residual rows and the failure point; the payload is shared_ptr-held so
/// the exception stays cheaply copyable (as exceptions must be).
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
  ConvergenceError(const std::string& what, ConvergenceDiagnostics diag)
      : Error(what),
        diag_(std::make_shared<const ConvergenceDiagnostics>(
            std::move(diag))) {}

  bool has_diagnostics() const { return diag_ != nullptr; }
  /// Structured payload, or nullptr when the thrower attached none.
  const ConvergenceDiagnostics* diagnostics() const { return diag_.get(); }

 private:
  std::shared_ptr<const ConvergenceDiagnostics> diag_;
};

/// A requested signal/measurement does not exist or is ill-posed.
class MeasurementError : public Error {
 public:
  explicit MeasurementError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `msg` when `cond` is false.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

/// Same, for a literal message: builds the std::string only on failure,
/// so a passing check on a hot path allocates nothing.
inline void require(bool cond, const char* msg) {
  if (!cond) throw InvalidArgument(msg);
}

}  // namespace nemsim
