// Layer probes: each layer's public entry points timed one at a time, in
// a loop, at a converged state of a workload circuit.  Combined with the
// RunReport counts of the traced pass they estimate each layer's share
// of the run (see main.cpp).
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "nemsim/devices/mosfet.h"
#include "nemsim/devices/nemfet.h"
#include "nemsim/linalg/lu.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/linalg/sparse_lu.h"
#include "nemsim/spice/newton.h"

namespace perfbench {

using nemsim::spice::AnalysisMode;

namespace {

/// Shortest timed batch.  Long enough to average out timer resolution,
/// short enough that probing every target of a workload costs about a
/// second.
constexpr double kProbeBudget = 0.02;

/// Mean seconds per call of `fn`, growing the batch until one timed
/// batch lasts at least kProbeBudget.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  fn();  // warm caches and lazy state
  for (std::size_t batch = 1;; batch *= 4) {
    const double t0 = wall_seconds();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double elapsed = wall_seconds() - t0;
    if (elapsed >= kProbeBudget) return elapsed / static_cast<double>(batch);
  }
}

const char* device_class(const nemsim::spice::Device& device) {
  if (dynamic_cast<const nemsim::devices::Nemfet*>(&device)) return "nemfet";
  if (dynamic_cast<const nemsim::devices::Mosfet*>(&device)) return "mosfet";
  return device.is_linear() ? "linear" : "other";
}

}  // namespace

double ProbeCosts::stamps_per_assembly(AnalysisMode mode) const {
  double total = 0.0;
  for (const auto& [name, stamp] : stamps) {
    const double per_call =
        mode == AnalysisMode::kDcOperatingPoint ? stamp.dc : stamp.tran;
    total += static_cast<double>(stamp.devices) * per_call;
  }
  return total;
}

ProbeCosts probe(const ProbeTarget& target) {
  using namespace nemsim;
  spice::MnaSystem& system = *target.system;
  const linalg::Vector& x = target.x;
  const AnalysisMode mode = target.mode;
  const bool dc = mode == AnalysisMode::kDcOperatingPoint;
  const double time = dc ? 0.0 : target.time;
  const double dt = dc ? 0.0 : target.dt;
  // The solver's own residual shunt, so probes assemble what it does.
  const double gmin = spice::NewtonOptions{}.gmin_final;

  ProbeCosts costs;
  costs.sparse =
      spice::NewtonSolver(system, spice::NewtonOptions{}).uses_sparse();

  linalg::Vector f;
  linalg::Vector scale;
  linalg::Matrix dense;
  const double dense_assemble = seconds_per_call([&] {
    system.assemble(x, dense, f, scale, mode, time, dt, gmin, 1.0);
  });
  costs.dense_lu = seconds_per_call([&] {
    const linalg::LuDecomposition lu(dense);
    const linalg::Vector dx = lu.solve(f);
    (void)dx;
  });

  // Sparse path as the Newton loop runs it: linear devices' Jacobian from
  // a per-solve baseline, nonlinear devices re-stamped.
  linalg::CsrMatrix csr;
  std::vector<double> baseline;
  for (;;) {
    csr = system.make_sparse_jacobian();
    if (system.assemble_linear_jacobian(x, csr, baseline, mode, time, dt) &&
        system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin, 1.0,
                               &baseline)) {
      break;
    }
  }
  const double sparse_assemble = seconds_per_call([&] {
    system.assemble_sparse(x, csr, f, scale, mode, time, dt, gmin, 1.0,
                           &baseline);
  });
  linalg::SparseLuFactorization lu;
  costs.factor = seconds_per_call([&] { lu.factor(csr); });
  costs.refactor = seconds_per_call([&] { (void)lu.refactor(csr); });
  costs.solve = seconds_per_call([&] {
    linalg::Vector r = f;
    lu.solve_in_place(r);
  });
  costs.fill_nnz = lu.fill_nonzeros();
  costs.assemble = costs.sparse ? sparse_assemble : dense_assemble;
  costs.assemble_residual = seconds_per_call([&] {
    system.assemble_residual(x, f, scale, mode, time, dt, gmin, 1.0);
  });

  // Device::stamp per device class into a dense scratch sink, so the cost
  // is the device model and not the CSR slot search of the engine.
  std::map<std::string, std::vector<const spice::Device*>> classes;
  const spice::Circuit& circuit = system.circuit();
  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    classes[device_class(circuit.device(i))].push_back(&circuit.device(i));
  }
  const std::size_t n = system.num_unknowns();
  linalg::Matrix scratch(n, n);
  linalg::Vector scratch_f(n);
  linalg::Vector scratch_scale(n);
  spice::StampContext ctx(system, x, scratch, scratch_f, scratch_scale);
  for (const auto& [name, devices] : classes) {
    auto per_call = [&, &devices = devices](AnalysisMode stamp_mode) {
      const bool stamp_dc = stamp_mode == AnalysisMode::kDcOperatingPoint;
      ctx.configure(stamp_mode, stamp_dc ? 0.0 : target.time,
                    stamp_dc ? 0.0 : target.dt, gmin, 1.0);
      return seconds_per_call([&] {
               for (const spice::Device* d : devices) d->stamp(ctx);
             }) /
             static_cast<double>(devices.size());
    };
    ProbeCosts::Stamp& stamp = costs.stamps[name];
    stamp.devices = devices.size();
    stamp.dc = per_call(AnalysisMode::kDcOperatingPoint);
    stamp.tran = per_call(AnalysisMode::kTransient);
  }
  return costs;
}

}  // namespace perfbench
