// Key-completeness property of a device type's twin_key (DESIGN.md §7k):
// whenever two devices' complete evaluation inputs — role iterate values
// plus twin_key — are equal bit for bit, their recorded evaluations are
// bitwise equal.  A pair of devices is driven through random sequences of
// the public mutators, applied to both (same arguments) or to one only,
// and compared after every step at shared and permuted iterates, in DC
// and transient mode.  Every mutator call must also move the circuit's
// mutation generation (spice::ParamBank::generation), which is what
// tells the engine its twin state ids went stale.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/spice/engine.h"
#include "nemsim/spice/kernels.h"

namespace nemsim::twin_check {

/// One evaluation's complete input and its recorded writes.
struct TwinSample {
  spice::TwinKey key;
  spice::TwinRecord record;
};

/// The complete evaluation input of `device` under `sink`: the iterate
/// value of each role, in role order, then the device's twin_key.
template <spice::HasTwinKey DeviceT>
void twin_input(const DeviceT& device, const spice::KernelSink& sink,
                int roles, spice::TwinKey& key) {
  key.clear();
  for (int r = 0; r < roles; ++r) key.add(sink.xr(r));
  device.twin_key(key);
}

/// Evaluates `device` at the role iterate `x` through a RecordingSink over
/// an identity role layout (role r is row r; cell e*R+v is slot e*R+v).
template <class DeviceT, std::size_t R>
TwinSample sample_twin(const DeviceT& device, const std::array<double, R>& x,
                       spice::AnalysisMode mode, double dt) {
  std::array<std::size_t, R> rows{};
  std::array<std::size_t, R * R> slots{};
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  std::array<double, R> f{}, scale{};
  std::array<double, R * R> j{};
  spice::KernelEvalContext ctx;
  ctx.x = x.data();
  ctx.residual = f.data();
  ctx.residual_scale = scale.data();
  ctx.jacobian = j.data();
  ctx.mode = mode;
  ctx.time = dt;
  ctx.dt = dt;
  const spice::KernelSink sink(ctx, rows.data(), slots.data(),
                               static_cast<int>(R));
  TwinSample sample;
  twin_input(device, sink, static_cast<int>(R), sample.key);
  device.eval(spice::RecordingSink(sink, sample.record));
  return sample;
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <class Writes>
bool same_writes(const Writes& a, const Writes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !same_bits(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

inline bool same_record(const spice::TwinRecord& a,
                        const spice::TwinRecord& b) {
  return same_writes(a.f, b.f) && same_writes(a.j, b.j);
}

/// Drives devices `a` and `b` (R roles each, both in `system`) through
/// random mutator sequences and checks the property after every step.
template <class DeviceT, std::size_t R>
class TwinKeyProperty {
 public:
  /// A mutator; called once per device with a copy of the same generator
  /// state, so "both" applies identical arguments.
  using Op = std::function<void(DeviceT&, std::mt19937_64&)>;
  /// Draws the iterate value of one role.
  using RoleDraw = std::function<double(std::size_t, std::mt19937_64&)>;

  TwinKeyProperty(spice::MnaSystem& system, DeviceT& a, DeviceT& b,
                  std::array<spice::UnknownId, R> roles_a,
                  std::array<spice::UnknownId, R> roles_b, RoleDraw draw,
                  std::uint64_t seed)
      : system_(system),
        a_(a),
        b_(b),
        roles_a_(roles_a),
        roles_b_(roles_b),
        draw_(std::move(draw)),
        rng_(seed) {
    add_op("accept_step(dc)", [this](DeviceT& d, std::mt19937_64& rng) {
      accept(d, rng, spice::AnalysisMode::kDcOperatingPoint, 0.0);
    });
    add_op("accept_step(transient)", [this](DeviceT& d, std::mt19937_64& rng) {
      const double dt = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                            ? 1e-12
                            : 2.5e-11;
      accept(d, rng, spice::AnalysisMode::kTransient, dt);
    });
    add_op("adopt_state", [this](DeviceT& d, std::mt19937_64&) {
      d.adopt_state(&d == &a_ ? b_ : a_);
    });
    add_op("on_params_changed",
           [](DeviceT& d, std::mt19937_64&) { d.on_params_changed(); });
    // A restored snapshot, read through the bank with no notify.
    add_op("bank restore", [this](DeviceT& d, std::mt19937_64& rng) {
      spice::ParamBank& bank = system_.circuit().param_bank();
      spice::ParamBank::Snapshot snap = bank.snapshot();
      const spice::ParamSlot slot = d.vth_shift_slot();
      snap[slot.column][slot.row] =
          std::uniform_int_distribution<int>(0, 1)(rng) == 0 ? 0.0 : 0.03;
      bank.restore(snap);
    });
  }

  void add_op(std::string name, Op op) {
    ops_.emplace_back(std::move(name), std::move(op));
  }

  /// `steps` random mutations, each followed by the comparisons.
  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      auto& [name, op] = ops_[std::uniform_int_distribution<std::size_t>(
          0, ops_.size() - 1)(rng_)];
      const int target = std::uniform_int_distribution<int>(0, 3)(rng_);
      std::mt19937_64 args = rng_;
      rng_.discard(1);
      if (target != 2) {
        std::mt19937_64 copy = args;
        apply(name, op, a_, copy);
      }
      if (target != 1) apply(name, op, b_, args);
      check(name + (target == 1 ? " on a" : target == 2 ? " on b" : ""),
            step);
    }
  }

  /// Comparisons whose keys were equal (the property's cases).
  int equal_keys() const { return equal_keys_; }
  /// Comparisons with different keys and different writes.
  int distinct() const { return distinct_; }

 private:
  /// Runs one mutator on `d`; it must move the generation.
  void apply(const std::string& name, const Op& op, DeviceT& d,
             std::mt19937_64& rng) {
    const spice::ParamBank& bank = system_.circuit().param_bank();
    const std::uint64_t before = bank.generation();
    op(d, rng);
    EXPECT_NE(bank.generation(), before)
        << name << " left the mutation generation where it was";
  }

  void accept(DeviceT& d, std::mt19937_64& rng, spice::AnalysisMode mode,
              double dt) {
    linalg::Vector x(system_.num_unknowns(), 0.0);
    const auto& roles = &d == &a_ ? roles_a_ : roles_b_;
    for (std::size_t r = 0; r < R; ++r) {
      const double value = draw_(r, rng);
      if (roles[r].valid()) x[roles[r].index] = value;
    }
    const spice::Solution solution(system_, x);
    d.accept_step(spice::AcceptContext(solution, mode, dt, dt));
  }

  void compare(const std::array<double, R>& xa, const std::array<double, R>& xb,
               spice::AnalysisMode mode, double dt, const std::string& where) {
    const TwinSample sa = sample_twin(a_, xa, mode, dt);
    const TwinSample sb = sample_twin(b_, xb, mode, dt);
    if (sa.key == sb.key) {
      ++equal_keys_;
      EXPECT_TRUE(same_record(sa.record, sb.record))
          << where << ": equal twin keys, different evaluations";
    } else if (!same_record(sa.record, sb.record)) {
      ++distinct_;
    }
  }

  void check(const std::string& op, int step) {
    std::array<double, R> x{};
    for (std::size_t r = 0; r < R; ++r) x[r] = draw_(r, rng_);
    std::array<double, R> permuted = x;
    std::swap(permuted[0], permuted[1]);
    const std::string where = "step " + std::to_string(step) + " (" + op + ")";
    compare(x, x, spice::AnalysisMode::kDcOperatingPoint, 0.0, where + " dc");
    for (double dt : {1e-12, 2.5e-11}) {
      compare(x, x, spice::AnalysisMode::kTransient, dt,
              where + " transient");
    }
    compare(x, permuted, spice::AnalysisMode::kTransient, 1e-12,
            where + " permuted");
  }

  spice::MnaSystem& system_;
  DeviceT& a_;
  DeviceT& b_;
  std::array<spice::UnknownId, R> roles_a_, roles_b_;
  RoleDraw draw_;
  std::mt19937_64 rng_;
  std::vector<std::pair<std::string, Op>> ops_;
  int equal_keys_ = 0;
  int distinct_ = 0;
};

}  // namespace nemsim::twin_check
