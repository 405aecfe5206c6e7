#include "nemsim/spice/engine.h"


#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "nemsim/spice/kernels.h"
#include "nemsim/util/error.h"

namespace nemsim::spice {

namespace {
// Default Newton clamps: node voltages move at most 0.5 V per iteration
// (keeps exponential device models in range); branch currents unlimited.
constexpr double kVoltageStepLimit = 0.5;
constexpr double kVoltageAbstol = 1e-9;
constexpr double kCurrentAbstol = 1e-12;
// Step size used for the symbolic transient stamping pass.  The value is
// irrelevant (only the set of touched positions matters); it merely has
// to be positive so companion models stamp their conductances.
constexpr double kSymbolicDt = 1e-9;
}  // namespace

// ---------------------------------------------------------------- Setup

UnknownId SetupContext::add_branch_current(const std::string& name) {
  UnknownInfo info;
  info.name = "i(" + name + ")";
  info.kind = UnknownKind::kBranchCurrent;
  info.max_newton_step = 0.0;
  info.abstol = kCurrentAbstol;
  info.row_abstol = kVoltageAbstol;  // branch rows are KVL equations
  return system_.allocate_unknown(std::move(info));
}

UnknownId SetupContext::add_internal(const std::string& name, double abstol,
                                     double row_abstol, double max_newton_step,
                                     double initial_guess) {
  UnknownInfo info;
  info.name = name;
  info.kind = UnknownKind::kInternal;
  info.abstol = abstol;
  info.row_abstol = row_abstol;
  info.max_newton_step = max_newton_step;
  info.initial_guess = initial_guess;
  return system_.allocate_unknown(std::move(info));
}

// --------------------------------------------------------- StampContext

StampContext::StampContext(const MnaSystem& system, const linalg::Vector& x,
                           linalg::Matrix& jacobian, linalg::Vector& residual,
                           linalg::Vector& residual_scale)
    : system_(system),
      x_(x),
      dense_jacobian_(&jacobian),
      residual_(residual),
      residual_scale_(residual_scale) {}

StampContext::StampContext(const MnaSystem& system, const linalg::Vector& x,
                           linalg::CsrMatrix* jacobian,
                           linalg::Vector& residual,
                           linalg::Vector& residual_scale)
    : system_(system),
      x_(x),
      sparse_jacobian_(jacobian),
      residual_(residual),
      residual_scale_(residual_scale) {}

void StampContext::record_pattern(
    std::vector<std::pair<std::size_t, std::size_t>>& pattern) {
  pattern_ = &pattern;
  dense_jacobian_ = nullptr;
  sparse_jacobian_ = nullptr;
}

void StampContext::configure(AnalysisMode mode, double time, double dt,
                             double gmin, double source_factor) {
  mode_ = mode;
  time_ = time;
  dt_ = dt;
  gmin_ = gmin;
  source_factor_ = source_factor;
}

double StampContext::v(NodeId node) const {
  if (node.is_ground()) return 0.0;
  return x_[system_.unknown_of(node).index];
}

double StampContext::x(UnknownId unknown) const {
  require(unknown.valid(), "StampContext::x: invalid unknown");
  return x_[unknown.index];
}

void StampContext::raw_f(UnknownId eq, double value) {
  if (!eq.valid()) return;  // ground row: dropped
  if (!want_residual_) return;
  residual_[eq.index] += value;
  residual_scale_[eq.index] += std::abs(value);
}

void StampContext::raw_J(UnknownId eq, UnknownId var, double value) {
  if (!eq.valid() || !var.valid()) return;
  if (pattern_ != nullptr) {
    pattern_->emplace_back(eq.index, var.index);
    return;
  }
  if (dense_jacobian_ != nullptr) {
    (*dense_jacobian_)(eq.index, var.index) += value;
    return;
  }
  if (sparse_jacobian_ != nullptr) {
    const std::size_t slot = sparse_jacobian_->slot(eq.index, var.index);
    if (slot == linalg::CsrMatrix::npos) {
      throw InvalidArgument(
          "Jacobian cell (" + system_.unknown_info(eq.index).name + ", " +
          system_.unknown_info(var.index).name +
          ") is outside the sparsity pattern: a device without a kernel "
          "descriptor must stamp the cells it stamped when the pattern "
          "was recorded");
    }
    sparse_jacobian_->values()[slot] += value;
    return;
  }
  // Residual-only assembly: Jacobian contributions are dropped.
}

void StampContext::add_f(NodeId eq, double current) {
  raw_f(system_.unknown_of(eq), current);
}

void StampContext::add_f(UnknownId eq, double value) { raw_f(eq, value); }

void StampContext::add_J(NodeId eq, NodeId var, double dfdx) {
  raw_J(system_.unknown_of(eq), system_.unknown_of(var), dfdx);
}

void StampContext::add_J(NodeId eq, UnknownId var, double dfdx) {
  raw_J(system_.unknown_of(eq), var, dfdx);
}

void StampContext::add_J(UnknownId eq, NodeId var, double dfdx) {
  raw_J(eq, system_.unknown_of(var), dfdx);
}

void StampContext::add_J(UnknownId eq, UnknownId var, double dfdx) {
  raw_J(eq, var, dfdx);
}

// ------------------------------------------------------------ MnaSystem

MnaSystem::MnaSystem(Circuit& circuit) : circuit_(circuit) {
  // Node voltages first: node i (1-based) -> unknown i-1.
  unknowns_.reserve(circuit.num_nodes() - 1);
  for (std::size_t n = 1; n < circuit.num_nodes(); ++n) {
    UnknownInfo info;
    info.name = "v(" + circuit.node_name(NodeId{n}) + ")";
    info.kind = UnknownKind::kNodeVoltage;
    info.max_newton_step = kVoltageStepLimit;
    info.abstol = kVoltageAbstol;
    info.row_abstol = kCurrentAbstol;  // node rows are KCL equations
    unknown_index_.emplace(info.name, unknowns_.size());
    unknowns_.push_back(std::move(info));
  }
  SetupContext setup(*this);
  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    circuit.device(i).setup(setup);
  }
  device_linear_.reserve(circuit.num_devices());
  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    const bool linear = circuit.device(i).is_linear();
    (linear ? linear_devices_ : nonlinear_devices_).push_back(i);
    device_linear_.push_back(linear ? 1 : 0);
  }
}

MnaSystem::~MnaSystem() = default;

UnknownId MnaSystem::unknown_by_name(const std::string& name) const {
  auto it = unknown_index_.find(name);
  if (it == unknown_index_.end()) {
    throw InvalidArgument("unknown signal '" + name + "'");
  }
  return UnknownId{it->second};
}

bool MnaSystem::has_unknown(const std::string& name) const {
  return unknown_index_.find(name) != unknown_index_.end();
}

UnknownId MnaSystem::allocate_unknown(UnknownInfo info) {
  unknown_index_.emplace(info.name, unknowns_.size());
  unknowns_.push_back(std::move(info));
  return UnknownId{unknowns_.size() - 1};
}

linalg::Vector MnaSystem::initial_guess() const {
  linalg::Vector x(num_unknowns(), 0.0);
  for (std::size_t i = 0; i < unknowns_.size(); ++i) {
    x[i] = unknowns_[i].initial_guess;
  }
  return x;
}

void MnaSystem::set_nodeset(NodeId node, double volts) {
  UnknownId u = unknown_of(node);
  require(u.valid(), "set_nodeset: cannot nodeset ground");
  unknowns_[u.index].initial_guess = volts;
}

void MnaSystem::clear_nodesets() {
  for (auto& u : unknowns_) {
    if (u.kind == UnknownKind::kNodeVoltage) u.initial_guess = 0.0;
  }
}

// ------------------------------------------------------------ assembly

void MnaSystem::stamp_one(StampContext& ctx, std::size_t device_index,
                          bool hot) const {
  if (hot && !device_linear_[device_index]) ++nonlinear_evals_;
  circuit_.device(device_index).stamp(ctx);
}

void MnaSystem::record_devices(StampContext& ctx) const {
  for (std::size_t i = 0; i < circuit_.num_devices(); ++i) {
    circuit_.device(i).stamp(ctx);
  }
}

// ------------------------------------------- type-bucketed kernels

namespace {

/// Groups each sharing lane's devices into candidate classes by the bits
/// of their twin_key (DESIGN.md §7k).  The members' state ids are left
/// unkeyed.
void group_twins(KernelPlan& plan, std::size_t num_devices) {
  std::vector<TwinKey> keys;
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> shared(num_devices, 0);
  plan.shares = false;
  for (KernelLane& lane : plan.lanes) {
    KernelTwins& twins = lane.twins;
    const std::size_t count = lane.devices.size();
    twins.class_of.assign(count, KernelTwins::kNone);
    std::size_t classes = 0;
    if (lane.twin_key != nullptr && lane.adopt_state != nullptr) {
      keys.resize(count);
      order.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        keys[i].clear();
        lane.twin_key(*lane.devices[i], keys[i]);
        order[i] = static_cast<std::uint32_t>(i);
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const auto wa = keys[a].words();
                  const auto wb = keys[b].words();
                  return std::lexicographical_compare(wa.begin(), wa.end(),
                                                      wb.begin(), wb.end());
                });
      // Every run of two or more equal keys is a class.
      for (std::size_t lo = 0, hi = 0; lo < count; lo = hi) {
        for (hi = lo + 1; hi < count && keys[order[hi]] == keys[order[lo]];
             ++hi) {
        }
        if (hi - lo < 2) continue;
        for (std::size_t k = lo; k < hi; ++k) {
          twins.class_of[order[k]] = static_cast<std::uint32_t>(classes);
          shared[lane.device_indices[order[k]]] = 1;
        }
        ++classes;
      }
    }
    // resize keeps the surviving ways' buffers; their pass stamps are
    // older than any pass to come, so they start out stale.
    twins.classes.resize(classes);
    twins.state_of.assign(count, KernelTwins::kNone);
    plan.shares = plan.shares || classes > 0;
  }
  plan.unshared_devices.clear();
  for (std::size_t di = 0; di < num_devices; ++di) {
    if (!shared[di]) plan.unshared_devices.push_back(di);
  }
  plan.twin_generation = KernelPlan::kNoGeneration;
}

/// The state id of twin_key `key` within class `cls`, whose states are
/// being keyed in lane order: an equal earlier key's id, else the next
/// id.  A key past kMaxStates other states gets none (its member
/// evaluates plainly).
std::uint32_t state_id(KernelTwins::Class& cls, const TwinKey& key) {
  std::vector<TwinKey>& states = cls.states;
  std::uint32_t state = 0;
  while (state < states.size() && !(states[state] == key)) ++state;
  if (state == states.size()) {
    if (states.size() >= KernelTwins::kMaxStates) return KernelTwins::kNone;
    states.push_back(key);
  }
  return state;
}

/// True when the unknowns behind role row tables `a` and `b` hold
/// bitwise-equal values in `x`, ground-tied roles reading 0 (the role
/// values of twin_probe).
bool same_role_values(const double* x, const std::size_t* a,
                      const std::size_t* b, std::size_t roles) {
  for (std::size_t k = 0; k < roles; ++k) {
    const double va = a[k] == kKernelAbsent ? 0.0 : x[a[k]];
    const double vb = b[k] == kKernelAbsent ? 0.0 : x[b[k]];
    if (std::bit_cast<std::uint64_t>(va) != std::bit_cast<std::uint64_t>(vb)) {
      return false;
    }
  }
  return true;
}

/// Keys every class member's current twin_key to a state id within its
/// class: members with bitwise-equal keys get the same id.
void key_twin_states(KernelPlan& plan) {
  for (KernelLane& lane : plan.lanes) {
    KernelTwins& twins = lane.twins;
    if (twins.classes.empty()) continue;
    for (KernelTwins::Class& cls : twins.classes) cls.states.clear();
    TwinKey& key = twins.probe;
    for (std::size_t i = 0; i < lane.devices.size(); ++i) {
      const std::uint32_t c = twins.class_of[i];
      if (c == KernelTwins::kNone) continue;
      key.clear();
      lane.twin_key(*lane.devices[i], key);
      twins.state_of[i] = state_id(twins.classes[c], key);
    }
  }
}

}  // namespace

const KernelPlan& MnaSystem::kernel_plan() const {
  if (kernel_plan_ == nullptr) build_kernel_plan();
  return *kernel_plan_;
}

void MnaSystem::build_kernel_plan() const {
  auto plan = std::make_unique<KernelPlan>();
  const KernelLayout layout(*this);
  const std::size_t n = num_unknowns();
  std::unordered_map<std::string, std::size_t> lane_of_bucket;
  for (std::size_t di = 0; di < circuit_.num_devices(); ++di) {
    const Device& device = circuit_.device(di);
    KernelDescriptor desc;
    device.kernel_descriptor(layout, desc);
    const bool linear = device_linear_[di] != 0;
    const std::size_t roles = static_cast<std::size_t>(desc.roles);
    bool usable = desc.supported && desc.batch != nullptr && desc.roles > 0 &&
                  desc.role_unknowns.size() == roles;
    if (usable) {
      for (const auto& [er, vr] : desc.j_positions) {
        if (er >= desc.roles || vr >= desc.roles) usable = false;
      }
    }
    std::size_t lane_index = 0;
    if (usable) {
      // Linearity is part of the key so a (hypothetical) bucket spanning
      // both device classes still lands in homogeneous lanes.
      const std::string key =
          std::string(desc.bucket) + (linear ? "#l" : "#n");
      auto [it, inserted] =
          lane_of_bucket.try_emplace(key, plan->lanes.size());
      if (inserted) {
        KernelLane lane;
        lane.bucket = desc.bucket;
        lane.batch = desc.batch;
        lane.twin_key = desc.twin_key;
        lane.adopt_state = desc.adopt_state;
        lane.roles = desc.roles;
        lane.linear = linear;
        plan->lanes.push_back(std::move(lane));
      }
      lane_index = it->second;
      const KernelLane& lane = plan->lanes[lane_index];
      if (lane.batch != desc.batch || lane.roles != desc.roles) {
        usable = false;  // bucket key collision across types
      }
    }
    if (!usable) {
      (linear ? plan->leftover_linear : plan->leftover_nonlinear)
          .push_back(di);
      continue;
    }
    KernelLane& lane = plan->lanes[lane_index];
    lane.devices.push_back(&device);
    lane.device_indices.push_back(di);
    const std::size_t base = lane.rows.size();
    for (std::size_t r = 0; r < roles; ++r) {
      const UnknownId u = desc.role_unknowns[r];
      lane.rows.push_back(u.valid() ? u.index : kKernelAbsent);
    }
    const std::size_t cell_base = lane.rowcol.size();
    lane.rowcol.resize(cell_base + roles * roles,
                       {kKernelAbsent, kKernelAbsent});
    lane.dense_slots.resize(cell_base + roles * roles, kKernelAbsent);
    lane.sparse_slots.resize(cell_base + roles * roles, kKernelAbsent);
    for (const auto& [er, vr] : desc.j_positions) {
      const std::size_t row = lane.rows[base + er];
      const std::size_t col = lane.rows[base + vr];
      if (row == kKernelAbsent || col == kKernelAbsent) continue;  // ground
      const std::size_t cell = cell_base + er * roles + vr;
      lane.rowcol[cell] = {row, col};
      lane.dense_slots[cell] = row * n + col;
      plan->declared_cells.emplace_back(row, col);
    }
  }
  linalg::sort_unique_cells(n, plan->declared_cells);

  // The solver's Jacobian pattern: the declared cells, the full diagonal
  // (gmin shunts stamp (i, i) on node rows, and a structurally present
  // diagonal helps the LU pivot search), and whatever the leftover
  // devices stamp in one OP and one transient recording pass at the
  // cold-start iterate.
  std::vector<std::pair<std::size_t, std::size_t>> pattern =
      plan->declared_cells;
  for (std::size_t i = 0; i < n; ++i) pattern.emplace_back(i, i);
  const linalg::Vector x0 = initial_guess();
  linalg::Vector scratch_f(n, 0.0);
  linalg::Vector scratch_scale(n, 0.0);
  StampContext ctx(*this, x0, /*jacobian=*/nullptr, scratch_f, scratch_scale);
  ctx.record_pattern(pattern);
  ctx.disable_residual();
  for (const AnalysisMode mode :
       {AnalysisMode::kDcOperatingPoint, AnalysisMode::kTransient}) {
    const double dt = mode == AnalysisMode::kTransient ? kSymbolicDt : 0.0;
    ctx.configure(mode, dt, dt, /*gmin=*/0.0, /*source_factor=*/1.0);
    for (const std::vector<std::size_t>* leftovers :
         {&plan->leftover_linear, &plan->leftover_nonlinear}) {
      for (std::size_t di : *leftovers) circuit_.device(di).stamp(ctx);
    }
  }
  plan->skeleton = linalg::CsrMatrix(n, std::move(pattern));

  // Every declared cell and diagonal is in the pattern, so each slot
  // resolves.
  for (KernelLane& lane : plan->lanes) {
    for (std::size_t cell = 0; cell < lane.rowcol.size(); ++cell) {
      const auto& [row, col] = lane.rowcol[cell];
      if (row != kKernelAbsent) {
        lane.sparse_slots[cell] = plan->skeleton.slot(row, col);
      }
    }
  }
  plan->diagonal_slots.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan->diagonal_slots[i] = plan->skeleton.slot(i, i);
  }
  group_twins(*plan, circuit_.num_devices());
  kernel_plan_ = std::move(plan);
}

void MnaSystem::regroup_twins() const {
  if (kernel_plan_ != nullptr) {
    group_twins(*kernel_plan_, circuit_.num_devices());
  }
}

void MnaSystem::key_twins_if_stale(KernelPlan& plan) const {
  const std::uint64_t generation = circuit_.param_bank().generation();
  if (!plan.shares || plan.twin_generation == generation) return;
  key_twin_states(plan);
  plan.twin_generation = generation;
  ++twin_rekeys_;
}

void MnaSystem::stamp_gmin_sparse(double gmin,
                                  linalg::CsrMatrix& jacobian) const {
  const std::vector<std::size_t>& diagonal = kernel_plan_->diagonal_slots;
  for (std::size_t i = 0; i < num_unknowns(); ++i) {
    if (unknowns_[i].kind == UnknownKind::kNodeVoltage) {
      jacobian.values()[diagonal[i]] += gmin;
    }
  }
}

void MnaSystem::stamp_devices(StampContext& ctx, DeviceSet set,
                              bool hot) const {
  if (kernel_plan_ == nullptr) build_kernel_plan();
  KernelPlan& plan = *kernel_plan_;
  key_twins_if_stale(plan);
  KernelEvalContext ectx;
  ectx.x = ctx.iterate_data();
  if (ctx.wants_residual()) {
    ectx.residual = ctx.residual_data();
    ectx.residual_scale = ctx.residual_scale_data();
  }
  bool sparse = false;
  if (linalg::Matrix* dense = ctx.dense_sink()) {
    ectx.jacobian = dense->data();
  } else if (linalg::CsrMatrix* csr = ctx.sparse_sink()) {
    sparse = true;
    ectx.jacobian = csr->values().data();
  }
  ectx.mode = ctx.mode();
  ectx.time = ctx.time();
  ectx.dt = ctx.dt();
  ectx.gmin = ctx.gmin();
  ectx.source_factor = ctx.source_factor();

  auto run_lane = [&](KernelLane& lane) {
    if (lane.devices.empty()) return;
    const std::size_t replays =
        lane.batch(lane.view(sparse ? lane.sparse_slots.data()
                                    : lane.dense_slots.data()),
                   ectx);
    if (hot && !lane.linear) {
      lane.evals += lane.devices.size();
      lane.twin_replays += replays;
      nonlinear_evals_ += static_cast<std::int64_t>(lane.devices.size());
    }
  };

  // Deterministic order: linear lanes, linear leftovers, nonlinear lanes,
  // nonlinear leftovers — each in bucket-creation / circuit order.
  if (set != DeviceSet::kNonlinear) {
    for (KernelLane& lane : plan.lanes) {
      if (lane.linear) run_lane(lane);
    }
    for (std::size_t di : plan.leftover_linear) stamp_one(ctx, di, hot);
  }
  if (set != DeviceSet::kLinear) {
    for (KernelLane& lane : plan.lanes) {
      if (!lane.linear) run_lane(lane);
    }
    for (std::size_t di : plan.leftover_nonlinear) stamp_one(ctx, di, hot);
  }
}

void MnaSystem::assemble(const linalg::Vector& x, linalg::Matrix& jacobian,
                         linalg::Vector& residual,
                         linalg::Vector& residual_scale, AnalysisMode mode,
                         double time, double dt, double gmin,
                         double source_factor) const {
  const std::size_t n = num_unknowns();
  require(x.size() == n, "assemble: iterate size mismatch");
  jacobian.reset(n, n);
  residual.assign(n, 0.0);
  residual_scale.assign(n, 0.0);

  StampContext ctx(*this, x, jacobian, residual, residual_scale);
  ctx.configure(mode, time, dt, gmin, source_factor);
  stamp_devices(ctx, DeviceSet::kAll, /*hot=*/true);

  if (gmin > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (unknowns_[i].kind == UnknownKind::kNodeVoltage) {
        jacobian(i, i) += gmin;
      }
    }
  }
  stamp_gmin_residual(x, gmin, residual);
}

void MnaSystem::assemble_residual(const linalg::Vector& x,
                                  linalg::Vector& residual,
                                  linalg::Vector& residual_scale,
                                  AnalysisMode mode, double time, double dt,
                                  double gmin, double source_factor) const {
  const std::size_t n = num_unknowns();
  require(x.size() == n, "assemble_residual: iterate size mismatch");
  residual.assign(n, 0.0);
  residual_scale.assign(n, 0.0);

  StampContext ctx(*this, x, /*jacobian=*/nullptr, residual, residual_scale);
  ctx.configure(mode, time, dt, gmin, source_factor);
  stamp_devices(ctx, DeviceSet::kAll, /*hot=*/true);
  stamp_gmin_residual(x, gmin, residual);
}

void MnaSystem::assemble_sparse_residual(const linalg::Vector& x,
                                         linalg::Vector& residual,
                                         linalg::Vector& residual_scale,
                                         AnalysisMode mode, double time,
                                         double dt, double gmin,
                                         double source_factor) const {
  const std::size_t n = num_unknowns();
  require(x.size() == n, "assemble_sparse_residual: iterate size mismatch");
  residual.assign(n, 0.0);
  residual_scale.assign(n, 0.0);

  StampContext ctx(*this, x, /*jacobian=*/nullptr, residual, residual_scale);
  ctx.configure(mode, time, dt, gmin, source_factor);
  // assemble_sparse's order with a linear baseline.
  stamp_devices(ctx, DeviceSet::kNonlinear, /*hot=*/true);
  stamp_devices(ctx, DeviceSet::kLinear, /*hot=*/false);
  stamp_gmin_residual(x, gmin, residual);
}

void MnaSystem::stamp_gmin_residual(const linalg::Vector& x, double gmin,
                                    linalg::Vector& residual) const {
  // Homotopy shunt from every node to ground; does not enter the scale
  // so convergence is still judged against physical currents.
  if (gmin <= 0.0) return;
  for (std::size_t i = 0; i < num_unknowns(); ++i) {
    if (unknowns_[i].kind == UnknownKind::kNodeVoltage) {
      residual[i] += gmin * x[i];
    }
  }
}

// ------------------------------------------------- sparse fast path

std::vector<std::pair<std::size_t, std::size_t>>
MnaSystem::structural_pattern(AnalysisMode mode) const {
  const std::size_t n = num_unknowns();
  std::vector<std::pair<std::size_t, std::size_t>> pattern;

  const linalg::Vector x0 = initial_guess();
  linalg::Vector scratch_f(n, 0.0);
  linalg::Vector scratch_scale(n, 0.0);
  StampContext ctx(*this, x0, /*jacobian=*/nullptr, scratch_f, scratch_scale);
  ctx.record_pattern(pattern);
  ctx.disable_residual();
  const double dt = mode == AnalysisMode::kTransient ? kSymbolicDt : 0.0;
  ctx.configure(mode, dt, dt, /*gmin=*/0.0, /*source_factor=*/1.0);
  record_devices(ctx);

  linalg::sort_unique_cells(n, pattern);
  return pattern;
}

linalg::CsrMatrix MnaSystem::make_sparse_jacobian() const {
  return kernel_plan().skeleton;
}

bool MnaSystem::assemble_sparse(
    const linalg::Vector& x, linalg::CsrMatrix& jacobian,
    linalg::Vector& residual, linalg::Vector& residual_scale,
    AnalysisMode mode, double time, double dt, double gmin,
    double source_factor, const std::vector<double>* linear_baseline) const {
  const std::size_t n = num_unknowns();
  require(x.size() == n, "assemble_sparse: iterate size mismatch");
  require(jacobian.size() == n &&
              jacobian.nonzeros() == kernel_plan().skeleton.nonzeros(),
          "assemble_sparse: not a skeleton of this system's pattern");
  residual.assign(n, 0.0);
  residual_scale.assign(n, 0.0);

  StampContext ctx(*this, x, &jacobian, residual, residual_scale);
  ctx.configure(mode, time, dt, gmin, source_factor);

  if (linear_baseline != nullptr) {
    require(linear_baseline->size() == jacobian.values().size(),
            "assemble_sparse: baseline/pattern mismatch");
    jacobian.values() = *linear_baseline;
    stamp_devices(ctx, DeviceSet::kNonlinear, /*hot=*/true);
    // Linear devices: residual still depends on the iterate, but their
    // Jacobian values are already in the baseline.
    StampContext rctx(*this, x, /*jacobian=*/nullptr, residual,
                      residual_scale);
    rctx.configure(mode, time, dt, gmin, source_factor);
    stamp_devices(rctx, DeviceSet::kLinear, /*hot=*/false);
  } else {
    jacobian.zero_values();
    stamp_devices(ctx, DeviceSet::kAll, /*hot=*/true);
  }

  if (gmin > 0.0) stamp_gmin_sparse(gmin, jacobian);
  stamp_gmin_residual(x, gmin, residual);
  return true;
}

bool MnaSystem::assemble_linear_jacobian(const linalg::Vector& x,
                                         linalg::CsrMatrix& jacobian,
                                         std::vector<double>& baseline,
                                         AnalysisMode mode, double time,
                                         double dt) const {
  const std::size_t n = num_unknowns();
  require(x.size() == n, "assemble_linear_jacobian: iterate size mismatch");
  require(jacobian.size() == n &&
              jacobian.nonzeros() == kernel_plan().skeleton.nonzeros(),
          "assemble_linear_jacobian: not a skeleton of this system's pattern");
  linalg::Vector scratch_f(n, 0.0);
  linalg::Vector scratch_scale(n, 0.0);

  StampContext ctx(*this, x, &jacobian, scratch_f, scratch_scale);
  ctx.disable_residual();
  ctx.configure(mode, time, dt, 0.0, 1.0);

  jacobian.zero_values();
  stamp_devices(ctx, DeviceSet::kLinear, /*hot=*/false);
  baseline = jacobian.values();
  return true;
}

// ----------------------------------------------------- step lifecycle

std::size_t MnaSystem::accept(const linalg::Vector& x, AnalysisMode mode,
                              double time, double dt) {
  Solution solution(*this, x);
  AcceptContext ctx(solution, mode, time, dt);
  KernelPlan* plan = kernel_plan_.get();
  ParamBank& bank = circuit_.param_bank();
  // The carried state ids stand for the members' current twin_keys only
  // while the generation they were keyed at holds; otherwise (or with no
  // class at all) every device commits plainly and the next assembly
  // pass re-keys.
  if (plan == nullptr || !plan->shares ||
      plan->twin_generation != bank.generation()) {
    for (std::size_t i = 0; i < circuit_.num_devices(); ++i) {
      circuit_.device(i).accept_step(ctx);
    }
    return 0;
  }
  for (std::size_t di : plan->unshared_devices) {
    circuit_.device(di).accept_step(ctx);
  }
  // Members commit in lane order.  A member whose state id and accepted
  // role values equal an earlier member's of the same class has equal
  // accept_step inputs, so it adopts that member's committed state.  Each
  // member then takes the state id its committed twin_key gets when keyed
  // in lane order, exactly the id a re-key would give: a member that
  // adopted takes its twin's.
  std::size_t adopted = 0;
  TwinKey key;
  for (KernelLane& lane : plan->lanes) {
    KernelTwins& twins = lane.twins;
    if (twins.classes.empty()) continue;
    for (KernelTwins::Class& cls : twins.classes) {
      cls.states.clear();
      cls.commits.clear();
    }
    const std::size_t r = static_cast<std::size_t>(lane.roles);
    for (std::size_t i = 0; i < lane.devices.size(); ++i) {
      const std::uint32_t c = twins.class_of[i];
      if (c == KernelTwins::kNone) continue;
      KernelTwins::Class& cls = twins.classes[c];
      Device& device = circuit_.device(lane.device_indices[i]);
      const std::uint32_t state = twins.state_of[i];
      const std::size_t* rows = lane.rows.data() + i * r;
      const KernelTwins::Commit* twin = nullptr;
      if (state != KernelTwins::kNone) {
        for (const KernelTwins::Commit& commit : cls.commits) {
          if (commit.state_before == state &&
              same_role_values(x.data(), rows,
                               lane.rows.data() + commit.member * r, r)) {
            twin = &commit;
            break;
          }
        }
      }
      if (twin != nullptr) {
        lane.adopt_state(device,
                         circuit_.device(lane.device_indices[twin->member]));
        twins.state_of[i] = twin->state;
        ++adopted;
        continue;
      }
      device.accept_step(ctx);
      key.clear();
      lane.twin_key(device, key);
      twins.state_of[i] = state_id(cls, key);
      if (state != KernelTwins::kNone &&
          cls.commits.size() < KernelTwins::kMaxStates) {
        cls.commits.push_back(
            {static_cast<std::uint32_t>(i), state, twins.state_of[i]});
      }
    }
  }
  plan->twin_generation = bank.generation();
  return adopted;
}

void MnaSystem::reset_devices() {
  for (std::size_t i = 0; i < circuit_.num_devices(); ++i) {
    circuit_.device(i).reset_state();
  }
}

void MnaSystem::notify_discontinuity() {
  for (std::size_t i = 0; i < circuit_.num_devices(); ++i) {
    circuit_.device(i).notify_discontinuity();
  }
}

std::vector<double> MnaSystem::breakpoints(double tstop) const {
  std::vector<double> points;
  for (std::size_t i = 0; i < circuit_.num_devices(); ++i) {
    circuit_.device(i).breakpoints(tstop, points);
  }
  std::sort(points.begin(), points.end());
  std::vector<double> out;
  for (double t : points) {
    if (t <= 0.0 || t > tstop) continue;
    // Relative-tolerance dedup: two sources sharing an edge produce
    // breakpoints a few ulps apart at large t, and a pair that survives
    // dedup leaves a zero-length step behind for the transient driver.
    if (!out.empty() && t - out.back() < std::max(1e-18, 1e-12 * t)) continue;
    out.push_back(t);
  }
  return out;
}

}  // namespace nemsim::spice
