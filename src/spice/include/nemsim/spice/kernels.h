// Type-bucketed SoA evaluation kernels with frozen scatter maps: the
// engine's assembly path.
//
// Every in-tree device writes its residual and Jacobian once, as a
// role-indexed `template <class Sink> void eval(const Sink&) const`.  A
// *role* is the device type's fixed terminal/unknown index (e.g. MOSFET:
// 0 = d, 1 = g, 2 = s).  Two sinks instantiate it:
//  - KernelSink (the lanes): on the first assembly the engine buckets
//    devices by concrete type into lanes — contiguous arrays of unknown
//    indices plus a per-device scatter map of direct value-array offsets
//    (CSR nzval slots, or dense row-major offsets) — and each bucket's
//    batch function evaluates the whole lane in a tight loop, writing
//    f/J straight into the sink storage.  No virtual call per device, no
//    NodeId-to-unknown hashing, no slot search per entry.
//  - StampSink (one device over a StampContext): what the in-tree
//    Device::stamp overrides run.  It serves lint's mode-exact
//    structural_pattern and any caller that stamps a device by hand.
//
// A third sink, RecordingSink, serves exact evaluation sharing between
// identical devices of a lane (DESIGN.md §7k): a device whose complete
// evaluation input — its role iterate values plus its type's `twin_key`,
// keyed to a state id whenever the circuit's mutation generation moved —
// equals, bit for bit, that of a device evaluated earlier in the same
// pass replays the recorded f/J writes through its own rows and slots
// instead of evaluating.  MnaSystem::accept shares the step commit the
// same way: a member whose state id and accepted role values equal an
// earlier member's adopts that member's committed state.
//
// Devices without a kernel descriptor (out-of-tree extensions) are
// stamped through the virtual Device::stamp after the lanes.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nemsim/spice/device.h"
#include "nemsim/spice/engine.h"
#include "nemsim/spice/ids.h"

namespace nemsim::spice {

class MnaSystem;

/// Sentinel for "no row / no slot".  Roles bound to ground (and Jacobian
/// cells touching them) carry this: reads yield 0, writes are dropped —
/// exactly the ground-row semantics of StampContext.
inline constexpr std::size_t kKernelAbsent = static_cast<std::size_t>(-1);

/// Unknown-table lookups handed to Device::kernel_descriptor, so devices
/// can translate their terminals into role unknowns without depending on
/// MnaSystem directly.
class KernelLayout {
 public:
  explicit KernelLayout(const MnaSystem& system) : system_(system) {}

  /// Unknown carrying a node's voltage; kNoUnknown for ground.
  UnknownId of(NodeId node) const;
  /// Identity overload so descriptors can list node and internal
  /// unknowns uniformly.
  static UnknownId of(UnknownId unknown) { return unknown; }

 private:
  const MnaSystem& system_;
};

/// Raw sinks + scalars of one assembly pass, shared by every lane the
/// pass evaluates.  Built by the engine from the active StampContext.
struct KernelEvalContext {
  const double* x = nullptr;              ///< Newton iterate
  double* residual = nullptr;             ///< null: Jacobian-only pass
  double* residual_scale = nullptr;       ///< accumulates sum(|f|) per row
  /// Jacobian value storage — CSR nzval or dense row-major data; which
  /// one is already encoded in the lane's slot table.  Null: residual-
  /// only pass (damping trials), J writes are dropped.
  double* jacobian = nullptr;
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  double time = 0.0;
  double dt = 0.0;
  double gmin = 0.0;
  double source_factor = 1.0;
};

/// Role-indexed writer for one device inside a batch loop.  Role -1
/// addresses ground explicitly (companion models with a grounded
/// terminal).  All guards compile down to one compare per access; with
/// constant roles the -1 checks fold away entirely.  The accessors are
/// forced inline: with three eval instantiations per device type, GCC
/// left them (and the companion evals) out of line in the NEMFET's hot
/// eval, which measured about 8 % slower per lane pass.
class KernelSink {
 public:
  KernelSink(const KernelEvalContext& ctx, const std::size_t* rows,
             const std::size_t* slots, int roles)
      : ctx_(ctx), rows_(rows), slots_(slots), roles_(roles) {}

  /// Iterate value of a role's unknown (0 for ground-tied roles).
  [[gnu::always_inline]] double xr(int role) const {
    if (role < 0) return 0.0;
    const std::size_t u = rows_[static_cast<std::size_t>(role)];
    return u == kKernelAbsent ? 0.0 : ctx_.x[u];
  }

  bool dc() const { return ctx_.mode == AnalysisMode::kDcOperatingPoint; }
  AnalysisMode mode() const { return ctx_.mode; }
  double time() const { return ctx_.time; }
  double dt() const { return ctx_.dt; }
  double gmin() const { return ctx_.gmin; }
  double source_factor() const { return ctx_.source_factor; }

  /// Adds `value` to the role's residual row (and its scale), mirroring
  /// StampContext::raw_f.  Dropped for ground roles / residual-less pass.
  [[gnu::always_inline]] void f(int role, double value) const {
    if (role < 0 || ctx_.residual == nullptr) return;
    const std::size_t u = rows_[static_cast<std::size_t>(role)];
    if (u == kKernelAbsent) return;
    ctx_.residual[u] += value;
    ctx_.residual_scale[u] += std::abs(value);
  }

  /// Adds d f(eq_role) / d x(var_role) through the frozen scatter map.
  /// Cells missing from the descriptor's j_positions have no slot and
  /// are dropped (kernel_test checks every in-tree device declares all
  /// the cells it writes).
  [[gnu::always_inline]] void J(int eq_role, int var_role,
                                double value) const {
    if (eq_role < 0 || var_role < 0) return;
    J_cell(cell(eq_role, var_role), value);
  }

  /// Index of the (eq_role, var_role) cell in the scatter map; both roles
  /// non-negative.
  [[gnu::always_inline]] std::size_t cell(int eq_role, int var_role) const {
    return static_cast<std::size_t>(eq_role) *
               static_cast<std::size_t>(roles_) +
           static_cast<std::size_t>(var_role);
  }
  /// J by scatter-map cell index.
  [[gnu::always_inline]] void J_cell(std::size_t cell, double value) const {
    if (ctx_.jacobian == nullptr) return;
    const std::size_t s = slots_[cell];
    if (s == kKernelAbsent) return;
    ctx_.jacobian[s] += value;
  }

 private:
  const KernelEvalContext& ctx_;
  const std::size_t* rows_;   ///< roles entries: unknown index or absent
  const std::size_t* slots_;  ///< roles*roles entries: value offsets
  int roles_;
};

/// The exact bit patterns of an evaluation's inputs, in a fixed order.
/// A device type's `void twin_key(TwinKey&) const` appends every member
/// its `eval` reads; two keys compare equal only when every bit does.
/// Fixed capacity, so appending is a plain store: a key that outgrows it
/// is marked overflowed and equals no key, so its device never shares.
class TwinKey {
 public:
  static constexpr std::size_t kCapacity = 64;

  void clear() { size_ = 0; }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(std::uint64_t{value ? 1u : 0u}); }
  void add(std::uint64_t value) {
    if (size_ < kCapacity) words_[size_] = value;
    ++size_;
  }
  bool overflowed() const { return size_ > kCapacity; }
  std::span<const std::uint64_t> words() const {
    return {words_, overflowed() ? 0 : size_};
  }
  bool operator==(const TwinKey& other) const {
    return size_ == other.size_ && !overflowed() &&
           std::memcmp(words_, other.words_, size_ * sizeof(std::uint64_t)) ==
               0;
  }

 private:
  std::uint64_t words_[kCapacity] = {};
  std::size_t size_ = 0;
};

/// Device types whose evaluations and step commits may be shared between
/// identical devices: `twin_key` lists every member `eval` reads, and
/// `adopt_state(twin)` copies the members `accept_step` writes from a
/// device whose accept_step ran on the same complete input.
template <class DeviceT>
concept HasTwinKey = requires(const DeviceT& d, DeviceT& m, TwinKey& key) {
  d.twin_key(key);
  m.adopt_state(d);
};

/// The f/J writes of one evaluation, in call order per array.  Writes to
/// role -1 are not recorded: every sink drops them.
struct TwinRecord {
  std::vector<std::pair<int, double>> f;          ///< (role, value)
  std::vector<std::pair<std::size_t, double>> j;  ///< (KernelSink::cell, value)

  void clear() {
    f.clear();
    j.clear();
  }
};

/// A KernelSink that also records every write into a TwinRecord: the
/// third instantiation of each device's eval.
class RecordingSink : public KernelSink {
 public:
  RecordingSink(const KernelSink& sink, TwinRecord& record)
      : KernelSink(sink), record_(&record) {}

  // Out of line: recording runs once per class and pass, and keeping it
  // out of every write site keeps the recorded eval small.
  [[gnu::noinline]] void f(int role, double value) const {
    if (role >= 0) record_->f.emplace_back(role, value);
    KernelSink::f(role, value);
  }
  [[gnu::noinline]] void J(int eq_role, int var_role, double value) const {
    if (eq_role < 0 || var_role < 0) return;
    const std::size_t c = cell(eq_role, var_role);
    record_->j.emplace_back(c, value);
    J_cell(c, value);
  }

 private:
  TwinRecord* record_;
};

/// Writes a recorded evaluation through `sink`, as the evaluation itself
/// would: the same values in the same order per array.
inline void replay_twin(const KernelSink& sink, const TwinRecord& record) {
  for (const auto& [role, value] : record.f) sink.f(role, value);
  for (const auto& [cell, value] : record.j) sink.J_cell(cell, value);
}

/// The evaluation input of a class member under `sink`, given the state
/// id its twin_key was keyed to: the id, then the iterate value of each
/// role in role order.  Within one class, equal probes of one pass mean
/// bitwise-equal complete inputs.
inline void twin_probe(const KernelSink& sink, std::uint32_t state, int roles,
                       TwinKey& key) {
  key.clear();
  key.add(std::uint64_t{state});
  for (int r = 0; r < roles; ++r) key.add(sink.xr(r));
}

/// Evaluation sharing state of one lane, owned by the plan.  Devices are
/// grouped into candidate classes by their twin_key bits when the plan is
/// built and at every analysis entry; a device alone in its class is
/// evaluated plainly.  Each member's twin_key is keyed to a state id
/// within its class by the first assembly pass after the circuit's
/// mutation generation moved (ParamBank::generation), and carried across
/// steps by MnaSystem::accept.  Within a pass, each class remembers up to
/// kWays distinct probes and their recorded writes; within an accept, up
/// to kMaxStates distinct commit inputs and the member that ran each.
struct KernelTwins {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::size_t kWays = 2;
  /// Distinct member states a class tells apart; members past them
  /// evaluate plainly.
  static constexpr std::size_t kMaxStates = 8;
  struct Way {
    TwinKey key;  ///< twin_probe of the recorded evaluation
    TwinRecord record;
    std::uint64_t pass = 0;  ///< pass the way was filled in (stale if older)
  };
  /// One distinct commit input of the current accept (a state id and the
  /// accepted role values): the member whose accept_step ran on it, its
  /// state id before the commit, and the id its committed twin_key got.
  struct Commit {
    std::uint32_t member = 0;
    std::uint32_t state_before = kNone;
    std::uint32_t state = kNone;
  };
  struct Class {
    Way ways[kWays];
    std::vector<TwinKey> states;  ///< twin_key of each state id
    std::vector<Commit> commits;  ///< at most kMaxStates, current accept
  };
  std::vector<std::uint32_t> class_of;  ///< per lane device, or kNone
  /// Per lane device: state id within its class, or kNone (plain eval).
  std::vector<std::uint32_t> state_of;
  std::vector<Class> classes;
  TwinKey probe;          ///< input of the device being evaluated
  std::uint64_t pass = 0; ///< assembly passes run through the classes
};

/// One lane's view handed to its batch function: parallel arrays over
/// `count` devices of the same concrete type.
struct KernelLaneView {
  const Device* const* devices = nullptr;
  std::size_t count = 0;
  int roles = 0;
  const std::size_t* rows = nullptr;   ///< count * roles
  const std::size_t* slots = nullptr;  ///< count * roles * roles
  /// Sharing classes; null when no two devices of the lane are candidates.
  KernelTwins* twins = nullptr;
};

/// Evaluates a lane; returns how many of its devices replayed a twin.
using KernelBatchFn = std::size_t (*)(const KernelLaneView&,
                                      const KernelEvalContext&);

/// The lane loop with sharing: devices of a class look up their probe
/// among the class's ways, replay on a hit, and otherwise evaluate (into
/// a free way's record when one is left).  Devices keep their lane order,
/// so every f/J array accumulates in the order of the plain loop.
template <HasTwinKey DeviceT>
std::size_t kernel_batch_eval_twins(const KernelLaneView& lane,
                                    const KernelEvalContext& ctx) {
  KernelTwins& tw = *lane.twins;
  const std::uint64_t pass = ++tw.pass;
  const std::size_t r = static_cast<std::size_t>(lane.roles);
  const std::size_t rr = r * r;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < lane.count; ++i) {
    const KernelSink sink(ctx, lane.rows + i * r, lane.slots + i * rr,
                          lane.roles);
    const DeviceT& device = *static_cast<const DeviceT*>(lane.devices[i]);
    const std::uint32_t state = tw.state_of[i];
    if (state == KernelTwins::kNone) {
      device.eval(sink);
      continue;
    }
    twin_probe(sink, state, lane.roles, tw.probe);
    KernelTwins::Way* open_way = nullptr;
    bool replayed = false;
    for (KernelTwins::Way& way : tw.classes[tw.class_of[i]].ways) {
      if (way.pass != pass) {
        open_way = &way;  // ways fill in order: the rest are stale too
        break;
      }
      if (way.key == tw.probe) {
        replay_twin(sink, way.record);
        replayed = true;
        break;
      }
    }
    if (replayed) {
      ++replays;
    } else if (open_way != nullptr) {
      open_way->pass = pass;
      open_way->key = tw.probe;
      open_way->record.clear();
      device.eval(RecordingSink(sink, open_way->record));
    } else {
      device.eval(sink);
    }
  }
  return replays;
}

/// The canonical batch function: a tight loop of direct (devirtualized)
/// per-device evaluations.  Each device type T exposes
/// `template <class Sink> void eval(const Sink&) const` and registers
/// `&kernel_batch_eval<T>` in its descriptor (see describe_lanes).
template <typename DeviceT>
std::size_t kernel_batch_eval(const KernelLaneView& lane,
                              const KernelEvalContext& ctx) {
  if constexpr (HasTwinKey<DeviceT>) {
    if (lane.twins != nullptr) {
      return kernel_batch_eval_twins<DeviceT>(lane, ctx);
    }
  }
  const std::size_t r = static_cast<std::size_t>(lane.roles);
  const std::size_t rr = r * r;
  for (std::size_t i = 0; i < lane.count; ++i) {
    const KernelSink sink(ctx, lane.rows + i * r, lane.slots + i * rr,
                          lane.roles);
    static_cast<const DeviceT*>(lane.devices[i])->eval(sink);
  }
  return 0;
}

/// Appends a device's twin_key (type-erased for the plan builder).
using KernelTwinKeyFn = void (*)(const Device&, TwinKey&);
/// Copies the committed state of a twin into a device of the same type
/// (type-erased adopt_state, for MnaSystem::accept).
using KernelAdoptFn = void (*)(Device&, const Device&);

/// Filled by Device::kernel_descriptor.  Devices sharing a bucket key
/// must share `batch` and `roles` (the plan builder verifies and demotes
/// mismatches to the Device::stamp path).
struct KernelDescriptor {
  bool supported = false;
  /// Stable bucket key ("resistor", "mosfet", ...) — also the label the
  /// per-bucket eval counters report under.
  const char* bucket = "";
  KernelBatchFn batch = nullptr;
  /// Set for types with a twin_key (their evaluations may be shared).
  KernelTwinKeyFn twin_key = nullptr;
  /// Set with twin_key (their step commits may be shared).
  KernelAdoptFn adopt_state = nullptr;
  int roles = 0;
  /// Unknown behind each role (kNoUnknown for ground-tied terminals).
  std::vector<UnknownId> role_unknowns;
  /// Declared union of Jacobian (eq_role, var_role) cells over all
  /// analysis modes AND runtime orientations (e.g. the MOSFET
  /// source/drain swap).  Undeclared cells have no slot and silently
  /// drop writes — a device must declare every cell it can ever stamp.
  std::vector<std::pair<std::uint8_t, std::uint8_t>> j_positions;

  void add_j(int eq_role, int var_role) {
    j_positions.emplace_back(static_cast<std::uint8_t>(eq_role),
                             static_cast<std::uint8_t>(var_role));
  }
};

/// One type bucket: SoA arrays over its member devices, in circuit
/// (registration) order.
struct KernelLane {
  std::string bucket;
  KernelBatchFn batch = nullptr;
  KernelTwinKeyFn twin_key = nullptr;
  KernelAdoptFn adopt_state = nullptr;
  int roles = 0;
  bool linear = false;  ///< linear-device lane (vs nonlinear lanes)
  std::vector<const Device*> devices;
  std::vector<std::size_t> device_indices;  ///< MnaSystem device index
  std::vector<std::size_t> rows;            ///< count * roles
  /// Declared (row, col) per Jacobian cell — (absent, absent) for
  /// undeclared or ground-dropped cells.  count * roles * roles.
  std::vector<std::pair<std::size_t, std::size_t>> rowcol;
  std::vector<std::size_t> dense_slots;   ///< row * n + col
  std::vector<std::size_t> sparse_slots;  ///< nzval slots of KernelPlan::skeleton
  /// Cumulative device evaluations in Newton assembly passes; counted
  /// for nonlinear lanes only (the ones NewtonStats::nonlinear_evals
  /// counts), so linear lanes stay at 0.
  std::uint64_t evals = 0;
  /// Of `evals`, the ones served by replaying a twin's recorded writes.
  std::uint64_t twin_replays = 0;
  /// Sharing classes (rebuilt by MnaSystem::regroup_twins); unused when
  /// `twins.classes` is empty.
  KernelTwins twins;

  KernelLaneView view(const std::size_t* slot_table) {
    return {devices.data(), devices.size(), roles, rows.data(), slot_table,
            twins.classes.empty() ? nullptr : &twins};
  }
};

/// The frozen evaluation plan for one MnaSystem: built once on first use
/// (never by the constructor or compile()), together with the solver's
/// Jacobian pattern, against which every CSR slot is resolved once.
struct KernelPlan {
  std::vector<KernelLane> lanes;  ///< bucket creation order
  /// Devices with no (usable) descriptor, stamped through Device::stamp
  /// after the lanes; split by linearity to serve DeviceSet passes.
  std::vector<std::size_t> leftover_linear;
  std::vector<std::size_t> leftover_nonlinear;
  /// Union of all lanes' declared (row, col) cells, sorted and
  /// deduplicated.
  std::vector<std::pair<std::size_t, std::size_t>> declared_cells;
  /// Zero-valued CSR over the solver's Jacobian pattern: declared_cells,
  /// the full diagonal and the leftover devices' recorded cells (OP and
  /// transient).  MnaSystem::make_sparse_jacobian hands out copies.
  linalg::CsrMatrix skeleton;
  /// Slot of every diagonal (i, i) in `skeleton`, for the gmin shunt.
  std::vector<std::size_t> diagonal_slots;
  /// Some lane has a sharing class (MnaSystem::regroup_twins).
  bool shares = false;
  /// Devices outside every sharing class, in circuit order: the ones
  /// MnaSystem::accept commits through the plain loop.
  std::vector<std::size_t> unshared_devices;
  /// Mutation generation (ParamBank::generation) the lanes' state ids
  /// hold for; kNoGeneration when they were never keyed.
  static constexpr std::uint64_t kNoGeneration = ~std::uint64_t{0};
  std::uint64_t twin_generation = kNoGeneration;
};

/// Role-indexed writer for one device over a StampContext: the same
/// interface as KernelSink, translating roles to unknowns through the
/// device's role table and writing through add_f/add_J (ground roles
/// read 0 and drop writes, as on the lanes).
class StampSink {
 public:
  StampSink(StampContext& ctx, const UnknownId* roles)
      : ctx_(&ctx), roles_(roles) {}

  double xr(int role) const {
    if (role < 0) return 0.0;
    const UnknownId u = roles_[role];
    return u.valid() ? ctx_->x(u) : 0.0;
  }

  bool dc() const { return ctx_->mode() == AnalysisMode::kDcOperatingPoint; }
  AnalysisMode mode() const { return ctx_->mode(); }
  double time() const { return ctx_->time(); }
  double dt() const { return ctx_->dt(); }
  double gmin() const { return ctx_->gmin(); }
  double source_factor() const { return ctx_->source_factor(); }

  void f(int role, double value) const {
    if (role >= 0) ctx_->add_f(roles_[role], value);
  }
  void J(int eq_role, int var_role, double value) const {
    if (eq_role >= 0 && var_role >= 0) {
      ctx_->add_J(roles_[eq_role], roles_[var_role], value);
    }
  }

 private:
  StampContext* ctx_;
  const UnknownId* roles_;
};

/// Device::stamp of every in-tree device: runs `device.eval` through a
/// StampSink over the unknowns `DeviceT::role_unknowns` lists.
template <typename DeviceT>
void stamp_roles(const DeviceT& device, StampContext& ctx) {
  const auto roles = device.role_unknowns(KernelLayout(ctx.system()));
  device.eval(StampSink(ctx, roles.data()));
}

/// Fills the type-independent part of an in-tree device's descriptor:
/// bucket, batch function, and the role unknowns from
/// `DeviceT::role_unknowns`.  The caller then declares its Jacobian
/// cells with add_j.
template <typename DeviceT>
void describe_lanes(const DeviceT& device, const KernelLayout& layout,
                    const char* bucket, KernelDescriptor& out) {
  const auto roles = device.role_unknowns(layout);
  out.supported = true;
  out.bucket = bucket;
  out.batch = &kernel_batch_eval<DeviceT>;
  if constexpr (HasTwinKey<DeviceT>) {
    out.twin_key = [](const Device& d, TwinKey& key) {
      static_cast<const DeviceT&>(d).twin_key(key);
    };
    out.adopt_state = [](Device& d, const Device& twin) {
      static_cast<DeviceT&>(d).adopt_state(static_cast<const DeviceT&>(twin));
    };
  }
  out.roles = static_cast<int>(roles.size());
  out.role_unknowns.assign(roles.begin(), roles.end());
}

}  // namespace nemsim::spice
