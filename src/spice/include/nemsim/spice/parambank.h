// Structure-of-arrays parameter bank: the tunable scalar parameters of a
// circuit's devices, hoisted out of the device objects into contiguous
// per-kind columns ("mos.vth_shift", "r.resistance", ...).
//
// The bank is what makes a batch of N variants of one topology cheap:
// instead of rebuilding the circuit N times, the compiled program
// (nemsim/spice/compile.h) applies N overlays — base values plus a small
// patch of (slot, value) pairs — over one elaborated circuit.  Devices
// register their tunable scalars in Device::bind_params (called once by
// Circuit::register_device) and afterwards read them through BankedParam
// handles, so a bank write is immediately visible to the next stamp.
//
// Devices that derive cached state from a parameter (companion
// capacitances sized from C or W, source waveforms mirroring a DC level)
// resync in Device::on_params_changed, which Circuit::notify_params_changed
// broadcasts after every overlay application.  Plain setter methods
// (set_vth_shift, set_resistance, ...) keep writing through the same
// slots, so the bank path and the legacy mutation path are literally the
// same storage — which is what makes overlay-vs-rebuilt bitwise testable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nemsim::spice {

/// Handle to one scalar in the bank: column (parameter kind) and row
/// (registration order within the kind).
struct ParamSlot {
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t column = kInvalid;
  std::uint32_t row = 0;
  bool valid() const { return column != kInvalid; }
};

/// One (slot, value) assignment; a patch is the delta of a variant.
struct ParamPatchEntry {
  ParamSlot slot;
  double value = 0.0;
};
using ParamPatch = std::vector<ParamPatchEntry>;

class ParamBank {
 public:
  /// Appends `value` to the column named `column` (created on first
  /// use), tagged with the owning device's name for introspection.
  ParamSlot bind(const std::string& column, const std::string& owner,
                 double value);

  double value(ParamSlot slot) const {
    return columns_[slot.column].values[slot.row];
  }
  /// Writes mark the column dirty only when the stored value actually
  /// changes, so Circuit::notify_params_changed can skip resyncing
  /// devices whose parameters a restore+apply round trip left untouched.
  /// Every write moves the generation.
  void set_value(ParamSlot slot, double v) {
    touch();
    Column& col = columns_[slot.column];
    if (col.values[slot.row] != v) {
      col.values[slot.row] = v;
      col.dirty = true;
    }
  }

  // --- Mutation generation ---------------------------------------------
  // One counter per circuit that moves whenever a device member an
  // evaluation reads may have changed: every bank write (set_value,
  // apply, restore, bind) and, through BankedParam::touch, every device
  // mutator that changes such a member without a bank write (accept_step,
  // reset_state, notify_discontinuity, ...).  MnaSystem keys its twin
  // state ids against it (DESIGN.md §7k): ids keyed at generation g stay
  // exact while the generation reads g.

  std::uint64_t generation() const { return generation_; }
  void touch() { ++generation_; }

  std::size_t num_columns() const { return columns_.size(); }
  std::size_t num_params() const;
  const std::string& column_name(std::size_t column) const {
    return columns_[column].name;
  }
  /// Contiguous values of one column, in device-registration order.
  const std::vector<double>& column_values(std::size_t column) const {
    return columns_[column].values;
  }
  /// Owning device name per row of `column` (parallel to column_values).
  const std::vector<std::string>& column_owners(std::size_t column) const {
    return columns_[column].owners;
  }
  /// Column index by name; npos when absent.
  std::size_t find_column(const std::string& name) const;
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Dense copy of every column's values — the base-parameter snapshot a
  /// compiled program restores before applying each variant's patch.
  using Snapshot = std::vector<std::vector<double>>;
  Snapshot snapshot() const;
  /// Restores a snapshot taken from this bank (same registration state).
  void restore(const Snapshot& snap);

  /// Applies a patch on top of the current values.
  void apply(const ParamPatch& patch) {
    for (const ParamPatchEntry& e : patch) set_value(e.slot, e.value);
  }

  // --- Dirty-column tracking -------------------------------------------
  // Consumed by Circuit::notify_params_changed to resync only the
  // devices bound to columns whose values changed since the last sweep.

  /// True when any value in `column` changed since the last clear_dirty.
  bool column_dirty(std::size_t column) const {
    return columns_[column].dirty;
  }
  void clear_dirty() {
    for (Column& col : columns_) col.dirty = false;
  }

 private:
  struct Column {
    std::string name;
    std::vector<double> values;
    std::vector<std::string> owners;
    bool dirty = false;
  };
  std::vector<Column> columns_;
  std::uint64_t generation_ = 0;
};

/// A device-held parameter handle.  Free-standing devices (never added to
/// a Circuit — calibration harnesses, unit tests) keep the value inline;
/// once bind() moves it into a circuit's bank, reads and writes go
/// through the slot so bank overlays and device setters share storage.
class BankedParam {
 public:
  explicit BankedParam(double value = 0.0) : local_(value) {}

  double get() const { return bank_ ? bank_->value(slot_) : local_; }
  void set(double v) {
    if (bank_) {
      bank_->set_value(slot_, v);
    } else {
      local_ = v;
    }
  }

  /// Moves the owning bank's mutation generation (ParamBank::touch); a
  /// no-op when free-standing.  Devices call it on any handle they hold
  /// from each mutator that changes a member their evaluation reads.
  void touch() const {
    if (bank_) bank_->touch();
  }

  /// Moves the current value into `bank` (Device::bind_params only).
  void bind(ParamBank& bank, const std::string& column,
            const std::string& owner) {
    slot_ = bank.bind(column, owner, local_);
    bank_ = &bank;
  }

  bool bound() const { return bank_ != nullptr; }
  /// Slot in the owning circuit's bank; invalid when free-standing.
  ParamSlot slot() const { return bank_ ? slot_ : ParamSlot{}; }

 private:
  ParamBank* bank_ = nullptr;
  ParamSlot slot_;
  double local_;
};

}  // namespace nemsim::spice
