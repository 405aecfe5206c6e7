// Sleep transistors (power gating), paper Section 6 / Figures 16-17:
// NEMS vs CMOS switches compared on ON-resistance and OFF-state leakage
// across device area, plus a gated-block study (virtual-rail droop,
// delay degradation, wake-up) as the fine/coarse-grain illustration.
#pragma once

#include <vector>

#include "nemsim/spice/circuit.h"
#include "nemsim/spice/newton.h"

namespace nemsim::core {

enum class SleepDeviceType { kCmos, kNems };
enum class SleepStyle { kFooter, kHeader };

/// One point of the Figure 17 sweep.
struct SleepPoint {
  double area_norm = 0.0;  ///< device area / area of a W/L=5 90 nm CMOS
  double ron = 0.0;        ///< ON resistance (Ohm), measured at small Vds
  double ioff = 0.0;       ///< OFF current at Vds = Vdd (A)
};

struct SleepSweepConfig {
  SleepDeviceType device = SleepDeviceType::kCmos;
  SleepStyle style = SleepStyle::kFooter;
  double vdd = 1.2;
  double vds_on = 0.05;    ///< small drain bias for the Ron measurement
};

/// Measures Ron and Ioff of a sleep switch at each normalized area in
/// `areas` (area scales the width; L fixed at the 90 nm channel length).
/// Reference area (norm = 1) is a W/L = 5 CMOS device as in Figure 17.
std::vector<SleepPoint> sweep_sleep_transistor(
    const SleepSweepConfig& config, const std::vector<double>& areas);

/// Gated logic block study: an inverter chain behind a footer sleep
/// switch.  Reports active-mode delay (vs an ungated chain), virtual
/// ground droop, sleep-mode leakage, and wake-up time.
struct GatedBlockResult {
  double delay_gated = 0.0;     ///< chain propagation delay with the switch on
  double delay_ungated = 0.0;   ///< reference delay without power gating
  double vgnd_droop = 0.0;      ///< peak virtual-ground bounce while switching
  double sleep_leakage = 0.0;   ///< supply power with the switch off (W)
  double wakeup_time = 0.0;     ///< virtual ground settling after wake (s)
};

struct GatedBlockConfig {
  SleepDeviceType device = SleepDeviceType::kCmos;
  double sleep_width = 1e-6;   ///< footer device width
  int stages = 4;              ///< inverter chain length
  double vdd = 1.2;
  /// Newton knobs for the underlying transients (solver path,
  /// tolerances, kernel lanes).
  spice::NewtonOptions newton{};
};

GatedBlockResult measure_gated_block(const GatedBlockConfig& config);

/// Sleep-transistor granularity (paper Figure 16 (c)/(d)).
enum class SleepGranularity {
  kFineGrain,    ///< one sleep device per gate
  kCoarseGrain,  ///< one shared sleep device for the whole block
};

struct GranularityConfig {
  SleepDeviceType device = SleepDeviceType::kCmos;
  int stages = 4;                 ///< inverter chain length
  double total_sleep_width = 2e-6;///< silicon spent on sleep devices, total
  double vdd = 1.2;
  /// Newton knobs for the underlying transients (solver path,
  /// tolerances, kernel lanes).
  spice::NewtonOptions newton{};
};

struct GranularityResult {
  double delay = 0.0;          ///< chain delay in active mode
  double sleep_leakage = 0.0;  ///< static power with switches off (W)
  double worst_droop = 0.0;    ///< worst virtual-ground bounce (V)
};

/// Compares fine vs coarse granularity at EQUAL total sleep-device area:
/// fine-grain splits `total_sleep_width` across per-gate footers (each
/// sees only its own gate's current but gets a narrow device), coarse
/// shares one wide footer (current averaging across gates, the usual
/// area argument for coarse-grain gating).
GranularityResult measure_granularity(SleepGranularity granularity,
                                      const GranularityConfig& config);

}  // namespace nemsim::core
