// NEMFET device exploration: hysteretic Id-Vgs curves, the pull-in /
// pull-out window, beam dynamics during a switching transient, and the
// paper's polynomial fit of the electrostatic force (Section 2.4).
#include <iostream>

#include "nemsim/devices/nemfet.h"
#include "nemsim/devices/sources.h"
#include "nemsim/linalg/polyfit.h"
#include "nemsim/spice/circuit.h"
#include "nemsim/spice/measure.h"
#include "nemsim/spice/transient.h"
#include "nemsim/tech/cards.h"
#include "nemsim/tech/characterize.h"
#include "nemsim/util/table.h"
#include "nemsim/util/units.h"

int main() {
  using namespace nemsim;
  using namespace nemsim::literals;
  using devices::Nemfet;
  using devices::NemsPolarity;
  using devices::SourceWave;
  using devices::VoltageSource;

  const devices::NemsParams params = tech::nems_90nm();

  // ---- Hysteretic transfer curves (both sweep directions) -------------
  tech::NemsIV iv = tech::characterize_nemfet(params, 1.0_um, 1.2);
  std::cout << "NEMFET at W = 1 um, Vds = 1.2 V\n";
  std::cout << "  Ion  = " << iv.iv.ion * 1e6 << " uA  (paper: 330)\n";
  std::cout << "  Ioff = " << iv.iv.ioff * 1e12 << " pA  (paper: 110)\n";
  std::cout << "  effective swing = " << iv.iv.swing_mv_dec << " mV/dec\n";
  std::cout << "  pull-in  " << iv.pull_in_v << " V (model fold "
            << params.pull_in_voltage() << " V, parallel-plate "
            << params.analytic_pull_in_voltage() << " V)\n";
  std::cout << "  pull-out " << iv.pull_out_v << " V (model fold "
            << params.pull_out_voltage() << " V, parallel-plate "
            << params.analytic_pull_out_voltage() << " V)\n\n";

  Table t({"Vgs (V)", "Id up-sweep (A)", "Id down-sweep (A)"});
  for (std::size_t i = 0; i < iv.up_sweep.vgs.size(); i += 24) {
    const double v = iv.up_sweep.vgs[i];
    // The down sweep runs from Vdd to 0: index from the other end.
    const std::size_t j = iv.down_sweep.vgs.size() - 1 - i;
    t.begin_row()
        .cell(v, 3)
        .cell_sci(iv.up_sweep.id[i], 3)
        .cell_sci(iv.down_sweep.id[j], 3);
  }
  t.print(std::cout);

  // ---- Polynomial fit of the electrostatic force ----------------------
  // The paper's SPICE model replaces f(Vg) by a fitted polynomial [23];
  // here is that fit extracted from the physical force law at rest.
  Nemfet probe("probe", spice::NodeId{1}, spice::NodeId{2}, spice::NodeId{0},
               NemsPolarity::kN, params, 1.0_um);
  std::vector<double> vg, force;
  for (double v = 0.0; v <= 1.2001; v += 0.05) {
    vg.push_back(v);
    force.push_back(probe.electrostatic_force(v, 0.0));
  }
  linalg::Polynomial fit = linalg::polyfit(vg, force, 2);
  std::cout << "\nPolynomial fit of f(Vg) at x = 0 (paper Section 2.4):\n  "
            << "f(Vg) ~ " << fit.coefficients()[0] << " + "
            << fit.coefficients()[1] << "*Vg + " << fit.coefficients()[2]
            << "*Vg^2  (rms error "
            << linalg::fit_rms_error(fit, vg, force) << " N)\n";

  // ---- Beam dynamics during switching ---------------------------------
  spice::Circuit ckt;
  spice::NodeId d = ckt.node("d");
  spice::NodeId g = ckt.node("g");
  ckt.add<VoltageSource>("Vd", d, ckt.gnd(), SourceWave::dc(1.2));
  ckt.add<VoltageSource>(
      "Vg", g, ckt.gnd(),
      SourceWave::pulse(0.0, 1.2, 0.1_ns, 10.0_ps, 10.0_ps, 1.0_ns));
  ckt.add<Nemfet>("X1", d, g, ckt.gnd(), NemsPolarity::kN, params, 1.0_um);
  spice::MnaSystem system(ckt);
  spice::TransientOptions tran;
  tran.tstop = 2.0_ns;
  spice::Waveform wave = spice::transient(system, tran);

  const double gap = params.gap0;
  const double t_on =
      spice::cross_time(wave, "X1.x", 0.9 * gap, spice::Edge::kRising) -
      0.1_ns;
  const double t_off =
      spice::cross_time(wave, "X1.x", 0.5 * gap, spice::Edge::kFalling, 1,
                        1.1_ns) -
      1.11_ns;
  std::cout << "\nBeam dynamics: pull-in transit " << t_on * 1e12
            << " ps, release to half-gap " << t_off * 1e12 << " ps\n";
  return 0;
}
