#include "nemsim/tech/cards.h"

namespace nemsim::tech {

TechNode node_90nm() { return TechNode{}; }

devices::MosParams nmos_90nm() {
  devices::MosParams p;
  p.vth0 = 0.2185;
  p.n = 1.4;
  p.kp = 2.744e-4;
  p.lambda = 0.06;
  p.eta_dibl = 0.04;
  p.cox_area = 0.022;
  p.cov = 3e-10;
  p.cj = 8e-10;
  p.goff = 0.0;
  return p;
}

devices::MosParams pmos_90nm() {
  devices::MosParams p = nmos_90nm();
  // Hole mobility: ~0.45x; Ioff tracks a slightly higher |Vth|.
  p.kp = 1.24e-4;
  p.vth0 = 0.235;
  return p;
}

devices::MosParams nmos_90nm_hvt() {
  devices::MosParams p = nmos_90nm();
  p.vth0 += 0.12;
  return p;
}

devices::MosParams pmos_90nm_hvt() {
  devices::MosParams p = pmos_90nm();
  p.vth0 += 0.12;
  return p;
}

devices::MosParams nmos_90nm_lvt() {
  devices::MosParams p = nmos_90nm();
  p.vth0 -= 0.06;
  return p;
}

devices::MosParams pmos_90nm_lvt() {
  devices::MosParams p = pmos_90nm();
  p.vth0 -= 0.06;
  return p;
}

devices::NemsParams nems_90nm() {
  devices::NemsParams p;
  // Mechanics: 2 nm gap, pull-in ~0.45 V (comparable to the CMOS Vth as
  // the paper requires), pull-out ~0.27 V (hysteretic; the parallel-plate
  // estimate is 0.13 V, but the smoothed contact keeps a residual air
  // gap), pull-in transit of a few tens of ps under full Vdd overdrive.
  p.gap0 = 2e-9;
  p.spring_k = 8.0;
  p.mass = 4e-20;
  p.damping = 6.8e-10;
  p.area = 1.5e-14;
  p.contact_k = 2e4;
  p.contact_softness = 5e-11;
  p.gap_softness = 5e-11;
  p.w_ref = 1e-6;
  p.tox = 1e-9;
  p.eps_ox = 3.9;
  // Channel: Ion = 330 uA/um at Vdd with the beam in contact; the OFF
  // floor reproduces the 110 pA/um vacuum-tunneling/Brownian leakage.
  p.vth_ch = 0.15;
  p.n_ch = 1.2;
  p.kp = 8.0e-5;
  p.lambda = 0.05;
  p.eta_dibl = 0.0;
  p.dvth_per_alpha = 0.8;
  p.l_ch = 1e-7;
  p.goff = 9.17e-5;
  p.cov = 2e-10;
  p.cj = 8e-10;
  return p;
}

}  // namespace nemsim::tech
