// Shared --diagnostics[=path] flag for the figure benches.
//
// With the bare flag the bench re-runs one representative instance with a
// RunReport attached and prints its one-line summary; with =path it also
// writes the full JSON report there.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "nemsim/spice/diagnostics.h"

namespace nemsim::bench {

struct DiagnosticsFlag {
  bool enabled = false;
  std::string path;  ///< empty: summary to stdout only
};

inline DiagnosticsFlag parse_diagnostics_flag(int argc, char** argv) {
  DiagnosticsFlag flag;
  const std::string prefix = "--diagnostics=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diagnostics") {
      flag.enabled = true;
    } else if (arg.rfind(prefix, 0) == 0) {
      flag.enabled = true;
      flag.path = arg.substr(prefix.size());
    }
  }
  return flag;
}

inline void emit_report(const DiagnosticsFlag& flag,
                        const spice::RunReport& report) {
  if (!flag.enabled) return;
  std::cout << "\n" << report.summary();
  if (!flag.path.empty()) {
    std::ofstream os(flag.path);
    report.write_json(os);
    if (os) {
      std::cout << "diagnostics JSON written to " << flag.path << "\n";
    } else {
      std::cerr << "diagnostics: could not write " << flag.path << "\n";
    }
  }
}

}  // namespace nemsim::bench
