// nemsim-fuzz: differential fuzzer over the engine's redundant paths.
//
// Generate mode (default): for each seed in [--seed, --seed + --count),
// builds a random circuit and runs the full configuration matrix
// (nemsim/check/checker.h) — dense vs sparse LU, compiled vs legacy
// drivers, flat vs hierarchical, serial vs parallel sweep, export ->
// parse round trip, analyzer soundness — comparing every pair under its
// bitwise, reltol or soundness contract.
// Mismatches are printed with the worst MNA row named, and the offending
// deck plus a repro command are written to --out; with --minimize the
// deck is first shrunk (greedy device deletion + node merging) while the
// mismatch still reproduces.
//
// Repro mode: --deck FILE --analysis A --contract C replays one leg on
// an explicit deck (the file the generate mode wrote).
//
// Exit codes: 0 all contracts held, 1 mismatches found, 2 usage/IO.
//
// --break stuck-gmin injects a deliberate defect (a 1e-3 S homotopy
// shunt left on the sparse leg of sparse-vs-dense) to prove the harness
// catches and minimizes what it claims to; it must make the run fail.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "nemsim/check/checker.h"
#include "nemsim/check/minimize.h"
#include "nemsim/util/error.h"
#include "nemsim/util/logging.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  generate mode:\n"
      << "    --seed N          first seed (default 1)\n"
      << "    --count N         seeds to run (default 20)\n"
      << "    --bitwise-only    only the bitwise contracts (fast smoke)\n"
      << "    --only NAME       run a single contract (e.g. analyze)\n"
      << "    --max-stages N    generator stage ceiling (default 14)\n"
      << "    --minimize        shrink each mismatching deck\n"
      << "    --out DIR         mismatch artifact directory (default "
         "fuzz_out)\n"
      << "    --break stuck-gmin   inject a defect; run must fail\n"
      << "  repro mode:\n"
      << "    --deck FILE --analysis op|tran|dcsweep --contract NAME\n"
      << "  contracts:";
  for (nemsim::check::Contract c : nemsim::check::kAllContracts) {
    std::cerr << " " << nemsim::check::to_string(c);
  }
  std::cerr << "\n  exit codes: 0 clean, 1 mismatch, 2 usage/IO\n";
  return 2;
}

/// Writes `text` to out_dir/name, creating the directory on first use.
bool write_artifact(const std::string& out_dir, const std::string& name,
                    const std::string& text, std::string* path_out) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string path = out_dir + "/" + name;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "nemsim-fuzz: cannot write " << path << "\n";
    return false;
  }
  os << text;
  if (path_out != nullptr) *path_out = path;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nemsim;

  std::uint64_t seed = 1;
  std::size_t count = 20;
  std::string out_dir = "fuzz_out";
  std::string deck_file, analysis_name, contract_name, break_name;
  bool minimize = false;
  check::CheckOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "nemsim-fuzz: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--count") {
        count = std::stoull(value());
      } else if (arg == "--max-stages") {
        opts.generator.max_stages = std::stoull(value());
        if (opts.generator.min_stages > opts.generator.max_stages) {
          opts.generator.min_stages = opts.generator.max_stages;
        }
      } else if (arg == "--bitwise-only") {
        opts.bitwise_only = true;
      } else if (arg == "--only") {
        opts.only_contract = check::parse_contract(value());
      } else if (arg == "--minimize") {
        minimize = true;
      } else if (arg == "--out") {
        out_dir = value();
      } else if (arg == "--break") {
        break_name = value();
      } else if (arg == "--deck") {
        deck_file = value();
      } else if (arg == "--analysis") {
        analysis_name = value();
      } else if (arg == "--contract") {
        contract_name = value();
      } else if (arg == "-h" || arg == "--help") {
        return usage(argv[0]);
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "nemsim-fuzz: bad value for " << arg << ": " << e.what()
                << "\n";
      return 2;
    }
  }
  if (!break_name.empty()) {
    if (break_name != "stuck-gmin") {
      std::cerr << "nemsim-fuzz: unknown --break '" << break_name
                << "' (have: stuck-gmin)\n";
      return 2;
    }
    opts.sabotage = check::Sabotage::kStuckGmin;
  }
  set_log_level(LogLevel::kError);  // Newton retry chatter drowns findings

  // ---- repro mode -------------------------------------------------------
  if (!deck_file.empty()) {
    if (analysis_name.empty() || contract_name.empty()) {
      std::cerr << "nemsim-fuzz: --deck needs --analysis and --contract\n";
      return 2;
    }
    std::ifstream is(deck_file);
    if (!is) {
      std::cerr << "nemsim-fuzz: cannot read " << deck_file << "\n";
      return 2;
    }
    std::ostringstream deck;
    deck << is.rdbuf();
    try {
      std::string detail;
      const bool bad =
          check::deck_mismatches(deck.str(), check::parse_analysis(analysis_name),
                                 check::parse_contract(contract_name), opts,
                                 &detail);
      if (bad) {
        std::cout << "MISMATCH " << analysis_name << "/" << contract_name
                  << ": " << detail << "\n";
        return 1;
      }
      std::cout << "ok: contract " << analysis_name << "/" << contract_name
                << " holds on " << deck_file << "\n";
      return 0;
    } catch (const Error& e) {
      std::cerr << "nemsim-fuzz: " << e.what() << "\n";
      return 2;
    }
  }

  // ---- generate mode ----------------------------------------------------
  std::size_t total_contracts = 0, total_mismatches = 0;
  for (std::uint64_t s = seed; s < seed + count; ++s) {
    check::CheckCaseResult res;
    try {
      res = check::run_check_case(s, opts);
    } catch (const Error& e) {
      std::cerr << "nemsim-fuzz: seed " << s << " failed outright: "
                << e.what() << "\n";
      return 2;
    }
    total_contracts += res.contracts_run;
    for (const check::Mismatch& m : res.mismatches) {
      ++total_mismatches;
      std::cout << "MISMATCH seed " << m.seed << " "
                << check::to_string(m.analysis) << "/"
                << check::to_string(m.contract) << "\n  " << m.detail << "\n";
      const std::string stem = "seed" + std::to_string(m.seed) + "_" +
                               check::to_string(m.analysis) + "_" +
                               check::to_string(m.contract);
      std::string deck_path;
      if (write_artifact(out_dir, stem + ".sp", m.deck, &deck_path)) {
        std::ostringstream repro;
        repro << argv[0] << " --deck " << deck_path << " --analysis "
              << check::to_string(m.analysis) << " --contract "
              << check::to_string(m.contract);
        if (!break_name.empty()) repro << " --break " << break_name;
        repro << "\n";
        write_artifact(out_dir, stem + ".repro", repro.str(), nullptr);
        std::cout << "  deck: " << deck_path << "  (repro command in " << stem
                  << ".repro)\n";
      }
      if (minimize && m.contract != check::Contract::kHierarchy) {
        try {
          const check::MinimizeResult shrunk =
              check::minimize_deck(m.deck, m.analysis, m.contract, opts);
          std::string min_path;
          if (write_artifact(out_dir, stem + ".min.sp", shrunk.deck,
                             &min_path)) {
            std::cout << "  minimized: " << min_path << " ("
                      << shrunk.devices_removed << " devices removed, "
                      << shrunk.nodes_merged << " nodes merged, "
                      << shrunk.predicate_calls << " evaluations)\n";
          }
        } catch (const Error& e) {
          std::cerr << "  minimize failed: " << e.what() << "\n";
        }
      }
    }
    if ((s - seed + 1) % 10 == 0 || s + 1 == seed + count) {
      std::cout << "[" << (s - seed + 1) << "/" << count << "] seeds, "
                << total_contracts << " contract legs, " << total_mismatches
                << " mismatches\n";
    }
  }
  return total_mismatches == 0 ? 0 : 1;
}
