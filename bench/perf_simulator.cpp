// Simulator kernel performance (google-benchmark): dense LU scaling,
// dense-vs-sparse ablation (DESIGN.md decision #4), operating points and
// transient throughput on the paper's actual circuits.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "nemsim/core/dynamic_or.h"
#include "nemsim/core/sram.h"
#include "nemsim/linalg/lu.h"
#include "nemsim/linalg/sparse.h"
#include "nemsim/linalg/sparse_lu.h"
#include "nemsim/spice/op.h"
#include "nemsim/spice/transient.h"
#include "nemsim/util/parallel.h"
#include "nemsim/util/rng.h"

namespace {

using namespace nemsim;

linalg::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  return a;
}

void BM_DenseLuFactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a = random_spd(n, 7);
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    linalg::LuDecomposition lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_DenseLuFactorSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_DenseMatVec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a = random_spd(n, 7);
  linalg::Vector x(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.multiply(x));
}
BENCHMARK(BM_DenseMatVec)->Arg(64)->Arg(256);

void BM_SparseMatVec(benchmark::State& state) {
  // MNA-like sparsity: ~5 entries per row.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < n; ++r) {
    trips.push_back({r, r, 4.0});
    for (int k = 0; k < 4; ++k) {
      trips.push_back({r, rng.index(n), rng.uniform(-1.0, 1.0)});
    }
  }
  linalg::SparseMatrix a(n, n, std::move(trips));
  linalg::Vector x(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.multiply(x));
}
BENCHMARK(BM_SparseMatVec)->Arg(64)->Arg(256);

void BM_SparseLuSolve(benchmark::State& state) {
  // MNA-like pattern (~5/row): the dense-vs-sparse ablation of DESIGN.md
  // decision #4.  At these sizes dense partial-pivot LU wins; sparse LU
  // only pays off on genuinely sparse structures (see the tridiagonal
  // variant below).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < n; ++r) {
    trips.push_back({r, r, 8.0});
    for (int k = 0; k < 4; ++k) {
      trips.push_back({r, rng.index(n), rng.uniform(-1.0, 1.0)});
    }
  }
  linalg::SparseMatrix a(n, n, std::move(trips));
  linalg::Vector b(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.lu_solve(b));
}
BENCHMARK(BM_SparseLuSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_SparseLuTridiagonal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<linalg::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({i, i, 2.0});
    if (i > 0) trips.push_back({i, i - 1, -1.0});
    if (i + 1 < n) trips.push_back({i, i + 1, -1.0});
  }
  linalg::SparseMatrix a(n, n, std::move(trips));
  linalg::Vector b(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.lu_solve(b));
}
BENCHMARK(BM_SparseLuTridiagonal)->Arg(128)->Arg(512);

linalg::CsrMatrix mna_like_csr(std::size_t n) {
  // Same matrix as BM_SparseLuSolve (~5 entries/row, dominant diagonal).
  Rng rng(11);
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  for (std::size_t r = 0; r < n; ++r) {
    entries.emplace_back(r, r);
    for (int k = 0; k < 4; ++k) entries.emplace_back(r, rng.index(n));
  }
  linalg::CsrMatrix a(n, std::move(entries));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t s = a.row_start()[r]; s < a.row_start()[r + 1]; ++s) {
      a.values()[s] = a.col_index()[s] == r ? 8.0 : rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

void BM_SparseLuFactor(benchmark::State& state) {
  // Full factorization (symbolic + numeric) every iteration: the cost the
  // cached-symbolic refactor path avoids.
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::CsrMatrix a = mna_like_csr(n);
  linalg::Vector b(n, 1.0);
  linalg::SparseLuFactorization lu;
  for (auto _ : state) {
    lu.factor(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_SparseLuFactor)->Arg(16)->Arg(64)->Arg(128);

void BM_SparseLuRefactor(benchmark::State& state) {
  // Numeric-only refactorization on the cached symbolic analysis — the
  // steady state of the Newton fast path (same values pattern as
  // BM_SparseLuSolve / BM_SparseLuFactor for comparison).
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::CsrMatrix a = mna_like_csr(n);
  linalg::Vector b(n, 1.0);
  linalg::SparseLuFactorization lu;
  lu.factor(a);
  for (auto _ : state) {
    if (!lu.refactor(a)) state.SkipWithError("pivot decay");
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_SparseLuRefactor)->Arg(16)->Arg(64)->Arg(128);

void BM_MnaAssemblyDense(benchmark::State& state) {
  // Dense Jacobian assembly on the paper's largest gate (fan-in 16).
  core::DynamicOrConfig c;
  c.fanin = 16;
  core::DynamicOrGate gate = core::build_dynamic_or(c);
  spice::MnaSystem system(gate.ckt());
  const linalg::Vector x = system.initial_guess();
  linalg::Matrix j;
  linalg::Vector f, scale;
  for (auto _ : state) {
    system.assemble(x, j, f, scale, spice::AnalysisMode::kDcOperatingPoint,
                    0.0, 0.0, 1e-9, 1.0);
    benchmark::DoNotOptimize(j);
  }
  state.SetLabel("n=" + std::to_string(system.num_unknowns()));
}
BENCHMARK(BM_MnaAssemblyDense);

void BM_MnaAssemblySparse(benchmark::State& state) {
  // Pattern-frozen CSR assembly of the same system through the kernel
  // lanes' frozen scatter maps.
  core::DynamicOrConfig c;
  c.fanin = 16;
  core::DynamicOrGate gate = core::build_dynamic_or(c);
  spice::MnaSystem system(gate.ckt());
  const linalg::Vector x = system.initial_guess();
  linalg::CsrMatrix j = system.make_sparse_jacobian();
  linalg::Vector f, scale;
  for (auto _ : state) {
    if (!system.assemble_sparse(x, j, f, scale,
                                spice::AnalysisMode::kDcOperatingPoint, 0.0,
                                0.0, 1e-9, 1.0)) {
      j = system.make_sparse_jacobian();
    }
    benchmark::DoNotOptimize(j);
  }
  state.SetLabel("n=" + std::to_string(system.num_unknowns()) +
                 " nnz=" + std::to_string(j.nonzeros()));
}
BENCHMARK(BM_MnaAssemblySparse);

void BM_DynamicOrOperatingPoint(benchmark::State& state) {
  core::DynamicOrConfig c;
  c.fanin = static_cast<int>(state.range(0));
  c.hybrid = state.range(1) != 0;
  core::DynamicOrGate gate = core::build_dynamic_or(c);
  spice::MnaSystem system(gate.ckt());
  for (auto _ : state) {
    system.reset_devices();
    benchmark::DoNotOptimize(spice::operating_point(system));
  }
  state.SetLabel(c.hybrid ? "hybrid" : "cmos");
}
BENCHMARK(BM_DynamicOrOperatingPoint)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 1});

void BM_SramReadTransient(benchmark::State& state) {
  core::SramConfig c;
  c.kind = state.range(0) != 0 ? core::SramKind::kHybrid
                               : core::SramKind::kConventional;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::measure_read_latency(c));
  }
  state.SetLabel(state.range(0) ? "hybrid" : "conventional");
}
BENCHMARK(BM_SramReadTransient)->Arg(0)->Arg(1);

void BM_DynamicOrSwitchingCycle(benchmark::State& state) {
  core::DynamicOrConfig c;
  c.fanin = 8;
  c.hybrid = state.range(0) != 0;
  core::DynamicOrGate gate = core::build_dynamic_or(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::measure_worst_case_delay(gate));
  }
  state.SetLabel(state.range(0) ? "hybrid" : "cmos");
}
BENCHMARK(BM_DynamicOrSwitchingCycle)->Arg(0)->Arg(1);

void BM_TransientSolverPath(benchmark::State& state) {
  // End-to-end transient on a dynamic OR gate (system size grows with
  // fan-in): the dense oracle (Arg 0, JacobianSolver::kDense) against the
  // production sparse path (Arg 1, the default).  The label carries the
  // Newton work counters of the last run (assembles a / residual-only r /
  // factorizations f / numeric refactor reuses u).
  core::DynamicOrConfig c;
  c.fanin = static_cast<int>(state.range(1));
  c.fanout = 3;
  core::DynamicOrGate gate = core::build_dynamic_or(c);
  const bool sparse = state.range(0) != 0;

  spice::NewtonStats ns;
  for (auto _ : state) {
    spice::MnaSystem system(gate.ckt());
    spice::TransientOptions options;
    options.tstop = 1.5e-9;
    options.newton.solver =
        sparse ? spice::JacobianSolver::kSparse : spice::JacobianSolver::kDense;
    ns = spice::NewtonStats{};
    options.newton_stats = &ns;
    benchmark::DoNotOptimize(spice::transient(system, options));
  }
  std::ostringstream label;
  spice::MnaSystem sized(gate.ckt());
  label << (sparse ? "sparse" : "dense-oracle") << " fanin=" << c.fanin
        << " n=" << sized.num_unknowns() << " a=" << ns.assembles
        << " r=" << ns.residual_assembles
        << " f=" << ns.factorizations << " u=" << ns.factorization_reuses;
  state.SetLabel(label.str());
}
BENCHMARK(BM_TransientSolverPath)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 16})
    ->Args({1, 16});

void BM_FaninSweepParallel(benchmark::State& state) {
  // The Figure 11 style sweep (fan-in 4/8/12/16, CMOS + hybrid = 8
  // independent transients) on a varying worker count; near-linear
  // scaling to >= 4 threads is the acceptance target.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::vector<int> fanins = {4, 8, 12, 16};
  for (auto _ : state) {
    std::vector<double> endpoints = util::parallel_map(
        fanins.size() * 2,
        [&](std::size_t i) {
          core::DynamicOrConfig c;
          c.fanin = fanins[i / 2];
          c.fanout = 3;
          c.hybrid = (i % 2 == 1);
          core::DynamicOrGate gate = core::build_dynamic_or(c);
          spice::MnaSystem system(gate.ckt());
          spice::TransientOptions options;
          options.tstop = 1.5e-9;
          spice::Waveform w = spice::transient(system, options);
          return w.at("v(out)", options.tstop);
        },
        threads);
    benchmark::DoNotOptimize(endpoints);
  }
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_FaninSweepParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

#ifndef NEMSIM_BUILD_TYPE
#define NEMSIM_BUILD_TYPE ""
#endif
#ifndef NEMSIM_GIT_SHA
#define NEMSIM_GIT_SHA "unknown"
#endif
#ifndef NEMSIM_BENCHMARK_PROVIDER
#define NEMSIM_BENCHMARK_PROVIDER "unknown"
#endif

// Custom main instead of BENCHMARK_MAIN(): timings from a non-Release
// nemsim build are meaningless for the tracked BENCH_*.json trajectory,
// so warn loudly — and refuse outright when NEMSIM_BENCH_REQUIRE_RELEASE=1
// (run_benchmarks.sh sets it).  The build type also lands in the JSON
// context so stale results are identifiable after the fact.
int main(int argc, char** argv) {
  const std::string build_type = NEMSIM_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr
        << "================================================================\n"
        << "WARNING: perf_simulator was built as '"
        << (build_type.empty() ? "unset" : build_type) << "', not Release.\n"
        << "Do not record these timings.  Rebuild with the bench preset:\n"
        << "  cmake --preset bench && cmake --build --preset bench -j\n"
        << "================================================================\n";
    const char* require = std::getenv("NEMSIM_BENCH_REQUIRE_RELEASE");
    if (require != nullptr && std::string(require) == "1") {
      std::cerr << "NEMSIM_BENCH_REQUIRE_RELEASE=1: refusing to run.\n";
      return 1;
    }
  }
  benchmark::AddCustomContext("nemsim_build_type",
                              build_type.empty() ? "unset" : build_type);
  // Commit attribution + library provenance: "system" means the distro
  // libbenchmark, whose own "library_build_type" context reads "debug"
  // regardless of how nemsim was compiled (see the top-level CMakeLists
  // for the vendored-Release alternative).
  benchmark::AddCustomContext("nemsim_git_sha", NEMSIM_GIT_SHA);
  benchmark::AddCustomContext("nemsim_benchmark_library",
                              NEMSIM_BENCHMARK_PROVIDER);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
