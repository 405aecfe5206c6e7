#!/usr/bin/env bash
# Runs the simulator kernel benchmarks and records the results at the
# repo root (BENCH_solver.json) so the perf trajectory is tracked in git
# from PR 1 onward.  Also collects RunReport diagnostics JSON from the
# figure benches that support --diagnostics (solver health: Newton
# iteration totals, LTE rejects, stepping stages) as
# BENCH_<fig>_diagnostics.json.
#
# Usage: bench/run_benchmarks.sh [build-dir] [extra google-benchmark args...]
#   e.g. bench/run_benchmarks.sh build --benchmark_filter=SparseLu
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
# Default to the Release "bench" preset (build-bench).  Benchmarks from a
# debug or RelWithDebInfo tree measure the wrong thing; perf_simulator
# itself refuses to run non-Release builds when
# NEMSIM_BENCH_REQUIRE_RELEASE=1 (exported below).
build_dir="${1:-$repo_root/build-bench}"
if [[ $# -gt 0 ]]; then shift; fi

bench_bin="$build_dir/bench/perf_simulator"
if [[ ! -x "$bench_bin" && "$build_dir" == "$repo_root/build-bench" ]]; then
  echo "Configuring + building the Release bench preset..." >&2
  cmake --preset bench -S "$repo_root" >&2
  cmake --build --preset bench -j "$(nproc)" >&2
fi
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build first: cmake --preset bench && cmake --build --preset bench -j" >&2
  exit 1
fi

export NEMSIM_BENCH_REQUIRE_RELEASE="${NEMSIM_BENCH_REQUIRE_RELEASE:-1}"

# Correctness gate: refuse to publish performance numbers from an engine
# that disagrees with itself.  The tier-1 fuzz corpus (bitwise contracts
# on pinned seeds) must pass in the same tree that produced the bench
# binary; skip only when the fuzzer was not built (partial builds still
# get kernel numbers, loudly).  Override with NEMSIM_BENCH_SKIP_CHECK=1
# for local experiments that must never be committed.
fuzz_bin="$build_dir/tools/nemsim-fuzz"
if [[ "${NEMSIM_BENCH_SKIP_CHECK:-0}" != "1" ]]; then
  if [[ -x "$fuzz_bin" ]]; then
    echo "Running tier-1 differential-check corpus before publishing..." >&2
    if ! "$fuzz_bin" --seed 1 --count 6 --bitwise-only \
        --out "$build_dir/fuzz_bench_gate" >&2; then
      echo "error: tier-1 differential-check corpus FAILED." >&2
      echo "The engine violates its own redundancy contracts; fix that" >&2
      echo "before recording benchmark numbers (decks under" >&2
      echo "$build_dir/fuzz_bench_gate)." >&2
      exit 1
    fi
  else
    echo "warning: $fuzz_bin not built; publishing WITHOUT the" >&2
    echo "differential-check gate." >&2
  fi
fi

"$bench_bin" \
  --benchmark_out="$repo_root/BENCH_solver.json" \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $repo_root/BENCH_solver.json"

# Per-figure solver diagnostics (each bench re-runs one representative
# instance with a RunReport attached).  Missing binaries are skipped so a
# partial build still produces the kernel numbers above.
for fig in fig10_fanout_sweep fig11_fanin_sweep fig15_sram_latency_leakage; do
  fig_bin="$build_dir/bench/$fig"
  short="${fig%%_*}"  # fig10_fanout_sweep -> fig10
  if [[ -x "$fig_bin" ]]; then
    out="$repo_root/BENCH_${short}_diagnostics.json"
    "$fig_bin" --diagnostics="$out" > /dev/null
    echo "Wrote $out"
  else
    echo "skip: $fig_bin not built" >&2
  fi
done

# Batched Monte-Carlo benchmark: compile-once parameter-bank overlays vs
# rebuild-per-trial on the Figure 14 hybrid butterfly (64 trials).  The
# binary exits nonzero if the batched samples are not bitwise identical
# to the rebuild arm, so a contract break also fails the bench run.
mc_bin="$build_dir/bench/mc_batch_butterfly"
if [[ -x "$mc_bin" ]]; then
  "$mc_bin" "$repo_root/BENCH_mc_batch.json"
else
  echo "skip: $mc_bin not built" >&2
fi
