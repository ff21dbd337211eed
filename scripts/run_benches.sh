#!/usr/bin/env bash
# Regenerate every paper figure / ablation CSV (bench_out/) and print the
# series. Usage: scripts/run_benches.sh [build-dir [bench-args...]]
# (default build dir: build). Every bench gets the bench-args, e.g.
# `scripts/run_benches.sh build --benchmark_filter=NONE` skips the
# micro-benchmarks.
#
# Fails loudly: a bench that exits non-zero, a bench directory with no
# executables, or an entry that is neither a bench executable nor the build
# system's own (CMakeFiles/, *.cmake, Makefile) each abort the run with the
# offending name — a silently skipped bench looks exactly like a green run
# in CI, which is how missing figures slip through.
set -u
shopt -s nullglob
BUILD="${1:-build}"
if [ $# -gt 0 ]; then shift; fi
if [ ! -d "$BUILD/bench" ]; then
  echo "run_benches: no such bench directory: $BUILD/bench" >&2
  exit 1
fi
ran=0
for b in "$BUILD"/bench/*; do
  case "$(basename "$b")" in CMakeFiles|*.cmake|Makefile) continue ;; esac
  if [ ! -f "$b" ] || [ ! -x "$b" ]; then
    echo "run_benches: not a bench executable: $b" >&2
    exit 1
  fi
  echo "===== $b ====="
  if ! "$b" "$@"; then
    echo "run_benches: bench failed: $b" >&2
    exit 1
  fi
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "run_benches: no bench executables found in $BUILD/bench (build them" \
       "with: cmake --build $BUILD)" >&2
  exit 1
fi
echo "run_benches: $ran benches OK"
