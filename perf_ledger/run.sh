#!/usr/bin/env bash
# Build finser_cli and the perf_ledger program from this source tree, then
# run perf_ledger with the given arguments. Run from the repository root:
#
#   bash perf_ledger/run.sh --workload cold_campaign --seed 1 --seconds 10 --trace 0
#
# The build goes to $CARGO_TARGET_DIR if set, else .bench_build; build
# output goes to <build>/perf_ledger_build.log, so standard output carries
# only perf_ledger's report (its last line is the JSON result).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "perf_ledger: no finser source tree around $here" >&2
  exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
log="$build/perf_ledger_build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" --target perf_ledger -j "$(nproc)" >>"$log" 2>&1; then
  echo "perf_ledger: build failed; last lines of $log:" >&2
  tail -n 30 "$log" >&2
  exit 1
fi

exec "$build/perf_ledger" "$@"
