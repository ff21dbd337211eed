#!/usr/bin/env bash
# Fault-injection matrix for the CLI flow (docs/robustness.md).
#
# Runs `finser_cli run` end to end under every FINSER_FAULT site and requires
# the *documented* degradation for each — warn-and-continue for I/O failures,
# reject-and-regenerate for a corrupted artifact, resume-to-identical-bytes
# after a SIGKILL, a clean exit code 3 (never a crash) when the solver is
# driven past its retry ladder. `run` is a one-scenario campaign with its
# artifact store at <output.dir>/artifacts; the KillResumeHarness ctest
# covers the SIGKILL site in more depth.
#
# Usage: scripts/fault_matrix.sh [build-dir]   (default: build)

set -u

BUILD=${1:-build}
CLI="$BUILD/tools/finser_cli"
if [[ ! -x "$CLI" ]]; then
  echo "fault_matrix: $CLI not built" >&2
  exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/finser_fault_matrix.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# A deliberately tiny campaign: the matrix tests failure *paths*, not physics.
CONFIG="$WORK/tiny.ini"
cat > "$CONFIG" <<EOF
array.rows = 2
array.cols = 2
cell.vdds = 0.8
mc.pv_samples = 10
mc.strikes = 1000
mc.seed = 99
species = alpha
output.dir = $WORK/out
EOF

unset FINSER_FAULT FINSER_MC_SCALE FINSER_THREADS
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

run_cli() {
  local fault=$1
  shift
  echo "=== FINSER_FAULT=${fault:-<none>} $*"
  if [[ -n "$fault" ]]; then
    FINSER_FAULT=$fault "$CLI" "$@" > "$WORK/stdout.log" 2> "$WORK/stderr.log"
  else
    "$CLI" "$@" > "$WORK/stdout.log" 2> "$WORK/stderr.log"
  fi
}

# --- baseline: the tiny campaign must pass cleanly --------------------------
run_cli "" run "$CONFIG" --threads 2
[[ $? -eq 0 ]] || fail "baseline run exited non-zero"
[[ -s "$WORK/out/run/fit_summary.csv" ]] || fail "baseline produced no fit_summary.csv"
cp -r "$WORK/out/run" "$WORK/baseline"

# --- io_write_fail: a failed artifact/checkpoint write degrades to a warning
rm -rf "$WORK/out"
run_cli "io_write_fail:1" run "$CONFIG" --threads 2
[[ $? -eq 0 ]] || fail "io_write_fail run did not warn-and-continue (exit != 0)"
grep -qi "warning" "$WORK/stdout.log" "$WORK/stderr.log" ||
  fail "io_write_fail run emitted no warning"

# --- cache_flip: a corrupted artifact is rejected and regenerated -----------
# The first artifact put lands with one byte flipped; the next run must
# reject it by CRC ("not used") and recompute it, the one after must not.
rm -rf "$WORK/out"
run_cli "cache_flip:40" run "$CONFIG" --threads 2
[[ $? -eq 0 ]] || fail "cache_flip seeding run exited non-zero"
run_cli "" run "$CONFIG" --threads 2
[[ $? -eq 0 ]] || fail "run with corrupted artifact exited non-zero"
grep -q "not used" "$WORK/stderr.log" ||
  fail "corrupted artifact was not rejected + regenerated"
run_cli "" run "$CONFIG" --threads 2
[[ $? -eq 0 ]] || fail "run with regenerated artifact exited non-zero"
grep -q "not used" "$WORK/stderr.log" &&
  fail "regenerated artifact was rejected again"

# --- kill_after_flush: SIGKILL mid-sweep, the rerun resumes -----------------
# The 5th flush or put of a cold run lands after the device LUT, the
# characterization checkpoint, the cell model and two energy bins; the
# process dies by SIGKILL right after it. Rerunning the same command must
# serve the finished bins from the store and write the baseline's bytes.
rm -rf "$WORK/out"
run_cli "kill_after_flush:5" run "$CONFIG" --threads 2
status=$?
[[ $status -eq 137 ]] || fail "kill_after_flush run exited $status, expected SIGKILL (137)"
run_cli "" run "$CONFIG" --threads 2 --metrics-out "$WORK/resume.json"
[[ $? -eq 0 ]] || fail "rerun after SIGKILL exited non-zero"
grep -Eq '"core.bin_cache_hits": [1-9]' "$WORK/resume.json" ||
  fail "rerun after SIGKILL served no energy bin from the store"
for csv in fit_summary.csv pof_alpha.csv; do
  cmp -s "$WORK/baseline/$csv" "$WORK/out/run/$csv" ||
    fail "rerun after SIGKILL: $csv differs from the baseline run"
done

# --- newton_diverge saturation: exit code 3, never a crash ------------------
# Making *every* strike transient diverge must trip the failure-fraction gate
# and exit with the documented code 3.
rm -rf "$WORK/out"
run_cli "newton_diverge:1:1000000000" run "$CONFIG" --threads 2
status=$?
[[ $status -eq 3 ]] ||
  fail "saturated newton_diverge exited $status, expected 3"
grep -qi "numerical failure" "$WORK/stderr.log" ||
  fail "saturated newton_diverge did not report a numerical failure"

# --- sharded campaign sites (docs/sharding.md) ------------------------------
# A tiny two-scenario campaign driven through `campaign --workers`; the
# supervisor must absorb each documented shard failure and still exit 0 with
# complete outputs. (FINSER_FAULT reaches the initial workers through the
# environment; replacement workers are spawned with it stripped.)
CAMPAIGN="$WORK/tiny_campaign.json"
cat > "$CAMPAIGN" <<EOF
{
  "campaign": "fault-matrix",
  "seed": 5,
  "output_dir": "$WORK/shard_out",
  "defaults": {
    "rows": 2, "cols": 2, "vdds": [0.8], "pv_samples": 10,
    "strikes": 600, "histories": 600, "species": ["alpha"]
  },
  "scenarios": [{"name": "a"}, {"name": "b", "pattern": "zeros"}]
}
EOF

# worker_kill_after_claim: every initial worker SIGKILLs itself right after
# acking its first stage; replacements must finish the campaign.
rm -rf "$WORK/shard_out"
run_cli "worker_kill_after_claim:1" campaign "$CAMPAIGN" --workers 2
[[ $? -eq 0 ]] || fail "worker_kill_after_claim campaign exited non-zero"
[[ -s "$WORK/shard_out/a/fit_summary.csv" && -s "$WORK/shard_out/b/fit_summary.csv" ]] ||
  fail "worker_kill_after_claim campaign left outputs incomplete"

# lease_torn: the supervisor's first lease write is torn mid-file; the
# half-written record must read as reclaimable, not crash the run.
rm -rf "$WORK/shard_out"
run_cli "lease_torn:1" campaign "$CAMPAIGN" --workers 1
[[ $? -eq 0 ]] || fail "lease_torn campaign exited non-zero"
[[ -s "$WORK/shard_out/a/fit_summary.csv" ]] ||
  fail "lease_torn campaign left outputs incomplete"

# heartbeat_stall: the initial worker stops heartbeating and wedges; with a
# 1 s heartbeat timeout the supervisor must kill + replace it and finish.
rm -rf "$WORK/shard_out"
run_cli "heartbeat_stall:1" campaign "$CAMPAIGN" --workers 1 \
  --heartbeat-timeout-s 1
[[ $? -eq 0 ]] || fail "heartbeat_stall campaign exited non-zero"
[[ -s "$WORK/shard_out/a/fit_summary.csv" && -s "$WORK/shard_out/b/fit_summary.csv" ]] ||
  fail "heartbeat_stall campaign left outputs incomplete"

if [[ $FAILURES -gt 0 ]]; then
  echo "fault matrix: $FAILURES check(s) failed" >&2
  exit 1
fi
echo "fault matrix: all checks passed"
