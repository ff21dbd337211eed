#!/usr/bin/env bash
# Serve-mode smoke test (docs/serving.md).
#
# Drives `finser_cli serve` end to end against a deliberately tiny campaign
# and checks the contracts the serving layer advertises:
#
#   1. A cold server refines misses through the campaign runner, answers a
#      burst of compatible requests with ONE refinement (batching), and
#      persists `response_surface` artifacts.
#   2. Grid answers are byte-identical to the batch pipeline: a server
#      reading a `finser_cli campaign` run's artifact store replies with
#      the exact bytes the cold server computed.
#   3. A warm restart answers purely from cached artifacts: byte-identical
#      replies with zero characterizations and zero surface builds,
#      witnessed by the `stats` op's counters.
#   4. SIGTERM drains cleanly: exit 0, replies flushed, no orphaned *.tmp
#      files in the artifact store.
#   5. Malformed input degrades (exit 6) without stopping the loop, and
#      `artifacts ls` reads the store without mutating it.
#
# Along the way the `stats` replies must carry the serve latency and queue
# figures: the batch-size and flush-latency histograms, the pending-queue
# gauge, and the count of lines that needed the generic JSON parser.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)

set -u

BUILD=${1:-build}
CLI="$BUILD/tools/finser_cli"
if [[ ! -x "$CLI" ]]; then
  echo "serve_smoke: $CLI not built" >&2
  exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/finser_serve_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
unset FINSER_FAULT FINSER_MC_SCALE FINSER_THREADS

FAILURES=0
fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# Tiny campaign: the smoke test checks plumbing and byte contracts, not
# physics. Two grids points per axis keep the refinement under a second.
make_campaign() {
  local path=$1 artdir=$2
  cat > "$path" <<EOF
{
  "campaign": "serve-smoke",
  "seed": 7,
  "artifact_dir": "$artdir",
  "output_dir": "$WORK/batch_out",
  "defaults": {
    "rows": 2, "cols": 2, "vdds": [0.7, 0.8], "pv_samples": 10,
    "strikes": 600, "histories": 600, "species": ["alpha"]
  },
  "scenarios": [{"name": "a"}]
}
EOF
}
make_campaign "$WORK/cold.json" "$WORK/art_cold"
make_campaign "$WORK/batch.json" "$WORK/art_batch"

# A mixed burst: two distinct queries plus a repeat of the first — written in
# one pipe burst, so the server sees all three before it blocks and must
# answer them from a single refinement pass.
REQ1='{"id":1,"op":"pof","species":"alpha","vdd":0.7,"energy_mev":2.0}'
REQ2='{"id":2,"op":"fit","species":"alpha","vdd":0.8,"with_pv":false}'
REQ3='{"id":3,"op":"pof","species":"alpha","vdd":0.7,"energy_mev":2.0}'
STATS='{"id":9,"op":"stats"}'
BYE='{"op":"shutdown"}'

# Counter assertion against a stats reply: a counter that never incremented
# is absent from the snapshot, so "zero" means absent or literally 0.
counter_is_zero() {
  local file=$1 name=$2
  if grep -q "\"$name\":" "$file"; then
    grep -q "\"$name\":0[,}]" "$file"
  fi
}
counter_equals() {
  local file=$1 name=$2 want=$3
  grep -q "\"$name\":$want[,}]" "$file"
}
# Histogram rows read {"count":…,"sum":…,"min":…,"max":…}; gauge rows
# {"value":…,"max":…}.
histogram_count() {
  local file=$1 name=$2 want=$3
  grep -q "\"$name\":{\"count\":$want," "$file"
}
gauge_equals() {
  local file=$1 name=$2 value=$3 max=$4
  grep -q "\"$name\":{\"value\":$value,\"max\":$max}" "$file"
}

# --- phase 1: cold server — miss, batch, refine once, persist ---------------
echo "=== phase 1: cold serve"
printf '%s\n' "$REQ1" "$REQ2" "$REQ3" "$STATS" "$BYE" |
  "$CLI" serve "$WORK/cold.json" --threads 2 > "$WORK/cold.out" 2> "$WORK/cold.err"
[[ $? -eq 0 ]] || fail "cold serve exited non-zero"
[[ $(wc -l < "$WORK/cold.out") -eq 5 ]] || fail "cold serve: expected 5 replies"
head -3 "$WORK/cold.out" > "$WORK/cold.answers"
grep -q '"status":"error"\|"status":"shed"' "$WORK/cold.out" &&
  fail "cold serve degraded unexpectedly"
STATS_LINE="$WORK/cold.stats"
sed -n '4p' "$WORK/cold.out" > "$STATS_LINE"
counter_equals "$STATS_LINE" "serve.refines" 1 ||
  fail "burst was not served by exactly one refinement"
counter_equals "$STATS_LINE" "serve.batches" 1 ||
  fail "burst was not resolved as one batch"
counter_equals "$STATS_LINE" "pipeline.characterizations" 1 ||
  fail "cold serve should characterize exactly once"
grep -q '"serve.batch_requests":{"count":1,"sum":3,' "$STATS_LINE" ||
  fail "stats did not record the burst as one batch of 3 requests"
histogram_count "$STATS_LINE" "serve.flush_refine_ms" 1 ||
  fail "stats did not time the refining batch"
gauge_equals "$STATS_LINE" "serve.pending" 0 3 ||
  fail "stats pending gauge should read 0 now and 3 at most"
counter_is_zero "$STATS_LINE" "serve.generic_parses" ||
  fail "plain request lines went through the generic parser"
# Identical repeated query ⇒ identical reply bytes (ids differ by design).
s1=$(sed -n 1p "$WORK/cold.answers" | sed 's/"id":1,//')
s3=$(sed -n 3p "$WORK/cold.answers" | sed 's/"id":3,//')
[[ "$s1" == "$s3" ]] || fail "repeat query answered with different bytes"
ls "$WORK/art_cold"/response_surface-*.art > /dev/null 2>&1 ||
  fail "cold serve persisted no response_surface artifact"

# --- phase 2: batch campaign, then serve from ITS artifacts -----------------
# The server never simulates here (different process, different store); if
# its replies match phase 1's bytes, serve ≡ batch at grid points.
echo "=== phase 2: batch equivalence"
"$CLI" campaign "$WORK/batch.json" --threads 2 > "$WORK/batch.log" 2>&1 ||
  fail "batch campaign exited non-zero"
printf '%s\n' "$REQ1" "$REQ2" "$REQ3" "$STATS" "$BYE" |
  "$CLI" serve "$WORK/batch.json" --threads 2 > "$WORK/warm_batch.out" 2> /dev/null
[[ $? -eq 0 ]] || fail "batch-warmed serve exited non-zero"
head -3 "$WORK/warm_batch.out" | cmp -s - "$WORK/cold.answers" ||
  fail "serve answers differ from the batch pipeline's surfaces"
sed -n '4p' "$WORK/warm_batch.out" > "$WORK/warm_batch.stats"
counter_is_zero "$WORK/warm_batch.stats" "pipeline.characterizations" ||
  fail "batch-warmed serve ran a characterization"
counter_is_zero "$WORK/warm_batch.stats" "surface.builds" ||
  fail "batch-warmed serve rebuilt a surface"

# --- phase 3: warm restart on the cold server's own store -------------------
echo "=== phase 3: warm restart"
printf '%s\n' "$REQ1" "$REQ2" "$REQ3" "$STATS" "$BYE" |
  "$CLI" serve "$WORK/cold.json" --threads 2 > "$WORK/warm.out" 2> /dev/null
[[ $? -eq 0 ]] || fail "warm serve exited non-zero"
head -3 "$WORK/warm.out" | cmp -s - "$WORK/cold.answers" ||
  fail "warm restart answers differ from the cold run"
sed -n '4p' "$WORK/warm.out" > "$WORK/warm.stats"
counter_is_zero "$WORK/warm.stats" "pipeline.characterizations" ||
  fail "warm restart ran a characterization"
counter_is_zero "$WORK/warm.stats" "surface.builds" ||
  fail "warm restart rebuilt a surface"
counter_equals "$WORK/warm.stats" "surface.artifact_hits" 1 ||
  fail "warm restart did not load the response_surface artifact"
histogram_count "$WORK/warm.stats" "serve.flush_hit_us" '[1-9][0-9]*' ||
  fail "stats did not time the batches answered from cache"

# --- phase 4: SIGTERM drain -------------------------------------------------
echo "=== phase 4: SIGTERM drain"
FIFO="$WORK/serve.fifo"
mkfifo "$FIFO"
"$CLI" serve "$WORK/cold.json" --threads 2 < "$FIFO" > "$WORK/drain.out" \
  2> /dev/null &
SERVE_PID=$!
exec 3> "$FIFO"  # hold the write end open so EOF does not end the loop
echo "$REQ1" >&3
for _ in $(seq 1 100); do
  [[ -s "$WORK/drain.out" ]] && break
  sleep 0.1
done
[[ -s "$WORK/drain.out" ]] || fail "draining server answered nothing"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
status=$?
exec 3>&-
[[ $status -eq 0 ]] || fail "SIGTERM drain exited $status, expected 0"
head -1 "$WORK/drain.out" | cmp -s - <(head -1 "$WORK/cold.answers") ||
  fail "drained server's reply differs from the cold run"
if ls "$WORK/art_cold"/*.tmp > /dev/null 2>&1; then
  fail "SIGTERM drain left orphaned .tmp artifacts"
fi

# --- phase 5: degraded input + read-only inventory --------------------------
echo "=== phase 5: degraded exit + artifacts ls"
printf '%s\n%s\n%s\n' 'this is not json' "$STATS" "$BYE" |
  "$CLI" serve "$WORK/cold.json" --threads 2 > "$WORK/bad.out" 2> /dev/null
[[ $? -eq 6 ]] || fail "malformed request should exit 6 (degraded)"
grep -q '"status":"error"' "$WORK/bad.out" ||
  fail "malformed request got no error reply"
sed -n '2p' "$WORK/bad.out" > "$WORK/bad.stats"
counter_equals "$WORK/bad.stats" "serve.generic_parses" 1 ||
  fail "the malformed line was not counted as a generic parse"
grep -q '"op":"shutdown"' "$WORK/bad.out" ||
  fail "loop stopped serving after a malformed request"
"$CLI" artifacts ls "$WORK/art_cold" > "$WORK/ls.out" ||
  fail "artifacts ls exited non-zero"
grep -q "response_surface" "$WORK/ls.out" ||
  fail "artifacts ls did not list the response_surface entry"
grep -q " 0 bad)" "$WORK/ls.out" || fail "artifacts ls found bad entries"

if [[ $FAILURES -gt 0 ]]; then
  echo "serve_smoke: $FAILURES check(s) failed" >&2
  exit 1
fi
echo "serve_smoke: all checks passed"
