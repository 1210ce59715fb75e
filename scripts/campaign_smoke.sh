#!/usr/bin/env bash
# Campaign smoke test: run a tiny-cycle campaign, SIGINT it at ~50%
# completion, then resume and require (a) completion, (b) that the resume
# actually served journal records instead of re-running everything, and
# (c) that the resumed output is byte-identical to an uninterrupted run.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

bin="$workdir/experiments"
go build -o "$bin" ./cmd/experiments

# Serialized jobs, run in catalogue order: table1, table2, fig4, fig12,
# fig14, fig15. All but fig12 are cheap and ignore -cycles; fig12 is
# cycle-bound and runs for most of a second, so the job after the
# half-way point is still in flight when the poll below sends SIGINT,
# however fast the host finishes the cheap ones.
RUN="table1,table2,fig4,fig14,fig15,fig12"
CYCLES=400000
total=6
journal="$workdir/journal.jsonl"

# Reference: uninterrupted run.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 >"$workdir/reference.txt" 2>/dev/null

# Interrupted run: SIGINT once the journal holds half the jobs.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 -grace 30s \
  -journal "$journal" >"$workdir/interrupted.txt" 2>"$workdir/interrupted.err" &
pid=$!
for _ in $(seq 1 300); do
  done_jobs=0
  if [ -f "$journal" ]; then
    done_jobs=$(wc -l <"$journal")
  fi
  if [ "$done_jobs" -ge $((total / 2)) ]; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "campaign-smoke: campaign exited before the interrupt" >&2
    exit 1
  fi
  sleep 0.1
done
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "campaign-smoke: interrupted campaign exited 0; expected a partial run" >&2
  exit 1
fi
recorded=$(wc -l <"$journal")
if [ "$recorded" -ge "$total" ]; then
  echo "campaign-smoke: interrupt landed too late ($recorded/$total jobs done)" >&2
  exit 1
fi
echo "campaign-smoke: interrupted with $recorded/$total jobs journaled (exit $rc)"

# Resume must finish the remainder and serve the recorded half.
"$bin" -run "$RUN" -cycles "$CYCLES" -jobs 1 \
  -journal "$journal" -resume >"$workdir/resumed.txt" 2>"$workdir/resumed.err"
grep -q "resumed $recorded" "$workdir/resumed.err" || {
  echo "campaign-smoke: summary does not report $recorded resumed jobs:" >&2
  cat "$workdir/resumed.err" >&2
  exit 1
}
diff "$workdir/reference.txt" "$workdir/resumed.txt" || {
  echo "campaign-smoke: resumed output differs from the uninterrupted run" >&2
  exit 1
}
echo "campaign-smoke: PASS (resume completed $((total - recorded)) remaining jobs, output identical)"
