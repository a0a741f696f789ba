#!/bin/sh
# Checkpoint/resume smoke for `make ci`: run cmd/limscan with
# checkpointing, SIGINT it once the first snapshot lands, resume to
# completion, and require the resumed report to be byte-identical to an
# uninterrupted run's. Exercises the real signal handler and the on-disk
# snapshot, not just the in-process cancellation path the unit tests use.
# The simulator picks its kernel per session: this campaign's packed TS0
# session runs pattern-parallel and its limited-scan sessions
# fault-parallel, so both kernels sit under the interrupted run.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/limscan" ./cmd/limscan

set -- -circuit s298 -la 10 -lb 5 -n 2 -seed 5

"$tmp/limscan" "$@" >"$tmp/straight.out"

ck="$tmp/ck.json"
"$tmp/limscan" "$@" -checkpoint "$ck" >"$tmp/run.out" 2>"$tmp/run.err" &
pid=$!
i=0
while [ ! -f "$ck" ] && kill -0 "$pid" 2>/dev/null && [ "$i" -lt 1000 ]; do
    i=$((i + 1))
    sleep 0.01
done
kill -INT "$pid" 2>/dev/null || true
set +e
wait "$pid"
status=$?
set -e

if [ "$status" -eq 3 ]; then
    echo "checkpoint smoke: interrupted at a snapshot, resuming"
    hops=0
    while :; do
        set +e
        "$tmp/limscan" "$@" -checkpoint "$ck" -resume >"$tmp/run.out" 2>"$tmp/run.err"
        status=$?
        set -e
        if [ "$status" -eq 0 ]; then
            break
        fi
        if [ "$status" -ne 3 ]; then
            cat "$tmp/run.err" >&2
            exit 1
        fi
        hops=$((hops + 1))
        if [ "$hops" -ge 50 ]; then
            echo "checkpoint smoke: resume chain did not converge" >&2
            exit 1
        fi
    done
elif [ "$status" -ne 0 ]; then
    cat "$tmp/run.err" >&2
    exit 1
else
    # The campaign can finish before the signal lands; the comparison
    # below still checks the checkpointed run's report.
    echo "checkpoint smoke: run finished before the signal landed"
fi

cmp "$tmp/straight.out" "$tmp/run.out"
echo "checkpoint smoke: resumed report is byte-identical"
