#!/usr/bin/env bash
# Degraded-zone drill for the sharded fleet solver (CI smoke + local
# acceptance run).
#
# 1. Run `shard_drill`: a healthy fleet replan, then an epoch with an
#    injected worker panic (zone 0) and a forced zone timeout (zone 1,
#    stall >> deadline), then clean replans until reconvergence. The
#    binary exits nonzero unless exactly those zones degrade, every
#    epoch's plan passes the fleet invariant check (redlines, feed,
#    power bookkeeping), and the fleet reconverges to the healthy
#    answer.
# 2. Assert the degraded-zone evidence actually appears in the streamed
#    obs trace: panic and timeout counters, at least one fallback
#    counter, and the replan spans.
#
# Usage: scripts/shard_drill.sh [WORKDIR]
# Binaries are taken from target/release (build first).
set -euo pipefail

WORK="${1:-$(mktemp -d /tmp/thermaware-shard-drill.XXXXXX)}"
BIN=target/release
TRACE="$WORK/shard_trace.jsonl"
mkdir -p "$WORK"

echo "== shard drill: worker panic + zone timeout + reconvergence (workdir $WORK) =="
"$BIN/thermaware-exp" shard_drill --trace "$TRACE"

[ -f "$TRACE" ] || { echo "FAIL: drill wrote no trace"; exit 1; }

echo "-- degraded-zone evidence in the streamed trace --"
for needle in shard.zone_panics shard.zone_timeouts shard.degraded_zones shard.replan; do
  grep -q "$needle" "$TRACE" \
    || { echo "FAIL: $needle never appeared in the obs trace"; exit 1; }
done
# At least one fallback rung must have fired for the degraded zones.
grep -Eq "shard\.fallback_(last_good|throttle|all_off)" "$TRACE" \
  || { echo "FAIL: no fallback counter in the obs trace"; exit 1; }

echo "PASS: drill green and degraded-zone evidence present in $TRACE"
