#!/usr/bin/env bash
# Kill-under-load drill for the scheduling service (CI smoke + local
# acceptance run).
#
# 1. Start `thermaware-serve` with chaos-injected solver failures so
#    the circuit breaker exercises its open/half-open ladder.
# 2. Drive a surge (>= 100k task arrivals) through `thermaware-loadgen`
#    with client chaos, writing the id ledger to a report.
#    Mid-load, fault the daemon's floor (a node dies) over the socket.
# 3. `kill -9` the daemon mid-load.
# 4. Restart it on the same directory (journal replay, no re-solving)
#    and run `--verify-against` the report: every acked batch must
#    answer duplicate=true — nothing admitted is lost, nothing is
#    admitted twice. The resumed daemon's floor must still hold the
#    dead node: the fault was journaled with its epoch before its ack.
# 5. Assert the breaker transitions actually appear in the obs trace.
#
# Usage: scripts/service_drill.sh [WORKDIR]
# Binaries are taken from target/release (build first).
set -euo pipefail

WORK="${1:-$(mktemp -d /tmp/thermaware-drill.XXXXXX)}"
BIN=target/release
SOCK="$WORK/serve.sock"
DIR="$WORK/state"
REPORT="$WORK/loadgen_report.json"
MIN_ARRIVALS=100000
mkdir -p "$WORK"

serve() { # serve TRACE_PATH
  # A SIGKILLed daemon leaves its socket file behind; remove it so the
  # readiness probe below sees the *new* daemon's bind, not the corpse.
  rm -f "$SOCK"
  "$BIN/thermaware-serve" \
    --dir "$DIR" --socket "$SOCK" \
    --epoch-wall-ms 20 --queue-capacity 512 \
    --solve-timeout-ms 500 --min-replan-gap 2 --drift-threshold 0.1 \
    --breaker-threshold 2 --breaker-cooldown 2 \
    --chaos-solver-rate 0.7 --chaos-seed 42 \
    --flush-every 8 --snapshot-interval 32 \
    --trace "$1" 2>"$1.stderr" &
  SERVER_PID=$!
  for _ in $(seq 1 200); do [ -S "$SOCK" ] && break; sleep 0.05; done
  # A daemon that cannot resume says why on stderr (`resume failed: …`)
  # and exits before binding: show that, not just the missing socket.
  [ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK; its stderr:"; cat "$1.stderr"; exit 1; }
}

json_field() { # json_field FILE KEY -> integer value
  grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2
}

echo "== drill: surge + SIGKILL + resume + verify (workdir $WORK) =="
serve "$WORK/trace1.jsonl"
FIRST_PID=$SERVER_PID

# Surge load: base 250 batches/s, 3x surge in the middle, 64 tasks per
# batch, a dash of client chaos. The SIGKILL lands mid-surge.
"$BIN/thermaware-loadgen" --socket "$SOCK" \
  --schedule surge:250:750:2:4 --duration-s 8 \
  --connections 32 --batch-tasks 64 \
  --disconnect-rate 0.02 --malformed-rate 0.01 --slowloris-rate 0.01 \
  --seed 7 --report "$REPORT" &
LOADGEN_PID=$!

sleep 1
echo "-- fault the floor: node 0 dies --"
"$BIN/thermaware-loadgen" --socket "$SOCK" \
  --request '{"type":"fault","fault":{"kind":"node_death","node":0}}' | grep -q '"type":"fault_accepted"' \
  || { echo "FAIL: the daemon did not accept the fault"; exit 1; }
"$BIN/thermaware-loadgen" --socket "$SOCK" \
  --request '{"type":"fault","fault":{"kind":"node_death","node":4096}}' 2>/dev/null \
  && { echo "FAIL: the daemon accepted a fault naming a node it does not have"; exit 1; }

sleep 3
echo "-- kill -9 the daemon mid-surge --"
kill -9 "$FIRST_PID"
wait "$FIRST_PID" 2>/dev/null || true

# The loadgen rides out the outage, counting io errors and in-doubt ids.
wait "$LOADGEN_PID" || true
[ -f "$REPORT" ] || { echo "FAIL: loadgen wrote no report"; exit 1; }

SENT=$(json_field "$REPORT" sent_tasks)
ACKED=$(json_field "$REPORT" acked)
echo "-- offered $SENT task(s), $ACKED acked batch(es) before/around the kill --"
[ "$SENT" -ge "$MIN_ARRIVALS" ] || { echo "FAIL: surge offered $SENT < $MIN_ARRIVALS arrivals"; exit 1; }
[ "$ACKED" -gt 0 ] || { echo "FAIL: nothing acked before the kill"; exit 1; }

echo "-- restart on the same directory (journal replay) --"
serve "$WORK/trace2.jsonl"
SECOND_PID=$SERVER_PID

"$BIN/thermaware-loadgen" --socket "$SOCK" --verify-against "$REPORT" \
  || { echo "FAIL: verify lost admitted work; daemon stderr:"; cat "$WORK/trace2.jsonl.stderr"; kill -9 "$SECOND_PID"; exit 1; }

STATS=$("$BIN/thermaware-loadgen" --socket "$SOCK" --request '{"type":"stats"}')
echo "$STATS" | grep -q '"dead_nodes":[1-9]' \
  || { echo "FAIL: the resumed daemon lost the fault; stats: $STATS"; kill -9 "$SECOND_PID"; exit 1; }

kill -9 "$SECOND_PID" 2>/dev/null || true
wait "$SECOND_PID" 2>/dev/null || true

# The SIGKILLed daemon's trace must still show the breaker ladder:
# transitions are streamed as span lines and flushed every epoch.
echo "-- breaker transitions in the (killed) daemon's trace --"
for span in service.breaker_to_open service.breaker_to_half_open; do
  grep -q "$span" "$WORK"/trace1*.jsonl \
    || { echo "FAIL: $span never appeared in the obs trace"; exit 1; }
done

echo "PASS: $SENT arrivals surged, daemon SIGKILLed and resumed, no acked batch lost, floor fault kept, breaker ladder visible"
