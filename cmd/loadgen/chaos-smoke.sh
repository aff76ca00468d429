#!/usr/bin/env bash
# Compile-farm chaos smoke: a single clean replica sets the throughput
# baseline and answers macc -server byte for byte as a local macc does;
# then three sabotaged replicas serve the same seeded load while
# replica C is killed mid-run. The run must show zero miscompiles, hard
# failures within budget, verified peer hits, traces assembled across
# processes, the split debug surface, and a farm that out-serves the single
# replica.
#
#	go build -o artifacts/maccd ./cmd/maccd
#	go build -o artifacts/loadgen ./cmd/loadgen
#	go build -o artifacts/macc ./cmd/macc
#	go run ./cmd/tables -dump-kernels artifacts/kernels
#	bash cmd/loadgen/chaos-smoke.sh artifacts artifacts
#
# The first argument holds the maccd, loadgen and macc binaries and the
# paper kernels' C sources under kernels/; the second, a fresh directory,
# receives caches, logs and artifacts (caches left from an earlier run would
# warm the replicas). Ports 18080-18082 and 19090 on 127.0.0.1 must be free.
set -euo pipefail

BIN=${1:?usage: chaos-smoke.sh <bin-dir> <out-dir>}
OUT=${2:?usage: chaos-smoke.sh <bin-dir> <out-dir>}
# Replica C is killed once it has handled this many /compile and /run
# requests: about a third of its share of the 600-request run.
KILL_AFTER=60

mkdir -p "$OUT/farm0" "$OUT/farmA" "$OUT/farmB" "$OUT/farmC"
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# handled prints a replica's maccd.requests counter (0 before its first
# request or once it is gone).
handled() {
  curl -sf "http://127.0.0.1:$1/metrics" 2>/dev/null \
    | grep -o '"maccd.requests": *[0-9]*' | grep -o '[0-9]*$' || echo 0
}

# Baseline: a single clean replica under the same offered load.
"$BIN/maccd" -addr 127.0.0.1:18080 -cache-dir "$OUT/farm0" -workers 2 \
  > "$OUT/maccd_single.log" 2>&1 &
BASE=$!
sleep 1
"$BIN/loadgen" -targets http://127.0.0.1:18080 \
  -requests 300 -concurrency 8 -seed 42 \
  -out "$OUT/BENCH_single.json" -label single-replica
# Local and farm compiles must agree: macc -server sends the request that
# a local macc reads its flags through, so the printed RTL, the loop
# reports and the simulated run of two paper kernels are byte-identical,
# under the default flags and at a second point of the paper's grid: with
# -print -reports, with -run, with all three in one call, and with -mem 0,
# which both modes read as 1 MiB. Each kernel's -run hits the compile its
# -print left in the replica's cache. The check runs after the baseline
# load so it does not warm the replica that the baseline measures.
mkdir -p "$OUT/local-vs-farm"
set_no=0
for flags in "" "-machine m88100 -coalesce loads -unroll 4 -regs 8"; do
  set_no=$((set_no + 1))
  for kc in "dotproduct:dotproduct(4096,8192,64)" "convolution:convolution(4096,65536,32,32)"; do
    k=${kc%%:*}
    for mode in print run both mem0; do
      case $mode in
        print) args=(-print -reports) ;;
        run) args=(-run "${kc#*:}") ;;
        both) args=(-print -reports -run "${kc#*:}") ;;
        mem0) args=(-mem 0 -run "${kc#*:}") ;;
      esac
      want="$OUT/local-vs-farm/local_${set_no}_${k}_${mode}.txt"
      got="$OUT/local-vs-farm/farm_${set_no}_${k}_${mode}.txt"
      # shellcheck disable=SC2086 # $flags is a list of flags
      "$BIN/macc" $flags "${args[@]}" "$BIN/kernels/$k.c" > "$want"
      # shellcheck disable=SC2086
      "$BIN/macc" -server http://127.0.0.1:18080 $flags "${args[@]}" "$BIN/kernels/$k.c" > "$got"
      test -s "$want" || { echo "local macc $flags ${args[*]} $k printed nothing"; exit 1; }
      if ! cmp -s "$want" "$got"; then
        echo "macc -server differs from local macc: $flags ${args[*]} $k"
        diff "$want" "$got" | head -20
        exit 1
      fi
    done
  done
done
echo "local and farm compiles match on dotproduct and convolution under two flag sets"
kill -TERM "$BASE"; wait "$BASE" || true

# Farm: three replicas whose peer responses drop, stall, and corrupt, whose
# disk writes fail and crash — all at fixed seeds — with replica C killed
# partway through the run.
# -flight 4096 keeps every trace of the run in the recorder rings, so the
# post-run trace fetch below cannot lose early (cold, slow) traces to FIFO
# eviction.
CHAOS="drop=0.15,delay=0.15,corrupt=0.2,maxdelay=3ms,diskfull=0.05,crashwrite=0.05"
# Replica A also gets the split debug listener: pprof + metrics history +
# flight/farm move to 127.0.0.1:19090, off the production port (the checks
# below exercise both layouts).
"$BIN/maccd" -addr 127.0.0.1:18080 -cache-dir "$OUT/farmA" -workers 2 \
  -peers http://127.0.0.1:18081,http://127.0.0.1:18082 -flight 4096 \
  -debug-addr 127.0.0.1:19090 -metrics-interval 1s \
  -chaos "$CHAOS,seed=100" > "$OUT/maccd_a.log" 2>&1 &
PA=$!
"$BIN/maccd" -addr 127.0.0.1:18081 -cache-dir "$OUT/farmB" -workers 2 \
  -peers http://127.0.0.1:18080,http://127.0.0.1:18082 -flight 4096 \
  -chaos "$CHAOS,seed=101" > "$OUT/maccd_b.log" 2>&1 &
PB=$!
"$BIN/maccd" -addr 127.0.0.1:18082 -cache-dir "$OUT/farmC" -workers 2 \
  -peers http://127.0.0.1:18080,http://127.0.0.1:18081 -flight 4096 \
  -chaos "$CHAOS,seed=102" > "$OUT/maccd_c.log" 2>&1 &
PC=$!
sleep 1
"$BIN/loadgen" \
  -targets http://127.0.0.1:18080,http://127.0.0.1:18081,http://127.0.0.1:18082 \
  -requests 600 -concurrency 8 -seed 42 \
  -out "$OUT/BENCH_service.json" -label 3-replica-chaos -chaos "$CHAOS" &
LG=$!
# The kill keys on replica C's progress, not on a timer: a fixed delay
# either fires after a fast run has ended or before a slow one has warmed
# up, and then no failover is exercised.
killed=""
while kill -0 "$LG" 2>/dev/null; do
  n=$(handled 18082)
  if [ "$n" -ge "$KILL_AFTER" ]; then
    kill -KILL "$PC"
    wait "$PC" 2>/dev/null || true
    killed=$n
    break
  fi
  sleep 0.01
done
wait "$LG"
if [ -z "$killed" ]; then
  echo "replica C handled fewer than $KILL_AFTER requests before loadgen finished: no mid-run kill"
  exit 1
fi
echo "replica C killed mid-run after handling $killed requests"

# Distributed-trace smoke: the artifact's slowest[] entries name trace IDs;
# a surviving replica must assemble each merged trace. Across the set we
# must see the client's attempt spans, a peer lookup, and (for a cold
# compile) optimizer pass spans — the whole request lifecycle, stitched
# from three processes plus the client. The slowest requests can all have
# been served by replica C, whose spans died with it, so one cold compile
# is also taken from replica A's flight recorder and assembled the same
# way; the client's attempt spans must still come from the slowest set.
python3 - "$OUT/BENCH_service.json" <<'PYEOF'
import json, sys, urllib.request
def get(url):
    with urllib.request.urlopen(url, timeout=5) as r:
        return json.load(r)
def assembled(tid):
    for base in ("http://127.0.0.1:18080", "http://127.0.0.1:18081"):
        try:
            spans = get(f"{base}/debug/trace/{tid}?format=spans").get("spans") or []
        except Exception:
            continue
        if spans:
            return spans
    return []
art = json.load(open(sys.argv[1]))
slow = art.get("slowest") or []
assert slow, "BENCH_service.json has no slowest[] trace exemplars"
kinds, fetched = set(), 0
for s in slow:
    spans = assembled(s["trace"])
    if spans:
        fetched += 1
        kinds.update(sp.get("kind", "") for sp in spans)
assert fetched, "no slowest trace retrievable from a live replica"
assert "attempt" in kinds, f"no client attempt spans across slowest traces (saw {sorted(kinds)})"
flight = get("http://127.0.0.1:19090/debug/flight?full=1")
cold = [tid for tid, sps in (flight.get("spans") or {}).items()
        if any(sp.get("kind") == "pass" for sp in sps)]
assert cold, "replica A's flight recorder holds no cold compile"
spans = assembled(cold[0])
assert spans, f"cold-compile trace {cold[0]} not retrievable"
kinds.update(sp.get("kind", "") for sp in spans)
missing = {"attempt", "lookup", "pass"} - kinds
assert not missing, f"span kinds {sorted(missing)} absent across slowest and cold-compile traces (saw {sorted(kinds)})"
print(f"trace smoke ok: {fetched}/{len(slow)} slowest traces and cold compile {cold[0]} fetched, kinds={sorted(kinds)}")
PYEOF
# Split-surface check: replica A's operator endpoints answer on the debug
# listener and are gone from the production one.
curl -sf "http://127.0.0.1:19090/debug/flight?full=1" > "$OUT/flight_a.json"
python3 -m json.tool "$OUT/flight_a.json" > /dev/null
curl -sf "http://127.0.0.1:19090/debug/farm" > "$OUT/farm_dashboard.txt"
if curl -sf "http://127.0.0.1:18080/debug/flight" > /dev/null; then
  echo "/debug/flight still served on the production listener"; exit 1
fi
# Replica B runs the single-listener layout: flight stays on -addr.
curl -sf "http://127.0.0.1:18081/debug/flight" > /dev/null
# Continuous profiling: a 5s CPU profile pulled from the live replica, plus
# the metrics-history ring (1s interval over a multi-second chaos run must
# have accumulated >= 2 snapshots with counter movement).
curl -sf "http://127.0.0.1:19090/debug/pprof/profile?seconds=5" > "$OUT/maccd_cpu.pprof"
test -s "$OUT/maccd_cpu.pprof"
curl -sf "http://127.0.0.1:19090/metrics/history" > "$OUT/metrics_history.json"
python3 - "$OUT/metrics_history.json" <<'PYEOF'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["schema"] == "macc-metrics-history/v1", h["schema"]
samples = h["samples"]
assert len(samples) >= 2, f"only {len(samples)} history snapshots"
moved = any(s.get("counter_deltas") for s in samples)
assert moved, "no counter movement across history snapshots"
print(f"metrics history ok: {len(samples)} snapshots")
PYEOF
kill -TERM "$PA" "$PB" || true
wait "$PA" "$PB" || true
# Gate: zero miscompiles, hard failures within budget (503 shed excluded),
# verified peer hits > 0, and the farm must beat the single replica on
# saturation throughput.
"$BIN/loadgen" -gate "$OUT/BENCH_service.json" \
  -baseline "$OUT/BENCH_single.json" -max-5xx-frac 0.02
