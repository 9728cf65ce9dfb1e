#!/usr/bin/env bash
# Smoke-test the cluster stack end to end with two real sherlockd
# processes: boot a 2-node cluster, upload a trace to node 1 and watch it
# replicate to node 2, compute a job via node 1, assert the same
# submission on node 2 is answered by the cluster cache WITHOUT a second
# compute (byte-identical result), check the cluster info/verify/metrics
# surfaces on both nodes, and finish with a SIGTERM drain of both.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)/sherlockd
LOG1=$(mktemp) LOG2=$(mktemp)
CORPUS1=$(mktemp -d) CORPUS2=$(mktemp -d)
go build -o "$BIN" ./cmd/sherlockd

# Cluster members need fixed addresses known up front (-peers). Pick two
# free ports; retry the whole boot on the rare collision race.
pick_port() {
  python3 - <<'EOF' 2>/dev/null || go run - <<'EOG'
import socket
s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()
EOF
package main
import ("fmt"; "net")
func main() {
  ln, _ := net.Listen("tcp", "127.0.0.1:0")
  fmt.Println(ln.Addr().(*net.TCPAddr).Port)
  ln.Close()
}
EOG
}

PID1="" PID2=""
cleanup() {
  [ -n "$PID1" ] && kill "$PID1" 2>/dev/null || true
  [ -n "$PID2" ] && kill "$PID2" 2>/dev/null || true
}
trap cleanup EXIT

started=false
for attempt in 1 2 3; do
  P1=$(pick_port); P2=$(pick_port)
  [ "$P1" != "$P2" ] || continue
  PEERS="n1=http://127.0.0.1:$P1,n2=http://127.0.0.1:$P2"
  "$BIN" -addr "127.0.0.1:$P1" -node-id n1 -peers "$PEERS" -workers 2 -rounds 1 \
    -corpus "$CORPUS1" -anti-entropy 500ms >"$LOG1" 2>&1 &
  PID1=$!
  "$BIN" -addr "127.0.0.1:$P2" -node-id n2 -peers "$PEERS" -workers 2 -rounds 1 \
    -corpus "$CORPUS2" -anti-entropy 500ms >"$LOG2" 2>&1 &
  PID2=$!
  ok=true
  for log in "$LOG1" "$LOG2"; do
    bound=false
    for _ in $(seq 1 100); do
      grep -q "listening on" "$log" && { bound=true; break; }
      sleep 0.1
    done
    $bound || ok=false
  done
  if $ok; then started=true; break; fi
  cleanup; PID1="" PID2=""
  sleep 0.2
done
$started || { echo "cluster never started"; cat "$LOG1" "$LOG2"; exit 1; }

N1="http://127.0.0.1:$P1"
N2="http://127.0.0.1:$P2"
echo "smoke-cluster: n1 at $N1, n2 at $N2"

# Both nodes serve /v1/cluster/info and see each other as up (give the
# first probe round a moment).
ups() { grep -o '"up":true' | wc -l; }
for _ in $(seq 1 50); do
  I1=$(curl -fsS "$N1/v1/cluster/info")
  I2=$(curl -fsS "$N2/v1/cluster/info")
  echo "$I1" | grep -q '"node":"n1"' && \
  [ "$(echo "$I1" | ups)" -eq 2 ] && [ "$(echo "$I2" | ups)" -eq 2 ] && break
  sleep 0.1
done
echo "$I1" | grep -q '"node":"n1"' || { echo "bad cluster info on n1: $I1"; exit 1; }
[ "$(echo "$I1" | ups)" -eq 2 ] || { echo "n1 does not see both members up: $I1"; exit 1; }
[ "$(echo "$I2" | ups)" -eq 2 ] || { echo "n2 does not see both members up: $I2"; exit 1; }
echo "smoke-cluster: cluster info ok on both nodes"

# Peer liveness is exported as a labeled gauge. Capture the body before
# grepping: under pipefail, `curl | grep -q` fails spuriously when grep
# exits on the first match and curl dies on the closed pipe (exit 23).
M1=$(curl -fsS "$N1/metrics")
echo "$M1" | grep -q '^sherlock_cluster_peer_up{peer="n2"} 1$' \
  || { echo "n1 metrics missing peer_up for n2"; exit 1; }

# Upload one trace to n1 only; replication (fan-out or anti-entropy)
# must land the blob on n2's corpus without n2 ever seeing the upload.
TRACES=$(mktemp -d)
go run ./cmd/sherlock capture -traces "$TRACES" -app App-1 >/dev/null
TRACE_FILE=$(ls "$TRACES"/*.jsonl | head -1)
UP=$(curl -fsS -X POST --data-binary @"$TRACE_FILE" "$N1/v1/traces")
TKEY=$(echo "$UP" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$TKEY" ] || { echo "no trace key: $UP"; exit 1; }
echo "smoke-cluster: uploaded $TKEY to n1"

REPLICATED=false
for _ in $(seq 1 100); do
  if curl -fsS "$N2/v1/traces" | grep -q "$TKEY"; then REPLICATED=true; break; fi
  sleep 0.1
done
$REPLICATED || { echo "blob never replicated to n2"; curl -fsS "$N2/v1/traces"; exit 1; }
echo "smoke-cluster: blob replicated to n2"

# Compute via n1 (n1 either owns the key or proxies to n2 — both are
# cluster paths worth exercising).
run_job() { # base spec-json -> prints "ID KEY" and waits for done
  local base=$1 spec=$2 view id key status
  view=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" "$base/v1/jobs")
  id=$(echo "$view" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
  key=$(echo "$view" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
  [ -n "$id" ] && [ -n "$key" ] || { echo "bad submit response: $view" >&2; return 1; }
  for _ in $(seq 1 300); do
    status=$(curl -fsS "$base/v1/jobs/$id" | grep -o '"status":"[^"]*"' | cut -d'"' -f4)
    [ "$status" = done ] && { echo "$id $key"; return 0; }
    { [ "$status" = failed ] || [ "$status" = canceled ]; } && { echo "job $status" >&2; return 1; }
    sleep 0.1
  done
  echo "job stuck in $status" >&2
  return 1
}
SPEC="{\"trace_keys\":[\"$TKEY\"]}"
read -r _ JKEY <<<"$(run_job "$N1" "$SPEC")"
R1=$(curl -fsS "$N1/v1/results/$JKEY")
echo "$R1" | grep -q '"Inferred"' || { echo "n1 result lacks payload"; exit 1; }
echo "smoke-cluster: job computed, key $JKEY"

# Exactly one compute so far, cluster-wide.
C1=$(curl -fsS "$N1/metrics" | sed -n 's/^sherlock_jobs_computed_total \([0-9]*\)$/\1/p')
C2=$(curl -fsS "$N2/metrics" | sed -n 's/^sherlock_jobs_computed_total \([0-9]*\)$/\1/p')
[ $((${C1:-0} + ${C2:-0})) -eq 1 ] || { echo "cluster computed $C1+$C2 times, want 1"; exit 1; }

# The same submission via n2 must be answered from the cluster cache:
# byte-identical result, still exactly one compute anywhere.
read -r _ JKEY2 <<<"$(run_job "$N2" "$SPEC")"
[ "$JKEY2" = "$JKEY" ] || { echo "content key drift across nodes: $JKEY vs $JKEY2"; exit 1; }
R2=$(curl -fsS "$N2/v1/results/$JKEY")
[ "$R1" = "$R2" ] || { echo "results differ across nodes"; exit 1; }
C1=$(curl -fsS "$N1/metrics" | sed -n 's/^sherlock_jobs_computed_total \([0-9]*\)$/\1/p')
C2=$(curl -fsS "$N2/metrics" | sed -n 's/^sherlock_jobs_computed_total \([0-9]*\)$/\1/p')
[ $((${C1:-0} + ${C2:-0})) -eq 1 ] || { echo "resubmit recomputed: $C1+$C2, want 1"; exit 1; }

# The cross-node serving shows up in the cluster counters on SOME node
# (remote cache hit or proxied job, depending on who owns the key).
CROSS=0
for base in "$N1" "$N2"; do
  for metric in sherlock_cluster_remote_cache_hits_total sherlock_cluster_proxied_jobs_total; do
    v=$(curl -fsS "$base/metrics" | sed -n "s/^$metric \([0-9]*\)$/\1/p")
    CROSS=$((CROSS + ${v:-0}))
  done
done
[ "$CROSS" -ge 1 ] || { echo "no cross-node traffic recorded in metrics"; exit 1; }
echo "smoke-cluster: cross-node cache hit ok (cross-node counter total $CROSS)"

# Corpus integrity: machine-readable verification is clean on both nodes.
for base in "$N1" "$N2"; do
  V=$(curl -fsS "$base/v1/corpus/verify")
  echo "$V" | grep -q '"clean":true' || { echo "corpus verify not clean on $base: $V"; exit 1; }
done
echo "smoke-cluster: corpus verify clean on both nodes"

# Graceful drain of both members.
kill -TERM "$PID1" "$PID2"
for pid in $PID1 $PID2; do
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  kill -0 "$pid" 2>/dev/null && { echo "a node did not drain"; exit 1; }
done
grep -q "drained, bye" "$LOG1" || { echo "n1 no graceful-drain message"; cat "$LOG1"; exit 1; }
grep -q "drained, bye" "$LOG2" || { echo "n2 no graceful-drain message"; cat "$LOG2"; exit 1; }
echo "smoke-cluster: graceful drain ok"
echo "smoke-cluster: PASS"
