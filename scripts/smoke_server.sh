#!/usr/bin/env bash
# Smoke-test the serving stack end to end: start sherlockd on a random
# port, submit a small application job, poll it to completion, resubmit
# the identical job and assert it is answered from the result cache, then
# scrape /metrics and verify the hit is visible. Drains on SIGTERM, then
# restarts on the same corpus directory and checks the upload survived.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)/sherlockd
CORPUS=$(mktemp -d)
go build -o "$BIN" ./cmd/sherlockd

# start_daemon: boot sherlockd on $CORPUS with a fresh log; sets LOG, PID
# and BASE. The daemon prints "listening on HOST:PORT" once the socket is
# bound.
start_daemon() {
  LOG=$(mktemp)
  "$BIN" -addr 127.0.0.1:0 -workers 2 -rounds 1 -pprof -corpus "$CORPUS" >"$LOG" 2>&1 &
  PID=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^sherlockd: listening on \(.*\)$/\1/p' "$LOG" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "sherlockd never started"; cat "$LOG"; exit 1; }
  BASE="http://$addr"
  echo "smoke: daemon at $BASE"
}

# drain_daemon: SIGTERM the daemon and assert it drains gracefully.
drain_daemon() {
  kill -TERM "$PID"
  for _ in $(seq 1 100); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$PID" 2>/dev/null; then echo "daemon did not drain"; exit 1; fi
  grep -q "drained, bye" "$LOG" || { echo "no graceful-drain message"; cat "$LOG"; exit 1; }
}

start_daemon
trap 'kill "$PID" 2>/dev/null || true' EXIT

curl -fsS "$BASE/healthz" | grep -q '"ok"' || { echo "healthz not ok"; exit 1; }

# wait_done ID WHAT: poll a job until it is done; fail on any other end.
wait_done() {
  local status=""
  for _ in $(seq 1 300); do
    status=$(curl -fsS "$BASE/v1/jobs/$1" | grep -o '"status":"[^"]*"' | cut -d'"' -f4)
    [ "$status" = done ] && return 0
    [ "$status" = failed ] || [ "$status" = canceled ] && { echo "$2 $status"; exit 1; }
    sleep 0.1
  done
  echo "$2 stuck in $status"; exit 1
}

# Profiling handlers are mounted because the daemon was started with
# -pprof (they are absent by default).
curl -fsS "$BASE/debug/pprof/goroutine?debug=1" | grep -q 'goroutine' \
  || { echo "pprof handlers not mounted under -pprof"; exit 1; }

# Cold submission: must be accepted (202) and not served from cache.
COLD=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"app":"App-1"}' "$BASE/v1/jobs")
echo "smoke: cold submit: $COLD"
echo "$COLD" | grep -q '"cached":false' || { echo "cold submit claimed cached"; exit 1; }
ID=$(echo "$COLD" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
KEY=$(echo "$COLD" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$ID" ] && [ -n "$KEY" ] || { echo "no id/key in response"; exit 1; }

wait_done "$ID" job
echo "smoke: job $ID done, key $KEY"

COLD_RESULT=$(curl -fsS "$BASE/v1/results/$KEY")
echo "$COLD_RESULT" | grep -q '"Inferred"' || { echo "result lacks inference payload"; exit 1; }

# Resubmission: identical content must be a cache hit with the same key.
HIT=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"app":"App-1"}' "$BASE/v1/jobs")
echo "smoke: resubmit: $HIT"
echo "$HIT" | grep -q '"cached":true' || { echo "resubmission missed the cache"; exit 1; }
echo "$HIT" | grep -q "\"key\":\"$KEY\"" || { echo "resubmission changed the content key"; exit 1; }
HIT_RESULT=$(curl -fsS "$BASE/v1/results/$KEY")
[ "$COLD_RESULT" = "$HIT_RESULT" ] || { echo "cached result not byte-identical"; exit 1; }

# Metrics reflect the hit, the completed job, and the campaign's pivots.
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^sherlock_cache_hits_total 1$' || { echo "metrics missing cache hit"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -q '^sherlock_jobs_total{status="done"} 1$' || { echo "metrics missing done job"; exit 1; }
echo "$METRICS" | grep -q '^sherlock_lp_pivots_total [1-9]' || { echo "metrics missing LP pivots"; exit 1; }
echo "smoke: metrics ok"

# Static inference: a static_app job computes the run-free report under
# its program-hash content key; a resubmission is a cache hit on the same
# key with a byte-identical result.
SJOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"static_app":"App-1"}' "$BASE/v1/jobs")
echo "smoke: static job: $SJOB"
SID=$(echo "$SJOB" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
SKEY=$(echo "$SJOB" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$SID" ] && [ -n "$SKEY" ] || { echo "no id/key in static job response"; exit 1; }
wait_done "$SID" "static job"
STATIC1=$(curl -fsS "$BASE/v1/results/$SKEY")
echo "$STATIC1" | grep -q '"Inferred"' || { echo "static report lacks inference payload"; exit 1; }
echo "$STATIC1" | grep -q '"program_hash"' || { echo "static report lacks program hash"; exit 1; }
SHIT=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"static_app":"App-1"}' "$BASE/v1/jobs")
echo "$SHIT" | grep -q '"cached":true' || { echo "static resubmit missed the report cache"; exit 1; }
echo "$SHIT" | grep -q "\"key\":\"$SKEY\"" || { echo "static resubmit changed the content key"; exit 1; }
STATIC2=$(curl -fsS "$BASE/v1/results/$SKEY")
[ "$STATIC1" = "$STATIC2" ] || { echo "static report not byte-identical across submissions"; exit 1; }
SBAD=$(curl -s -w ' HTTP%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"static_app":"no-such-app"}' "$BASE/v1/jobs")
case "$SBAD" in
  *'"code":"invalid_argument"'*' HTTP400') ;;
  *) echo "unknown static app not a v1 400 invalid_argument: $SBAD"; exit 1 ;;
esac
# The static report has one way in: the old GET side door is gone.
OLD=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/apps/App-1/static")
[ "$OLD" = 404 ] || { echo "GET /v1/apps/{id}/static answered $OLD, want 404"; exit 1; }
echo "smoke: static report job ok"

# Generated apps: a gen:<seed> campaign submitted in the unified
# {"mode","target"} shape runs like any built-in, and the legacy
# {"app"} spelling of the same job is a cache hit on the same key.
GJOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"mode":"app","target":"gen:42"}' "$BASE/v1/jobs")
echo "smoke: gen job: $GJOB"
GID=$(echo "$GJOB" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
GKEY=$(echo "$GJOB" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$GID" ] && [ -n "$GKEY" ] || { echo "no id/key in gen job response"; exit 1; }
wait_done "$GID" "gen job"
GHIT=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"app":"gen:42"}' "$BASE/v1/jobs")
echo "$GHIT" | grep -q '"cached":true' || { echo "legacy gen resubmit missed the cache"; exit 1; }
echo "$GHIT" | grep -q "\"key\":\"$GKEY\"" || { echo "mode/legacy gen spellings hash differently"; exit 1; }
GSJOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"static_app":"gen:42"}' "$BASE/v1/jobs")
GSID=$(echo "$GSJOB" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
GSKEY=$(echo "$GSJOB" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$GSID" ] && [ -n "$GSKEY" ] || { echo "no id/key in gen static job response"; exit 1; }
wait_done "$GSID" "gen static job"
GSTATIC=$(curl -fsS "$BASE/v1/results/$GSKEY")
echo "$GSTATIC" | grep -q '"program_hash"' || { echo "gen static report lacks program hash"; exit 1; }
echo "smoke: generated app job + unified mode spec ok"

# Errors arrive in the v1 envelope with a machine code.
ERR=$(curl -s "$BASE/v1/jobs/job-999999")
echo "$ERR" | grep -q '"error":{"code":"not_found"' || { echo "404 not in v1 envelope: $ERR"; exit 1; }

# Streaming: create a watch job bound to App-1 BEFORE any trace exists, so
# the upload below is observed live.
WJOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"watch_app":"App-1"}' "$BASE/v1/jobs")
echo "smoke: watch job: $WJOB"
echo "$WJOB" | grep -q '"status":"watching"' || { echo "watch job not watching"; exit 1; }
WID=$(echo "$WJOB" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$WID" ] || { echo "no id in watch job response"; exit 1; }
curl -fsS "$BASE/v1/jobs?status=watching" | grep -q "\"id\":\"$WID\"" \
  || { echo "watch job missing from ?status=watching listing"; exit 1; }

# Trace corpus: upload a captured trace, assert dedup on re-upload, then
# run inference addressed by the corpus key.
TRACES=$(mktemp -d)
go run ./cmd/sherlock capture -traces "$TRACES" -app App-1 >/dev/null
TRACE_FILE=$(ls "$TRACES"/*.jsonl | head -1)

UP1=$(curl -fsS -X POST --data-binary @"$TRACE_FILE" "$BASE/v1/traces")
echo "smoke: upload: $UP1"
echo "$UP1" | grep -q '"dedup":false' || { echo "first upload claimed dedup"; exit 1; }
TKEY=$(echo "$UP1" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$TKEY" ] || { echo "no trace key in upload response"; exit 1; }

UP2=$(curl -fsS -X POST --data-binary @"$TRACE_FILE" "$BASE/v1/traces")
echo "$UP2" | grep -q '"dedup":true' || { echo "re-upload did not dedup"; exit 1; }
echo "$UP2" | grep -q "\"key\":\"$TKEY\"" || { echo "re-upload changed the content key"; exit 1; }
curl -fsS "$BASE/v1/traces" | grep -q '"count":1' || { echo "corpus listing should have exactly one trace"; exit 1; }

CJOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"trace_keys\":[\"$TKEY\"]}" "$BASE/v1/jobs")
echo "smoke: corpus job: $CJOB"
CID=$(echo "$CJOB" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
CKEY=$(echo "$CJOB" | grep -o '"key":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$CID" ] && [ -n "$CKEY" ] || { echo "no id/key in corpus job response"; exit 1; }
wait_done "$CID" "corpus job"
curl -fsS "$BASE/v1/results/$CKEY" | grep -q '"Inferred"' || { echo "corpus result lacks inference payload"; exit 1; }
echo "smoke: corpus upload + inference by key ok"

# The watch job saw the upload: long-poll until it publishes version 1,
# and its content key must be the one-shot corpus job's key — streaming
# and one-shot solves share cache entries.
WVIEW=$(curl -fsS "$BASE/v1/jobs/$WID/watch?after=0&timeout=20")
echo "smoke: watch update: $WVIEW"
echo "$WVIEW" | grep -q '"version":1' || { echo "watch job never published"; exit 1; }
echo "$WVIEW" | grep -q "\"key\":\"$CKEY\"" || { echo "watch key differs from one-shot corpus key"; exit 1; }
curl -fsS "$BASE/v1/results/$CKEY" | grep -q '"Inferred"' || { echo "watch result lacks inference payload"; exit 1; }
echo "smoke: upload-while-watching ok"

# Graceful drain on SIGTERM (with the watch subscription still active).
drain_daemon
echo "smoke: graceful drain ok"

# Restart on the same corpus: the index is rebuilt from the blob tree
# alone, so the upload is still listed, the corpus verifies clean, and no
# separate index file was ever written.
start_daemon
LIST=$(curl -fsS "$BASE/v1/traces")
case "$LIST" in
  *'"count":1'*"\"key\":\"$TKEY\""*) ;;
  *) echo "restarted daemon lost the upload: $LIST"; exit 1 ;;
esac
VERIFY=$(curl -fsS "$BASE/v1/corpus/verify")
case "$VERIFY" in
  *'"clean":true'*) ;;
  *) echo "restarted corpus does not verify clean: $VERIFY"; exit 1 ;;
esac
[ ! -e "$CORPUS/manifest.json" ] || { echo "corpus wrote manifest.json"; exit 1; }
drain_daemon
echo "smoke: restart on the same corpus ok"
echo "smoke: PASS"
