#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the experiment service.
#
# Builds ftgcs-serve, boots it on an ephemeral port, submits the same
# example spec twice, and asserts that the second response is a cache hit
# ("cached":"memory") whose payload is byte-identical to the first modulo
# that one marker — the content-addressed dedup/cache guarantee. A spec
# with an infeasible constant must be a 400 that spends no run. Then
# submits a long-horizon spec, cancels it via DELETE, and asserts the
# canceled state, that the canceled ID is not cached, and that the server
# is still live and able to run fresh work afterward. An observability
# leg scrapes /metrics around a submission (run counter moves, queue-wait
# histogram fills, HTTP latency is labeled by route pattern), follows a
# job over SSE until its terminal done event, and fetches its lifecycle
# trace. The first server runs with GOMAXPROCS=2, the 2-vCPU host the
# default two workers would fill, and /metrics must show the P the
# server reserves for serving (ftgcs_go_maxprocs 3). Finally boots a
# store-backed server, runs a whole manifest grid, restarts the process
# on the same -store directory, and asserts the replay is served entirely
# from disk with byte-identical results.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/ftgcs-serve" ./cmd/ftgcs-serve

# boot LOGFILE [extra server flags...] — start a server on an ephemeral
# port, wait for its address line, set $pid and $base.
boot() {
  local log=$1; shift
  "$tmp/ftgcs-serve" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
  pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^ftgcs-serve listening on //p' "$log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server died:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "server never reported its address:"; cat "$log"; exit 1; }
  base="http://$addr"
}

# Pin GOMAXPROCS so the serving-P reservation runs on hosts with more
# CPUs than workers too (where it would leave GOMAXPROCS alone).
GOMAXPROCS=2 boot "$tmp/serve.log"
echo "server up at $base"

curl -fsS "$base/v1/healthz" | grep -q '"status":"ok"'
curl -fsS "$base/v1/registry" | grep -q '"torus"'

req="{\"spec\": $(cat examples/specs/line-quickstart.json)}"

curl -fsS -X POST -d "$req" "$base/v1/experiments?wait=true" >"$tmp/r1.json"
grep -q '"state":"done"' "$tmp/r1.json"
# Fresh work carries no cache-tier marker.
! grep -q '"cached"' "$tmp/r1.json"

curl -fsS -X POST -d "$req" "$base/v1/experiments?wait=true" >"$tmp/r2.json"
grep -q '"state":"done"' "$tmp/r2.json"
grep -q '"cached":"memory"' "$tmp/r2.json" || { echo "second submission was not a cache hit:"; cat "$tmp/r2.json"; exit 1; }

# The responses must agree byte-for-byte once the cache marker is
# normalized: same content-addressed ID, same result bytes.
sed 's/,"cached":"memory"//' "$tmp/r2.json" >"$tmp/r2norm.json"
if ! cmp -s "$tmp/r1.json" "$tmp/r2norm.json"; then
  echo "cache hit was not byte-identical:"
  diff "$tmp/r1.json" "$tmp/r2norm.json" || true
  exit 1
fi

echo "serve smoke OK: second submission was a cache hit with byte-identical result"

# --- Contract leg: a spec validates iff it builds. ---

# ε = 0.7 is outside (0, 1/2): the model cannot build this spec, so it is
# a 400 at POST, not a queued job that fails on a worker and is then
# served as a cached failure.
runs_before=$(curl -fsS "$base/v1/healthz" | sed -n 's/.*"runs":\([0-9]*\).*/\1/p')
bad='{"spec": {"topology": {"name": "line", "size": 2}, "constants": {"eps": 0.7}}}'
code=$(curl -s -o "$tmp/bad.json" -w '%{http_code}' -X POST -d "$bad" "$base/v1/experiments")
[ "$code" = "400" ] || { echo "infeasible spec answered HTTP $code, want 400:"; cat "$tmp/bad.json"; exit 1; }
! grep -q '"retryable"' "$tmp/bad.json" || { echo "infeasible spec marked retryable:"; cat "$tmp/bad.json"; exit 1; }
runs_after=$(curl -fsS "$base/v1/healthz" | sed -n 's/.*"runs":\([0-9]*\).*/\1/p')
[ -n "$runs_before" ] && [ "$runs_before" = "$runs_after" ] || { echo "infeasible spec consumed a run ($runs_before -> $runs_after)"; exit 1; }

echo "serve smoke OK: infeasible spec rejected with 400 before any run"

# --- Cancellation leg: a heavy-but-legal spec must be stoppable. ---

# ~10^5 simulated seconds: minutes of wall clock, impossible to finish
# before the DELETE below lands.
long='{"spec": {"name": "long horizon", "topology": {"name": "line", "size": 3}, "seed": 7, "horizon": {"seconds": 100000}}}'

curl -fsS -X POST -d "$long" "$base/v1/experiments" >"$tmp/c1.json"
id=$(sed -n 's/.*"id":"\(sha256:[0-9a-f]*\)".*/\1/p' "$tmp/c1.json")
[ -n "$id" ] || { echo "no job id in submit response:"; cat "$tmp/c1.json"; exit 1; }

curl -fsS -X DELETE "$base/v1/experiments/$id" >"$tmp/c2.json"
grep -q '"state":"canceled"' "$tmp/c2.json" || { echo "DELETE did not cancel:"; cat "$tmp/c2.json"; exit 1; }

# Canceled work is never cached: the ID is gone.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/experiments/$id")
[ "$code" = "404" ] || { echo "canceled job still resolvable (HTTP $code)"; exit 1; }

# The server is alive, counted the cancellation, and its worker slot is
# free: a fresh spec (new seed ⇒ new content hash) runs to completion.
curl -fsS "$base/v1/healthz" | grep -q '"canceled":1'
req3="{\"spec\": $(sed 's/"seed": 1/"seed": 42/' examples/specs/line-quickstart.json)}"
curl -fsS -X POST -d "$req3" "$base/v1/experiments?wait=true" >"$tmp/c3.json"
grep -q '"state":"done"' "$tmp/c3.json" || { echo "post-cancel submission did not run:"; cat "$tmp/c3.json"; exit 1; }
! grep -q '"cached"' "$tmp/c3.json"
curl -fsS "$base/v1/healthz" | grep -q '"status":"ok"'

echo "serve smoke OK: long-horizon job canceled via DELETE, not cached, server live"

# --- Observability leg: metrics move with work; watch streams to done. ---

curl -fsS "$base/metrics" >"$tmp/metrics1.txt"
grep -q '^# TYPE ftgcs_jobs_runs_total counter' "$tmp/metrics1.txt"
runs1=$(sed -n 's/^ftgcs_jobs_runs_total //p' "$tmp/metrics1.txt")
[ -n "$runs1" ] || { echo "no runs counter in /metrics"; exit 1; }

req5="{\"spec\": $(sed 's/"seed": 1/"seed": 43/' examples/specs/line-quickstart.json)}"
curl -fsS -X POST -d "$req5" "$base/v1/experiments?wait=true" >/dev/null

curl -fsS "$base/metrics" >"$tmp/metrics2.txt"
runs2=$(sed -n 's/^ftgcs_jobs_runs_total //p' "$tmp/metrics2.txt")
[ "$runs2" -gt "$runs1" ] || { echo "runs counter did not move ($runs1 -> $runs2)"; exit 1; }
qw=$(sed -n 's/^ftgcs_jobs_queue_wait_seconds_count //p' "$tmp/metrics2.txt")
[ "${qw:-0}" -gt 0 ] || { echo "queue-wait histogram empty"; exit 1; }
# The middleware labels requests by route pattern, never by raw URL.
grep -q 'route="POST /v1/experiments"' "$tmp/metrics2.txt" || { echo "no HTTP latency sample"; exit 1; }
# Two workers on two Ps: the server reserved a third P for serving.
grep -qx 'ftgcs_jobs_workers 2' "$tmp/metrics2.txt" || { echo "ftgcs_jobs_workers is not 2:"; grep ftgcs_jobs_workers "$tmp/metrics2.txt"; exit 1; }
grep -qx 'ftgcs_go_maxprocs 3' "$tmp/metrics2.txt" || { echo "ftgcs_go_maxprocs is not 3:"; grep ftgcs_go_maxprocs "$tmp/metrics2.txt"; exit 1; }

# Watch a job over SSE: the stream must terminate with a done event
# carrying the terminal state, and the trace endpoint must serve the
# completed lifecycle.
req6="{\"spec\": $(sed 's/"seed": 1/"seed": 44/' examples/specs/line-quickstart.json)}"
curl -fsS -X POST -d "$req6" "$base/v1/experiments" >"$tmp/w1.json"
wid=$(sed -n 's/.*"id":"\(sha256:[0-9a-f]*\)".*/\1/p' "$tmp/w1.json")
[ -n "$wid" ] || { echo "no job id in watch submit:"; cat "$tmp/w1.json"; exit 1; }
curl -fsSN --max-time 60 "$base/v1/experiments/$wid?watch=true" >"$tmp/w2.txt"
grep -q '^event: done' "$tmp/w2.txt" || { echo "watch stream had no done event:"; cat "$tmp/w2.txt"; exit 1; }
tail -3 "$tmp/w2.txt" | grep -q '"state":"done"' || { echo "watch did not end terminal:"; cat "$tmp/w2.txt"; exit 1; }
curl -fsS "$base/v1/experiments/$wid/trace" >"$tmp/w3.json"
grep -q '"name":"submitted"' "$tmp/w3.json" && grep -q '"name":"done"' "$tmp/w3.json" \
  || { echo "trace missing lifecycle spans:"; cat "$tmp/w3.json"; exit 1; }

echo "serve smoke OK: metrics moved with work, serving P reserved, SSE watch ended terminal, trace served"

# --- Persistence leg: a manifest grid must survive a server restart. ---

kill "$pid" && wait "$pid" 2>/dev/null || true
boot "$tmp/serve2.log" -store "$tmp/store"
echo "store-backed server up at $base"
curl -fsS "$base/v1/healthz" | grep -q '"store"'

curl -fsS -X POST -d @examples/manifests/e1-grid.json "$base/v1/manifests?wait=true" >"$tmp/m1.json"
grep -q '"state":"done"' "$tmp/m1.json" || { echo "manifest run did not complete:"; cat "$tmp/m1.json"; exit 1; }
grep -q '"total":9' "$tmp/m1.json"
# The sweep arm is gated on the baseline arm and everything ran fresh.
! grep -q '"cached"' "$tmp/m1.json"

# Keep one job's full result to compare across the restart.
jid=$(grep -o '"id":"sha256:[0-9a-f]*"' "$tmp/m1.json" | tail -1 | cut -d'"' -f4)
curl -fsS "$base/v1/experiments/$jid" >"$tmp/j1.json"

# Graceful shutdown flushes the write-behind store queue.
kill "$pid" && wait "$pid" 2>/dev/null || true
boot "$tmp/serve3.log" -store "$tmp/store"
echo "rebooted on the same store at $base"

curl -fsS -X POST -d @examples/manifests/e1-grid.json "$base/v1/manifests?wait=true" >"$tmp/m2.json"
grep -q '"state":"done"' "$tmp/m2.json" || { echo "manifest replay did not complete:"; cat "$tmp/m2.json"; exit 1; }
grep -q '"fromCache":9' "$tmp/m2.json" || { echo "replay not fully cache-served:"; cat "$tmp/m2.json"; exit 1; }
grep -q '"cached":"disk"' "$tmp/m2.json" || { echo "replay did not touch the disk tier:"; cat "$tmp/m2.json"; exit 1; }
curl -fsS "$base/v1/healthz" | grep -q '"runs":0' || { echo "replay recomputed work"; exit 1; }

# The replayed result is byte-identical modulo the cache-tier marker.
curl -fsS "$base/v1/experiments/$jid" >"$tmp/j2.json"
sed 's/,"cached":"memory"//;s/,"cached":"disk"//' "$tmp/j1.json" >"$tmp/j1norm.json"
sed 's/,"cached":"memory"//;s/,"cached":"disk"//' "$tmp/j2.json" >"$tmp/j2norm.json"
if ! cmp -s "$tmp/j1norm.json" "$tmp/j2norm.json"; then
  echo "restart replay was not byte-identical:"
  diff "$tmp/j1norm.json" "$tmp/j2norm.json" || true
  exit 1
fi

echo "serve smoke OK: manifest grid replayed from disk after restart, byte-identical"

# --- Overload leg: a tiny token bucket must shed load and recover. ---

kill "$pid" && wait "$pid" 2>/dev/null || true
boot "$tmp/serve4.log" -admit-rate 1 -admit-burst 2
echo "admission-limited server up at $base"

# Burst past the 2-token bucket: the first submissions are admitted, then
# the service answers 429 with a Retry-After the client can obey.
saw429=""
for i in $(seq 1 6); do
  reqN="{\"spec\": $(sed "s/\"seed\": 1/\"seed\": 10$i/" examples/specs/line-quickstart.json)}"
  curl -s -D "$tmp/o_hdr" -o "$tmp/o_body" -X POST -d "$reqN" "$base/v1/experiments"
  code=$(head -1 "$tmp/o_hdr" | awk '{print $2}')
  if [ "$code" = "429" ]; then
    saw429=1
    grep -qi '^Retry-After: [0-9]' "$tmp/o_hdr" || { echo "429 without Retry-After:"; cat "$tmp/o_hdr"; exit 1; }
    grep -q '"retryable":true' "$tmp/o_body" || { echo "429 body not marked retryable:"; cat "$tmp/o_body"; exit 1; }
    break
  fi
  case "$code" in 200|202) ;; *) echo "unexpected status $code during burst:"; cat "$tmp/o_body"; exit 1;; esac
done
[ -n "$saw429" ] || { echo "burst of 6 never hit the 2-token bucket"; exit 1; }
curl -fsS "$base/metrics" >"$tmp/o_metrics.txt"
grep -q '^ftgcs_admission_rejected_total' "$tmp/o_metrics.txt" || { echo "rejection not counted in /metrics"; exit 1; }

# Honoring the advertised wait refills the bucket: the same client is
# admitted again and the service still completes work end to end.
retry=$(sed -n 's/^[Rr]etry-[Aa]fter: \([0-9]*\).*/\1/p' "$tmp/o_hdr")
sleep "$((retry + 1))"
reqR="{\"spec\": $(sed 's/"seed": 1/"seed": 201/' examples/specs/line-quickstart.json)}"
curl -fsS -X POST -d "$reqR" "$base/v1/experiments?wait=true" >"$tmp/o_rec.json"
grep -q '"state":"done"' "$tmp/o_rec.json" || { echo "post-backoff submission did not run:"; cat "$tmp/o_rec.json"; exit 1; }
curl -fsS "$base/v1/healthz" | grep -q '"status":"ok"'

echo "serve smoke OK: token bucket shed the burst with 429 + Retry-After, then recovered"
