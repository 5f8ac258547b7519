#!/usr/bin/env bash
# Fan-in smoke test: start an aggregator and one follower, ingest on the
# follower, let the push loop run once, and assert the aggregator serves
# the merged stream. CI runs this after the unit tests; it exercises the
# real binaries end to end (two processes, real HTTP, real JSON).
set -euo pipefail

AGG_ADDR=127.0.0.1:18080
FOL_ADDR=127.0.0.1:18081
BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/hullserver" ./cmd/hullserver
go build -o "$BIN/hullcli" ./cmd/hullcli

"$BIN/hullserver" -addr "$AGG_ADDR" &
"$BIN/hullserver" -addr "$FOL_ADDR" \
  -push-to "http://$AGG_ADDR" -push-every 300ms -push-source node1 &

# Wait for both listeners.
for addr in "$AGG_ADDR" "$FOL_ADDR"; do
  for _ in $(seq 1 50); do
    curl -fsS "http://$addr/v1/streams" >/dev/null 2>&1 && break
    sleep 0.1
  done
done

# Ingest on the follower; the push loop forwards the snapshot upstream.
curl -fsS -X POST "http://$FOL_ADDR/v1/streams/clicks/points" \
  -d '{"points":[[0,0],[4,1],[2,5]]}' >/dev/null
sleep 1

detail=$(curl -fsS "http://$AGG_ADDR/v1/streams/clicks")
echo "aggregator detail: $detail"
echo "$detail" | grep -q '"kind":"fanin"' || { echo "FAIL: aggregate not fanin"; exit 1; }
echo "$detail" | grep -q '"n":3' || { echo "FAIL: merged n != 3"; exit 1; }
echo "$detail" | grep -q '"source":"node1"' || { echo "FAIL: source node1 missing"; exit 1; }

# A second source via the one-shot CLI pusher.
printf '9,9\n8,8\n' | "$BIN/hullcli" push \
  -to "http://$AGG_ADDR" -stream clicks -source node2 -spec '{"kind":"adaptive","r":16}'
detail=$(curl -fsS "http://$AGG_ADDR/v1/streams/clicks")
echo "aggregator detail: $detail"
echo "$detail" | grep -q '"n":5' || { echo "FAIL: merged n != 5 after CLI push"; exit 1; }
echo "$detail" | grep -q '"source":"node2"' || { echo "FAIL: source node2 missing"; exit 1; }

# The merged hull answers queries like any other stream.
curl -fsS "http://$AGG_ADDR/v1/streams/clicks/query?type=diameter" | grep -q diameter \
  || { echo "FAIL: aggregate diameter query"; exit 1; }

# Observability plane: both processes serve health probes and a /metrics
# page whose counters moved with the traffic above.
curl -fsS "http://$AGG_ADDR/healthz" >/dev/null || { echo "FAIL: healthz"; exit 1; }
curl -fsS "http://$AGG_ADDR/readyz"  >/dev/null || { echo "FAIL: readyz"; exit 1; }

agg_metrics=$(curl -fsS "http://$AGG_ADDR/metrics")
echo "$agg_metrics" | grep -q 'streamhull_fanin_pushes_accepted_total [1-9]' \
  || { echo "FAIL: aggregator accepted-push counter did not move"; exit 1; }
echo "$agg_metrics" | grep -Eq 'streamhull_http_request_seconds_count\{endpoint="snapshot_post"\} [1-9]' \
  || { echo "FAIL: aggregator push-latency histogram did not move"; exit 1; }
echo "$agg_metrics" | grep -q 'streamhull_tenant_streams{tenant=""} 1' \
  || { echo "FAIL: aggregator tenant stream gauge"; exit 1; }

fol_metrics=$(curl -fsS "http://$FOL_ADDR/metrics")
echo "$fol_metrics" | grep -q 'streamhull_ingest_points_total{tenant=""} 3' \
  || { echo "FAIL: follower ingest counter != 3"; exit 1; }
echo "$fol_metrics" | grep -q 'streamhull_fanin_pusher_pushes_total [1-9]' \
  || { echo "FAIL: follower pusher counter did not move"; exit 1; }

# Distributed tracing: the follower's fanin.push span propagates its
# traceparent with the snapshot POST, so the same trace id shows up in
# both processes' /debug/traces rings — the aggregator's half recorded
# against the snapshot_post endpoint. (Both servers run open-access
# here, so the debug routes need no token.)
push_id=$(curl -fsS "http://$FOL_ADDR/debug/traces" \
  | sed -n 's/.*"trace_id":"\([0-9a-f]\{32\}\)","name":"fanin.push".*/\1/p' | head -n1)
[ -n "$push_id" ] || { echo "FAIL: follower recorded no fanin.push trace"; exit 1; }
curl -fsS "http://$AGG_ADDR/debug/traces" \
  | grep -q "\"trace_id\":\"$push_id\",\"name\":\"snapshot_post\"" \
  || { echo "FAIL: push trace $push_id missing from the aggregator's ring"; exit 1; }
echo "distributed push trace $push_id recorded on both processes"

# Authenticated leg: with -auth-tokens an anonymous push is rejected and
# the aggregate is untouched; the right token still lands.
AUTH_ADDR=127.0.0.1:18082
"$BIN/hullserver" -addr "$AUTH_ADDR" \
  -auth-tokens 'admin-tok=acme:all;push-tok=acme:push' &
for _ in $(seq 1 50); do
  curl -fsS "http://$AUTH_ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

printf '1,1\n2,2\n' | "$BIN/hullcli" push \
  -to "http://$AUTH_ADDR" -token push-tok -stream clicks -source node3 -spec '{"kind":"adaptive","r":16}' \
  || { echo "FAIL: authorized CLI push"; exit 1; }
if printf '3,3\n' | "$BIN/hullcli" push \
  -to "http://$AUTH_ADDR" -stream clicks -source rogue -spec '{"kind":"adaptive","r":16}' 2>/dev/null; then
  echo "FAIL: anonymous push accepted by authenticated server"; exit 1
fi
detail=$(curl -fsS -H 'Authorization: Bearer admin-tok' "http://$AUTH_ADDR/v1/streams/clicks")
echo "authed aggregator detail: $detail"
echo "$detail" | grep -q '"n":2' || { echo "FAIL: authed merged n != 2"; exit 1; }
echo "$detail" | grep -q '"source":"rogue"' && { echo "FAIL: rejected source visible"; exit 1; }

# On an authenticated server the debug plane is gated like the write
# routes: anonymous scrapes bounce.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$AUTH_ADDR/debug/traces")
[ "$code" = 401 ] || { echo "FAIL: /debug/traces open on authed server (got $code)"; exit 1; }

echo "fan-in smoke: OK"
