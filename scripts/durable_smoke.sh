#!/usr/bin/env bash
# Durable smoke test: the server and `hullcli replay` agree on a data
# directory after a crash. It starts hullserver with -data and a small
# -checkpoint, ingests past the checkpoint into an adaptive stream and a
# count-windowed stream, kills the server with SIGKILL, replays each
# stream directory offline with hullcli, restarts the server on the same
# directory, and asserts that the pre-crash server, the replay and the
# restarted server all report the same n, diameter and hull area. CI
# runs it after the unit tests; it exercises the real binaries end to
# end.
set -euo pipefail

ADDR=127.0.0.1:18090
BIN=$(mktemp -d)
DATA="$BIN/data"
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$BIN"' EXIT

go build -o "$BIN/hullserver" ./cmd/hullserver
go build -o "$BIN/hullcli" ./cmd/hullcli

start() {
  "$BIN/hullserver" -addr "$ADDR" -data "$DATA" -checkpoint 256 &
  PID=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$ADDR/v1/streams" >/dev/null 2>&1 && return
    sleep 0.1
  done
  echo "FAIL: hullserver did not come up"; exit 1
}

# batch SEED prints one 200-point JSON batch, deterministic per seed.
batch() {
  awk -v s="$1" 'BEGIN { srand(s); printf "{\"points\":[";
    for (i = 0; i < 200; i++) printf "%s[%.4f,%.4f]", (i ? "," : ""), rand() * 100, rand() * 50;
    print "]}" }'
}

# served ID prints the running server's "n diameter area" for a stream.
served() {
  n=$(curl -fsS "http://$ADDR/v1/streams/$1" | sed -n 's/.*"n":\([0-9]*\).*/\1/p')
  d=$(curl -fsS "http://$ADDR/v1/streams/$1/query?type=diameter" | sed -n 's/.*"diameter":\([^,}]*\).*/\1/p')
  a=$(curl -fsS "http://$ADDR/v1/streams/$1/hull" | sed -n 's/.*"area":\([^,}]*\).*/\1/p')
  echo "$n $d $a"
}

# replayed ID prints hullcli replay's "n diameter area" for a stream
# directory.
replayed() {
  out=$("$BIN/hullcli" replay -dir "$DATA/$1" -query diameter,area)
  n=$(echo "$out" | sed -n 's/^points=\([0-9]*\).*/\1/p')
  d=$(echo "$out" | sed -n 's/^diameter=\([^ ]*\) .*/\1/p')
  a=$(echo "$out" | sed -n 's/^area=\([^ ]*\) .*/\1/p')
  echo "$n $d $a"
}

start
curl -fsS -X PUT "http://$ADDR/v1/streams/adaptive" -d '{"kind":"adaptive","r":16}' >/dev/null
curl -fsS -X PUT "http://$ADDR/v1/streams/window" -d '{"kind":"windowed","r":8,"window":"300"}' >/dev/null
# 1000 points per stream: checkpoints at every 256, plus a log tail.
for seed in 1 2 3 4 5; do
  for id in adaptive window; do
    batch "$seed" | curl -fsS -X POST "http://$ADDR/v1/streams/$id/points" -d @- >/dev/null
  done
done

declare -A before
for id in adaptive window; do
  before[$id]=$(served "$id")
  [ -f "$DATA/$id/checkpoint.snap" ] || { echo "FAIL: $id sealed no checkpoint"; exit 1; }
done

kill -9 "$PID"
wait "$PID" 2>/dev/null || true

declare -A replay
for id in adaptive window; do
  replay[$id]=$(replayed "$id")
done

start
for id in adaptive window; do
  after=$(served "$id")
  echo "durable smoke: $id before=[${before[$id]}] replay=[${replay[$id]}] restart=[$after]"
  [[ ${before[$id]} == "1000 "* ]] || { echo "FAIL: $id pre-crash n != 1000"; exit 1; }
  [ "${replay[$id]}" = "${before[$id]}" ] || { echo "FAIL: $id hullcli replay disagrees with the pre-crash server"; exit 1; }
  [ "$after" = "${before[$id]}" ] || { echo "FAIL: $id restarted server disagrees with the pre-crash server"; exit 1; }
done
echo "durable smoke: server and hullcli replay agree after kill -9"
