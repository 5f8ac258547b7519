#!/usr/bin/env bash
# Cascaded fan-in smoke test: three real processes in a leaf → region →
# global topology. The leaf pushes its streams to the region; the region
# pushes its OWN fan-in aggregates upstream (-push-aggregates), so the
# global tier sees the whole region as one source. Also exercises the
# delta wire (steady-state pushes shrink to delta frames on every tier)
# and aggregator-initiated pulls (a source that advertised ?addr= and
# then went quiet gets its snapshot fetched by the region itself).
set -euo pipefail

GLO_ADDR=127.0.0.1:18090
REG_ADDR=127.0.0.1:18091
LEAF_ADDR=127.0.0.1:18092
BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/hullserver" ./cmd/hullserver

"$BIN/hullserver" -addr "$GLO_ADDR" &
"$BIN/hullserver" -addr "$REG_ADDR" \
  -push-to "http://$GLO_ADDR" -push-every 300ms -push-source region1 \
  -push-aggregates -pull-after 700ms &
"$BIN/hullserver" -addr "$LEAF_ADDR" \
  -push-to "http://$REG_ADDR" -push-every 300ms -push-source leaf1 \
  -push-addr "http://$LEAF_ADDR" &

for addr in "$GLO_ADDR" "$REG_ADDR" "$LEAF_ADDR"; do
  for _ in $(seq 1 50); do
    curl -fsS "http://$addr/v1/streams" >/dev/null 2>&1 && break
    sleep 0.1
  done
done

# poll URL PATTERN DESC: retry until the response matches (bounded).
poll() {
  local url=$1 pattern=$2 desc=$3 body=""
  for _ in $(seq 1 50); do
    body=$(curl -fsS "$url" 2>/dev/null || true)
    echo "$body" | grep -Eq "$pattern" && return 0
    sleep 0.2
  done
  echo "FAIL: $desc"; echo "last response: $body"; exit 1
}

# Ingest on the leaf; the snapshot cascades leaf → region → global.
curl -fsS -X POST "http://$LEAF_ADDR/v1/streams/clicks/points" \
  -d '{"points":[[0,0],[4,1],[2,5]]}' >/dev/null

poll "http://$REG_ADDR/v1/streams/clicks" '"source":"leaf1"' \
  "region never saw source leaf1"
poll "http://$REG_ADDR/v1/streams/clicks" '"n":3' \
  "region merged n != 3"
poll "http://$GLO_ADDR/v1/streams/clicks" '"source":"region1"' \
  "global never saw source region1"
poll "http://$GLO_ADDR/v1/streams/clicks" '"n":3' \
  "global merged n != 3"
echo "cascade: leaf points visible at the global tier"

# The region tier's aggregate is kind fanin on BOTH tiers.
curl -fsS "http://$GLO_ADDR/v1/streams/clicks" | grep -q '"kind":"fanin"' \
  || { echo "FAIL: global aggregate not fanin"; exit 1; }

# More leaf points propagate end to end through both hops.
curl -fsS -X POST "http://$LEAF_ADDR/v1/streams/clicks/points" \
  -d '{"points":[[9,9],[-3,2]]}' >/dev/null
poll "http://$GLO_ADDR/v1/streams/clicks" '"n":5' \
  "global merged n != 5 after second leaf ingest"

# The global hull answers queries like any locally-fed stream.
curl -fsS "http://$GLO_ADDR/v1/streams/clicks/query?type=diameter" \
  | grep -q diameter || { echo "FAIL: global diameter query"; exit 1; }

# Delta wire: after the first acked full push, steady-state ticks send
# epoch-ranged delta frames. Both the pusher (leaf, region) and the
# receiving server (region, global) count them.
poll "http://$LEAF_ADDR/metrics" \
  'streamhull_fanin_pusher_delta_pushes_total [1-9]' \
  "leaf pusher never sent a delta frame"
poll "http://$REG_ADDR/metrics" \
  'streamhull_fanin_push_deltas_total [1-9]' \
  "region never accepted a delta frame"
poll "http://$REG_ADDR/metrics" \
  'streamhull_fanin_pusher_delta_pushes_total [1-9]' \
  "region pusher never sent a delta frame upstream"
poll "http://$GLO_ADDR/metrics" \
  'streamhull_fanin_push_deltas_total [1-9]' \
  "global never accepted a delta frame"
echo "cascade: delta frames accepted on both hops"

# The leaf advertised a pull-back address with its pushes; the region's
# source detail records it.
curl -fsS "http://$REG_ADDR/v1/streams/clicks" \
  | grep -q "\"addr\":\"http://$LEAF_ADDR\"" \
  || { echo "FAIL: leaf pull-back addr missing from region detail"; exit 1; }

# Aggregator-initiated pull: register a source that advertises the
# leaf's address but never pushes again. Its lag crosses -pull-after and
# the region fetches the leaf's snapshot itself.
curl -fsS "http://$LEAF_ADDR/v1/streams/clicks/snapshot" > "$BIN/snap.json"
curl -fsS -X POST \
  "http://$REG_ADDR/v1/streams/clicks/snapshot?source=manual&epoch=1&addr=http://$LEAF_ADDR" \
  -H 'Content-Type: application/json' --data-binary @"$BIN/snap.json" >/dev/null
poll "http://$REG_ADDR/v1/streams/clicks" '"pulls":[1-9]' \
  "region never pulled the quiet source"
poll "http://$REG_ADDR/metrics" 'streamhull_fanin_pulls_total [1-9]' \
  "region pull counter did not move"
echo "cascade: region pulled the lagging source itself"

echo "cascade smoke: OK"
