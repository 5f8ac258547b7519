package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

var shardedSpecJSON = json.RawMessage(`{"kind":"sharded","shards":4,"inner":{"kind":"adaptive","r":16}}`)

// TestShardedStreamEndToEnd: a sharded stream created from a spec body
// ingests, answers hull and extremal queries, and reports its full
// nested spec in detail and list responses.
func TestShardedStreamEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	code, resp := do(t, "PUT", ts.URL+"/v1/streams/sh", shardedSpecJSON)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	if specField(resp)["kind"] != "sharded" {
		t.Fatalf("create response spec = %v", resp["spec"])
	}
	pts := workload.Take(workload.Disk(61, geom.Point{}, 1), 4000)
	for i := 0; i < len(pts); i += 250 {
		ingest(t, ts, "sh", pts[i:i+250])
	}
	code, detail := do(t, "GET", ts.URL+"/v1/streams/sh", nil)
	if code != http.StatusOK {
		t.Fatalf("detail: %d %v", code, detail)
	}
	if detail["n"].(float64) != 4000 {
		t.Fatalf("detail n = %v, want 4000", detail["n"])
	}
	spec := detail["spec"].(map[string]any)
	if spec["kind"] != "sharded" || spec["shards"].(float64) != 4 {
		t.Fatalf("detail spec = %v", spec)
	}
	if inner := spec["inner"].(map[string]any); inner["kind"] != "adaptive" || inner["r"].(float64) != 16 {
		t.Fatalf("detail inner spec = %v", spec["inner"])
	}
	code, q := do(t, "GET", ts.URL+"/v1/streams/sh/query?type=diameter", nil)
	if code != http.StatusOK {
		t.Fatalf("diameter: %d %v", code, q)
	}
	if d := q["diameter"].(float64); d < 1.5 || d > 2.05 {
		t.Fatalf("unit-disk diameter = %v", d)
	}
	code, h := do(t, "GET", ts.URL+"/v1/streams/sh/hull", nil)
	if code != http.StatusOK || len(h["vertices"].([]any)) < 3 {
		t.Fatalf("hull: %d %v", code, h)
	}
	// Snapshot travels with the nested spec and restores elsewhere.
	code, snap := do(t, "GET", ts.URL+"/v1/streams/sh/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, snap)
	}
	code, restored := do(t, "POST", ts.URL+"/v1/streams/sh2/snapshot", snap)
	if code != http.StatusCreated {
		t.Fatalf("restore: %d %v", code, restored)
	}
	if restored["n"].(float64) != 4000 || specField(restored)["kind"] != "sharded" {
		t.Fatalf("restored head = %v", restored)
	}
}

// TestShardedConcurrentServerIngest: parallel POSTs to one in-memory
// sharded stream must not race (run under -race) or drop batches — the
// in-memory ingest path deliberately runs outside the stream lock.
func TestShardedConcurrentServerIngest(t *testing.T) {
	ts := newTestServer(t)
	if code, resp := do(t, "PUT", ts.URL+"/v1/streams/conc", shardedSpecJSON); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	pts := workload.Take(workload.Gaussian(62, geom.Point{}, 1), 6400)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b := pts[(w*8+i)*100 : (w*8+i+1)*100]
				body := map[string]any{"points": toPairs(b)}
				if code, resp := do(t, "POST", ts.URL+"/v1/streams/conc/points", body); code != http.StatusOK {
					t.Errorf("ingest: %d %v", code, resp)
					return
				}
			}
		}(w)
	}
	// Concurrent cached reads against the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				do(t, "GET", ts.URL+"/v1/streams/conc/query?type=diameter", nil)
				do(t, "GET", ts.URL+"/v1/streams/conc/hull", nil)
			}
		}()
	}
	wg.Wait()
	_, detail := do(t, "GET", ts.URL+"/v1/streams/conc", nil)
	if n := detail["n"].(float64); n != 6400 {
		t.Fatalf("n = %v after concurrent ingest, want 6400", n)
	}
}

// TestShardedDurableKillRecover: a durable sharded stream survives an
// unclean kill with a bit-identical hull — round-robin dealing replays
// deterministically from the WAL.
func TestShardedDurableKillRecover(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, durableConfig(dir))
	tsA := httptest.NewServer(srvA)

	code, resp := do(t, "PUT", tsA.URL+"/v1/streams/shd", shardedSpecJSON)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	pts := workload.Take(workload.Ellipse(63, 1, 0.4, 0.3), 3000)
	for i := 0; i < len(pts); i += 200 {
		ingest(t, tsA, "shd", pts[i:i+200])
	}
	wantVerts, wantN := hullVertices(t, tsA, "shd")
	tsA.Close() // abandon srvA without Close: simulated kill

	srvB := mustNew(t, durableConfig(dir))
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	defer srvB.Close()
	gotVerts, gotN := hullVertices(t, tsB, "shd")
	if gotN != wantN {
		t.Fatalf("recovered n = %v, want %v", gotN, wantN)
	}
	sameVertices(t, gotVerts, wantVerts)
	_, detail := do(t, "GET", tsB.URL+"/v1/streams/shd", nil)
	spec := detail["spec"].(map[string]any)
	if spec["kind"] != "sharded" || spec["shards"].(float64) != 4 {
		t.Fatalf("recovered spec = %v", spec)
	}
	// The recovered stream keeps ingesting and serving.
	ingest(t, tsB, "shd", pts[:200])
	if code, _ := do(t, "GET", tsB.URL+"/v1/streams/shd/query?type=width", nil); code != http.StatusOK {
		t.Fatal("width query after recovery")
	}
}

// TestQueryValidationErrors: every malformed single-stream query must
// come back as structured 400/404 JSON, never a 200 or a panic.
func TestQueryValidationErrors(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "qv", workload.Take(workload.Disk(64, geom.Point{}, 1), 50))
	cases := []struct {
		name string
		url  string
		code int
	}{
		{"unknown type", "/v1/streams/qv/query?type=volume", http.StatusBadRequest},
		{"empty type", "/v1/streams/qv/query", http.StatusBadRequest},
		{"bad theta", "/v1/streams/qv/query?type=extent&theta=sideways", http.StatusBadRequest},
		{"missing theta", "/v1/streams/qv/query?type=extent", http.StatusBadRequest},
		{"missing stream query", "/v1/streams/ghost/query?type=diameter", http.StatusNotFound},
		{"missing stream hull", "/v1/streams/ghost/hull", http.StatusNotFound},
		{"missing stream detail", "/v1/streams/ghost", http.StatusNotFound},
		{"missing stream snapshot", "/v1/streams/ghost/snapshot", http.StatusNotFound},
	}
	for _, c := range cases {
		code, resp := do(t, "GET", ts.URL+c.url, nil)
		if code != c.code {
			t.Errorf("%s: got %d (%v), want %d", c.name, code, resp, c.code)
			continue
		}
		if _, ok := resp["error"]; !ok {
			t.Errorf("%s: error is not structured JSON: %v", c.name, resp)
		}
	}
}

// TestPairQueryValidationErrors: the pair endpoint's error paths.
func TestPairQueryValidationErrors(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "pva", workload.Take(workload.Disk(65, geom.Point{}, 1), 20))
	ingest(t, ts, "pvb", workload.Take(workload.Disk(66, geom.Pt(5, 0), 1), 20))
	cases := []struct {
		name string
		url  string
		code int
	}{
		{"missing a", "/v1/pairs/query?b=pvb&type=distance", http.StatusBadRequest},
		{"missing both", "/v1/pairs/query?type=distance", http.StatusBadRequest},
		{"unknown a", "/v1/pairs/query?a=ghost&b=pvb&type=distance", http.StatusNotFound},
		{"unknown b", "/v1/pairs/query?a=pva&b=ghost&type=distance", http.StatusNotFound},
		{"unknown type", "/v1/pairs/query?a=pva&b=pvb&type=friendship", http.StatusBadRequest},
		{"empty type", "/v1/pairs/query?a=pva&b=pvb", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, resp := do(t, "GET", ts.URL+c.url, nil)
		if code != c.code {
			t.Errorf("%s: got %d (%v), want %d", c.name, code, resp, c.code)
			continue
		}
		if _, ok := resp["error"]; !ok {
			t.Errorf("%s: error is not structured JSON: %v", c.name, resp)
		}
	}
}

// TestCachedReadsStayFresh: queries served from the epoch cache must
// reflect every acknowledged ingest — cache validity, not staleness.
func TestCachedReadsStayFresh(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "fresh", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	_, q1 := do(t, "GET", ts.URL+"/v1/streams/fresh/query?type=diameter", nil)
	// Repeat query: served from cache, same answer.
	_, q2 := do(t, "GET", ts.URL+"/v1/streams/fresh/query?type=diameter", nil)
	if q1["diameter"] != q2["diameter"] {
		t.Fatalf("repeat query changed: %v vs %v", q1["diameter"], q2["diameter"])
	}
	// A stretching ingest must show up immediately.
	ingest(t, ts, "fresh", []geom.Point{geom.Pt(100, 0)})
	_, q3 := do(t, "GET", ts.URL+"/v1/streams/fresh/query?type=diameter", nil)
	if q3["diameter"].(float64) < 100 {
		t.Fatalf("cached diameter %v ignores the new extreme", q3["diameter"])
	}
	_, h := do(t, "GET", ts.URL+"/v1/streams/fresh/hull", nil)
	if h["n"].(float64) != 4 {
		t.Fatalf("cached hull n = %v, want 4", h["n"])
	}
}
