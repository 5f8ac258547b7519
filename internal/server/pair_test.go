package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// createWithSpec creates a stream from a spec JSON document.
func createWithSpec(t *testing.T, ts *httptest.Server, id, spec string) {
	t.Helper()
	req, err := http.NewRequest("PUT", ts.URL+"/v1/streams/"+id, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating %q with %s: %d", id, spec, resp.StatusCode)
	}
}

// TestPairQueryEmptyStreams is the regression test for the empty-hull
// bug: pair queries against a stream with no live points used to hand a
// zero-vertex hull to the geometry kernels and return a garbage [0,0]
// witness pair. They must now answer 409 with the offending ids.
func TestPairQueryEmptyStreams(t *testing.T) {
	ts := newTestServer(t)
	// "full" has points; "hollow" was created but never written.
	ingest(t, ts, "full", workload.Take(workload.Disk(1, geom.Pt(0, 0), 1), 100))
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/hollow", specBody(`{"kind":"adaptive","r":8}`)); code != http.StatusCreated {
		t.Fatal("create hollow")
	}
	for _, qt := range []string{"distance", "separable", "overlap", "contains"} {
		code, resp := do(t, "GET", ts.URL+"/v1/pairs/query?a=full&b=hollow&type="+qt, nil)
		if code != http.StatusConflict {
			t.Errorf("%s vs empty: code %d %v, want 409", qt, code, resp)
			continue
		}
		empties, ok := resp["empty"].([]any)
		if !ok || len(empties) != 1 || empties[0] != "hollow" {
			t.Errorf("%s: empty = %v, want [hollow]", qt, resp["empty"])
		}
		if _, hasPair := resp["pair"]; hasPair {
			t.Errorf("%s: response still fabricates a witness pair: %v", qt, resp)
		}
	}
	// Both sides empty: both ids reported.
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/hollow2", specBody(`{"kind":"adaptive","r":8}`)); code != http.StatusCreated {
		t.Fatal("create hollow2")
	}
	code, resp := do(t, "GET", ts.URL+"/v1/pairs/query?a=hollow&b=hollow2&type=distance", nil)
	if code != http.StatusConflict {
		t.Fatalf("both empty: %d", code)
	}
	if empties := resp["empty"].([]any); len(empties) != 2 {
		t.Errorf("both empty: empty = %v", empties)
	}
}

// TestPairQueryJustExpiredWindow: a time-windowed stream whose points
// all aged out is empty again — pair queries must 409, not fabricate
// answers from a stale hull.
func TestPairQueryJustExpiredWindow(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16, SweepInterval: 10 * time.Millisecond})
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	createWithSpec(t, ts, "recent", `{"kind":"windowed","r":8,"window":"40ms"}`)
	ingest(t, ts, "steady", workload.Take(workload.Disk(2, geom.Pt(0, 0), 1), 50))
	ingest(t, ts, "recent", []geom.Point{geom.Pt(5, 5), geom.Pt(6, 5), geom.Pt(5, 6)})

	// Inside the window the pair answers normally.
	code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=steady&b=recent&type=distance", nil)
	if code != http.StatusOK {
		t.Fatalf("pre-expiry distance: %d", code)
	}
	time.Sleep(80 * time.Millisecond) // let the window drain
	code, resp := do(t, "GET", ts.URL+"/v1/pairs/query?a=steady&b=recent&type=distance", nil)
	if code != http.StatusConflict {
		t.Fatalf("post-expiry distance: %d %v, want 409", code, resp)
	}
	if empties := resp["empty"].([]any); len(empties) != 1 || empties[0] != "recent" {
		t.Errorf("post-expiry empty = %v", resp["empty"])
	}
}

// TestPairQueryAcrossKinds drives every pair endpoint type across the
// adaptive × sharded × windowed kind matrix, plus single-point streams:
// the answers must be consistent regardless of which summary kind backs
// each side.
func TestPairQueryAcrossKinds(t *testing.T) {
	specs := map[string]string{
		"adaptive": `{"kind":"adaptive","r":16}`,
		"sharded":  `{"kind":"sharded","shards":3,"inner":{"kind":"adaptive","r":16}}`,
		"windowed": `{"kind":"windowed","r":16,"window":"100000"}`,
	}
	// Two well-separated unit disks: distance ≈ 8 (between x=1 and x=9),
	// separable, no overlap, no containment.
	left := workload.Take(workload.Disk(3, geom.Pt(0, 0), 1), 400)
	right := workload.Take(workload.Disk(4, geom.Pt(10, 0), 1), 400)

	for ak, aspec := range specs {
		for bk, bspec := range specs {
			t.Run(ak+"_vs_"+bk, func(t *testing.T) {
				ts := newTestServer(t)
				createWithSpec(t, ts, "a", aspec)
				createWithSpec(t, ts, "b", bspec)
				ingest(t, ts, "a", left)
				ingest(t, ts, "b", right)

				code, resp := do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=distance", nil)
				if code != http.StatusOK {
					t.Fatalf("distance: %d %v", code, resp)
				}
				d := resp["distance"].(float64)
				if d < 7 || d > 9 {
					t.Errorf("distance = %g, want ≈8", d)
				}
				pair := resp["pair"].([]any)
				if len(pair) != 2 {
					t.Fatalf("witness pair = %v", pair)
				}

				code, resp = do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=separable", nil)
				if code != http.StatusOK || resp["separable"] != true {
					t.Errorf("separable: %d %v", code, resp)
				}
				if _, ok := resp["line"]; !ok {
					t.Error("separable without a certificate line")
				}

				code, resp = do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=overlap", nil)
				if code != http.StatusOK || resp["overlap_area"].(float64) != 0 {
					t.Errorf("overlap: %d %v", code, resp)
				}

				code, resp = do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=contains", nil)
				if code != http.StatusOK || resp["a_contains_b"] != false || resp["b_contains_a"] != false {
					t.Errorf("contains: %d %v", code, resp)
				}
			})
		}
	}

	t.Run("single_point_sides", func(t *testing.T) {
		ts := newTestServer(t)
		createWithSpec(t, ts, "dot", specs["adaptive"])
		createWithSpec(t, ts, "blob", specs["sharded"])
		ingest(t, ts, "dot", []geom.Point{geom.Pt(20, 0)})
		ingest(t, ts, "blob", left)
		code, resp := do(t, "GET", ts.URL+"/v1/pairs/query?a=dot&b=blob&type=distance", nil)
		if code != http.StatusOK {
			t.Fatalf("single-point distance: %d %v", code, resp)
		}
		if d := resp["distance"].(float64); d < 18 || d > 20 {
			t.Errorf("single-point distance = %g, want ≈19", d)
		}
		// Two single-point streams.
		createWithSpec(t, ts, "dot2", specs["windowed"])
		ingest(t, ts, "dot2", []geom.Point{geom.Pt(20, 3)})
		code, resp = do(t, "GET", ts.URL+"/v1/pairs/query?a=dot&b=dot2&type=distance", nil)
		if code != http.StatusOK {
			t.Fatalf("point-vs-point distance: %d %v", code, resp)
		}
		if d := resp["distance"].(float64); d < 2.99 || d > 3.01 {
			t.Errorf("point-vs-point distance = %g, want 3", d)
		}
		code, resp = do(t, "GET", ts.URL+"/v1/pairs/query?a=blob&b=dot&type=contains", nil)
		if code != http.StatusOK || resp["a_contains_b"] != false {
			t.Errorf("contains with point side: %d %v", code, resp)
		}
	})
}

// TestPairQueryMemoization exercises the (epochA, epochB) cache
// directly: a repeat query is served from the cache, an ingest on either
// side invalidates it, and the invalidated entry is replaced (not
// duplicated).
func TestPairQueryMemoization(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16})
	handler := func(method, url string, body []byte) (int, map[string]any) {
		req := httptest.NewRequest(method, url, nil)
		if body != nil {
			req = httptest.NewRequest(method, url, strings.NewReader(string(body)))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var out map[string]any
		_ = json.NewDecoder(rec.Body).Decode(&out)
		return rec.Code, out
	}
	ing := func(id string, pts ...[2]float64) {
		body, _ := json.Marshal(map[string]any{"points": pts})
		if code, resp := handler("POST", "/v1/streams/"+id+"/points", body); code != http.StatusOK {
			t.Fatalf("ingest: %d %v", code, resp)
		}
	}
	ing("a", [2]float64{0, 0}, [2]float64{1, 0}, [2]float64{0, 1})
	ing("b", [2]float64{5, 0}, [2]float64{6, 0}, [2]float64{5, 1})

	query := func() float64 {
		code, resp := handler("GET", "/v1/pairs/query?a=a&b=b&type=distance", nil)
		if code != http.StatusOK {
			t.Fatalf("distance: %d %v", code, resp)
		}
		return resp["distance"].(float64)
	}
	d1 := query()
	srv.pairs.mu.Lock()
	entries := len(srv.pairs.m)
	srv.pairs.mu.Unlock()
	if entries != 1 {
		t.Fatalf("cache entries after first query = %d, want 1", entries)
	}
	if d2 := query(); d2 != d1 {
		t.Errorf("repeat query changed: %g vs %g", d2, d1)
	}
	srv.pairs.mu.Lock()
	if len(srv.pairs.m) != 1 {
		t.Errorf("repeat query grew the cache to %d entries", len(srv.pairs.m))
	}
	var before pairEntry
	for _, e := range srv.pairs.m {
		before = e
	}
	srv.pairs.mu.Unlock()

	// Moving stream b invalidates; the entry is replaced with new stamps.
	ing("b", [2]float64{3, 0})
	d3 := query()
	if d3 >= d1 {
		t.Errorf("distance after moving b = %g, want < %g", d3, d1)
	}
	srv.pairs.mu.Lock()
	defer srv.pairs.mu.Unlock()
	if len(srv.pairs.m) != 1 {
		t.Errorf("cache entries after invalidation = %d, want 1 (replaced)", len(srv.pairs.m))
	}
	for _, e := range srv.pairs.m {
		if e.eb == before.eb {
			t.Error("entry not re-stamped after b moved")
		}
	}
}

// TestPairCachePurgeOnDeleteAndRebase: retiring a stream's QueryCache —
// by DELETE or by a checkpoint re-base — must drop its memoized pair
// entries so the dead cache (and the summary it pins) is collectable.
func TestPairCachePurgeOnDeleteAndRebase(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, Config{DefaultR: 16, DataDir: dir, CheckpointEvery: 8})
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ingest(t, ts, "a", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	ingest(t, ts, "b", []geom.Point{geom.Pt(5, 0), geom.Pt(6, 0), geom.Pt(5, 1)})
	if code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=distance", nil); code != http.StatusOK {
		t.Fatal("pair query")
	}
	srv.pairs.mu.Lock()
	if len(srv.pairs.m) != 1 {
		t.Fatalf("entries after query = %d", len(srv.pairs.m))
	}
	srv.pairs.mu.Unlock()

	// A checkpoint re-base swaps a's QueryCache and purges its entries.
	ingest(t, ts, "a", workload.Take(workload.Disk(1, geom.Pt(0, 0), 1), 16))
	srv.pairs.mu.Lock()
	n := len(srv.pairs.m)
	srv.pairs.mu.Unlock()
	if n != 0 {
		t.Errorf("entries after re-base = %d, want 0 (purged)", n)
	}

	// Repopulate, then DELETE b: its entries must go too.
	if code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=a&b=b&type=overlap", nil); code != http.StatusOK {
		t.Fatal("pair query after re-base")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/b", nil); code != http.StatusOK {
		t.Fatal("delete b")
	}
	srv.pairs.mu.Lock()
	defer srv.pairs.mu.Unlock()
	if len(srv.pairs.m) != 0 {
		t.Errorf("entries after delete = %d, want 0 (purged)", len(srv.pairs.m))
	}
}

func TestPairCacheBound(t *testing.T) {
	var c pairCache
	caches := make([]*streamhull.QueryCache, pairCacheCap+10)
	for i := range caches {
		caches[i] = streamhull.NewQueryCache(streamhull.NewAdaptive(8))
	}
	for i := 0; i < pairCacheCap+10; i++ {
		c.put(pairKey{qa: caches[i], qb: caches[i], typ: "distance"}, 1, 1, map[string]any{})
	}
	if len(c.m) > pairCacheCap {
		t.Errorf("cache grew to %d entries, cap %d", len(c.m), pairCacheCap)
	}
}

// TestReadsDuringCheckpointRace hammers the read path (hull, query, pair
// query) while durable ingest constantly checkpoints and re-bases the
// live summaries — the stale-epoch audit from the pair-cache work. Run
// with -race in CI; correctness assertions: no 5xx, and the reported n
// never goes backwards on either stream.
func TestReadsDuringCheckpointRace(t *testing.T) {
	dir := t.TempDir()
	// Tiny checkpoint threshold: every few batches re-bases the summary
	// and swaps the QueryCache under the readers.
	srv := mustNew(t, Config{DefaultR: 16, DataDir: dir, CheckpointEvery: 64})
	t.Cleanup(func() { _ = srv.Close() })

	run := func(method, url string, body []byte) (int, map[string]any) {
		var req *http.Request
		if body != nil {
			req = httptest.NewRequest(method, url, strings.NewReader(string(body)))
		} else {
			req = httptest.NewRequest(method, url, nil)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var out map[string]any
		_ = json.NewDecoder(rec.Body).Decode(&out)
		return rec.Code, out
	}

	pts := workload.Take(workload.Disk(9, geom.Pt(0, 0), 1), 4096)
	seed := func(id string) {
		body, _ := json.Marshal(map[string]any{"points": toPairs(pts[:32])})
		if code, resp := run("POST", "/v1/streams/"+id+"/points", body); code != http.StatusOK {
			t.Fatalf("seed %s: %d %v", id, code, resp)
		}
	}
	seed("s1")
	seed("s2")

	const batches = 40
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for _, id := range []string{"s1", "s2"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				lo := (i * 64) % (len(pts) - 64)
				body, _ := json.Marshal(map[string]any{"points": toPairs(pts[lo : lo+64])})
				if code, resp := run("POST", "/v1/streams/"+id+"/points", body); code != http.StatusOK {
					t.Errorf("ingest %s: %d %v", id, code, resp)
					return
				}
			}
		}(id)
	}
	go func() { wg.Wait(); close(writersDone) }()

	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			lastN := map[string]float64{}
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				for _, u := range []string{
					"/v1/streams/s1/hull",
					"/v1/streams/s2/query?type=diameter",
					"/v1/pairs/query?a=s1&b=s2&type=distance",
					"/v1/pairs/query?a=s1&b=s2&type=overlap",
					"/v1/streams/s1",
				} {
					code, resp := run("GET", u, nil)
					if code >= 500 {
						t.Errorf("reader %d: %s -> %d %v", r, u, code, resp)
						return
					}
					if n, ok := resp["n"].(float64); ok && strings.Contains(u, "hull") {
						if n < lastN[u] {
							t.Errorf("reader %d: n went backwards on %s: %g -> %g", r, u, lastN[u], n)
							return
						}
						lastN[u] = n
					}
				}
			}
		}(r)
	}
	rg.Wait()

	// Post-race sanity: both streams answer and report full counts.
	wantN := float64(32 + batches*64)
	for _, id := range []string{"s1", "s2"} {
		code, resp := run("GET", "/v1/streams/"+id, nil)
		if code != http.StatusOK || resp["n"].(float64) != wantN {
			t.Errorf("final %s: %d n=%v want %g", id, code, resp["n"], wantN)
		}
	}
	if code, _ := run("GET", "/v1/pairs/query?a=s1&b=s2&type=distance", nil); code != http.StatusOK {
		t.Errorf("final pair query: %d", code)
	}
}

// BenchmarkPairQuery shows the (epochA, epochB) memoization win: "warm"
// serves repeat pair queries from the cache through the full handler
// stack, "recompute" performs the geometric work the old handler re-did
// on every request (closest-pair walk over both cached hulls).
func BenchmarkPairQuery(b *testing.B) {
	srv, err := New(Config{DefaultR: 64})
	if err != nil {
		b.Fatal(err)
	}
	pts := workload.Take(workload.Disk(1, geom.Pt(0, 0), 1), 20000)
	ingestBench := func(id string, pts []geom.Point) {
		body, _ := json.Marshal(map[string]any{"points": toPairs(pts)})
		req := httptest.NewRequest("POST", "/v1/streams/"+id+"/points", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
	}
	ingestBench("a", pts[:10000])
	shifted := make([]geom.Point, 10000)
	for i, p := range pts[10000:] {
		shifted[i] = geom.Pt(p.X+5, p.Y)
	}
	ingestBench("b", shifted)

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("GET", "/v1/pairs/query?a=a&b=b&type=distance", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("query: %d", rec.Code)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		sa, _ := srv.get("", "a", false)
		sb, _ := srv.get("", "b", false)
		ha, hb := sa.queries().Hull(), sb.queries().Hull()
		for i := 0; i < b.N; i++ {
			if resp, ok := pairAnswer("distance", ha, hb); !ok || resp == nil {
				b.Fatal("recompute failed")
			}
		}
	})
}
