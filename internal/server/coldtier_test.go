package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/wal"
	"github.com/streamgeom/streamhull/internal/workload"
)

// coldConfig is durableConfig plus a residency cap small enough that
// the tests constantly evict and rehydrate.
func coldConfig(dir string, maxResident int) Config {
	cfg := durableConfig(dir)
	cfg.MaxResident = maxResident
	return cfg
}

// warmCount reports how many streams currently hold a live summary.
func warmCount(s *Server) int { return s.ResidentStreams() }

// TestColdTierBitExact is the cold tier's core contract: with a
// residency cap of 1, every one of five streams is evicted and
// rehydrated repeatedly as queries cycle through them, and every answer
// must be bit-identical to a twin server that holds all five warm.
func TestColdTierBitExact(t *testing.T) {
	ids := []string{"c0", "c1", "c2", "c3", "c4"}
	feed := func(ts *httptest.Server) {
		for i, id := range ids {
			pts := workload.Take(workload.Ellipse(int64(100+i), 1, 0.5+0.1*float64(i), 0.3), 2000)
			for j := 0; j < len(pts); j += 400 {
				ingest(t, ts, id, pts[j:j+400])
			}
		}
	}
	// Both servers checkpoint at every 400-point batch boundary, so the
	// adaptive re-base (which checkpoints always perform, eviction or
	// not) happens at identical stream positions on both sides and the
	// twin comparison is bit-exact. An eviction then finds sinceCkpt == 0
	// and adds no extra checkpoint of its own.
	coldCfg := coldConfig(t.TempDir(), 1)
	coldCfg.CheckpointEvery = 400
	cold := mustNew(t, coldCfg)
	defer cold.Close()
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	warmCfg := durableConfig(t.TempDir())
	warmCfg.CheckpointEvery = 400
	warm := mustNew(t, warmCfg)
	defer warm.Close()
	tsWarm := httptest.NewServer(warm)
	defer tsWarm.Close()
	feed(tsCold)
	feed(tsWarm)

	// Two full passes over all streams: the cap of 1 forces each query
	// to rehydrate its stream and evict the previous one.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			gotVs, gotN := hullVertices(t, tsCold, id)
			wantVs, wantN := hullVertices(t, tsWarm, id)
			if gotN != wantN {
				t.Fatalf("pass %d %s: n = %v, want %v", pass, id, gotN, wantN)
			}
			sameVertices(t, gotVs, wantVs)
			for _, q := range []string{"type=diameter", "type=width", "type=extent&theta=0.7", "type=circle"} {
				codeA, respA := do(t, "GET", tsCold.URL+"/v1/streams/"+id+"/query?"+q, nil)
				codeB, respB := do(t, "GET", tsWarm.URL+"/v1/streams/"+id+"/query?"+q, nil)
				if codeA != http.StatusOK || codeB != http.StatusOK {
					t.Fatalf("%s %s: %d vs %d", id, q, codeA, codeB)
				}
				ja, _ := json.Marshal(respA)
				jb, _ := json.Marshal(respB)
				if string(ja) != string(jb) {
					t.Fatalf("%s %s: rehydrated answer %s, never-evicted twin %s", id, q, ja, jb)
				}
			}
		}
		if w := warmCount(cold); w > 2 {
			t.Fatalf("pass %d: %d streams warm under MaxResident=1", pass, w)
		}
	}
	// The eviction/rehydration counters must actually have moved — the
	// comparison above is vacuous if nothing ever went cold.
	if cold.met.evictions.Value() < 5 || cold.met.rehydrations.Value() < 5 {
		t.Fatalf("evictions=%v rehydrations=%v; cold tier never engaged",
			cold.met.evictions.Value(), cold.met.rehydrations.Value())
	}
	// Cold streams stay visible (with their preserved counters) in the
	// listing without being rehydrated by it.
	before := cold.met.rehydrations.Value()
	code, list := do(t, "GET", tsCold.URL+"/v1/streams", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	streams := list["streams"].([]any)
	if len(streams) != len(ids) {
		t.Fatalf("listing shows %d streams, want %d", len(streams), len(ids))
	}
	coldSeen := 0
	for _, raw := range streams {
		entry := raw.(map[string]any)
		if entry["n"].(float64) != 2000 {
			t.Fatalf("listing entry %v lost its point count", entry["id"])
		}
		if entry["cold"] == true {
			coldSeen++
		}
	}
	if coldSeen < len(ids)-2 {
		t.Fatalf("listing marks %d streams cold under MaxResident=1, want ≥%d", coldSeen, len(ids)-2)
	}
	if cold.met.rehydrations.Value() != before {
		t.Fatal("GET /v1/streams rehydrated cold streams")
	}
}

// TestColdTierIngestRehydrates: writes, not just reads, must warm a
// cold stream — and the points ingested after rehydration survive a
// restart along with the pre-eviction ones.
func TestColdTierIngestRehydrates(t *testing.T) {
	dir := t.TempDir()
	cfg := coldConfig(dir, 1)
	// Checkpoint (and so re-base) at every batch: the state captured
	// below then always sits on a checkpoint boundary, which is the
	// state a restart reproduces bit-for-bit.
	cfg.CheckpointEvery = 200
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv)

	a := workload.Take(workload.Disk(7, geom.Pt(0, 0), 1), 1000)
	b := workload.Take(workload.Disk(8, geom.Pt(5, 5), 1), 1000)
	ingest(t, ts, "ia", a[:600])
	ingest(t, ts, "ib", b) // evicts ia under the cap of 1
	ingest(t, ts, "ia", a[600:])
	wantVs, wantN := hullVertices(t, ts, "ia")
	if wantN != 1000 {
		t.Fatalf("post-rehydration ingest lost points: n = %v", wantN)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, cfg)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	gotVs, gotN := hullVertices(t, ts2, "ia")
	if gotN != wantN {
		t.Fatalf("restart after cold-tier ingest: n = %v, want %v", gotN, wantN)
	}
	sameVertices(t, gotVs, wantVs)
}

// TestColdTierCrashMidLifecycle is the kill -9 half of the cold-tier
// story, extending the PR 2 crash harness: the server dies (no Close)
// with some streams evicted, some freshly rehydrated, and one evicted
// AND re-ingested — recovery must rebuild all of them bit-exactly. An
// eviction's checkpoint and a rehydration's load are the two on-disk
// transitions this exercises; the abandon lands between/after them at
// whatever state the syscalls left.
func TestColdTierCrashMidLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := coldConfig(dir, 1)
	srvA := mustNew(t, cfg)
	tsA := httptest.NewServer(srvA)

	pts := workload.Take(workload.DriftBurst(31, 1, geom.Pt(0.02, 0.01), 500, 80, 3), 3000)
	ingest(t, tsA, "k0", pts[:1500])
	ingest(t, tsA, "k1", pts[1500:]) // evicts k0 (checkpoint sealed mid-flight)
	hullVertices(t, tsA, "k0")       // rehydrates k0, evicts k1
	ingest(t, tsA, "k0", pts[2800:]) // post-rehydration tail append
	want0, n0 := hullVertices(t, tsA, "k0")
	want1, n1 := hullVertices(t, tsA, "k1") // rehydrates k1, evicts k0 again
	tsA.Close()                             // srvA.Close() deliberately never runs

	srvB := mustNew(t, cfg)
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	got0, gn0 := hullVertices(t, tsB, "k0")
	if gn0 != n0 {
		t.Fatalf("k0 recovered n = %v, want %v", gn0, n0)
	}
	sameVertices(t, got0, want0)
	got1, gn1 := hullVertices(t, tsB, "k1")
	if gn1 != n1 {
		t.Fatalf("k1 recovered n = %v, want %v", gn1, n1)
	}
	sameVertices(t, got1, want1)
}

// TestColdTierConcurrency hammers a cap-1 server with concurrent reads,
// writes, listings and pair queries across four streams, so evictions
// and rehydrations constantly race each other and the request paths.
// Run under -race this is the cold tier's data-race test; the final
// checks prove no points were lost along the way.
func TestColdTierConcurrency(t *testing.T) {
	srv := mustNew(t, coldConfig(t.TempDir(), 1))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ids := []string{"h0", "h1", "h2", "h3"}
	// Create every stream up front: a pair query may name a stream whose
	// worker has not ingested yet, and that must be 409, never 404.
	for _, id := range ids {
		if code, body := do(t, "PUT", ts.URL+"/v1/streams/"+id, nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", id, code, body)
		}
	}
	const rounds = 30
	var wg sync.WaitGroup
	for w, id := range ids {
		wg.Add(1)
		go func(w int, id string) {
			defer wg.Done()
			pts := workload.Take(workload.Disk(int64(w), geom.Pt(float64(w), 0), 1), rounds*20)
			for r := 0; r < rounds; r++ {
				ingest(t, ts, id, pts[r*20:(r+1)*20])
				if code, _ := do(t, "GET", ts.URL+"/v1/streams/"+id+"/hull", nil); code != http.StatusOK {
					t.Errorf("%s hull: %d", id, code)
					return
				}
				other := ids[(w+1+r)%len(ids)]
				code, _ := do(t, "GET",
					ts.URL+"/v1/pairs/query?a="+id+"&b="+other+"&type=distance", nil)
				// 409 empty_streams is legitimate early on, before the other
				// worker's first batch landed.
				if code != http.StatusOK && code != http.StatusConflict {
					t.Errorf("pair %s/%s: %d", id, other, code)
					return
				}
				if r%7 == 0 {
					do(t, "GET", ts.URL+"/v1/streams?limit=2", nil)
				}
			}
		}(w, id)
	}
	wg.Wait()
	for _, id := range ids {
		if _, n := hullVertices(t, ts, id); n != rounds*20 {
			t.Fatalf("%s: n = %v after the hammer, want %d", id, n, rounds*20)
		}
	}
}

// TestListPagination walks the paginated listing and checks the pages
// tile the full listing exactly, in order, without duplicates — and
// that the unpaginated response is unchanged (no next_cursor field).
func TestListPagination(t *testing.T) {
	ts := newTestServer(t)
	var want []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("pg%02d", i)
		if code, _ := do(t, "PUT", ts.URL+"/v1/streams/"+id, specBody(`{"kind":"adaptive","r":16}`)); code != http.StatusCreated {
			t.Fatalf("create %s", id)
		}
		want = append(want, id)
	}
	code, full := do(t, "GET", ts.URL+"/v1/streams", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if _, has := full["next_cursor"]; has {
		t.Fatal("unpaginated listing grew a next_cursor")
	}
	if n := len(full["streams"].([]any)); n != 10 {
		t.Fatalf("full listing has %d streams", n)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/streams?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		code, page := do(t, "GET", url, nil)
		if code != http.StatusOK {
			t.Fatalf("page %d: %d", pages, code)
		}
		for _, raw := range page["streams"].([]any) {
			got = append(got, raw.(map[string]any)["id"].(string))
		}
		pages++
		next, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		cursor = next
		if pages > 10 {
			t.Fatal("pagination does not terminate")
		}
	}
	if pages != 4 { // 3+3+3+1
		t.Fatalf("walked %d pages, want 4", pages)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("pages tile to %v, want %v", got, want)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/streams?limit=nope", nil); code != http.StatusBadRequest {
		t.Fatal("bad limit accepted")
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/streams?limit=-2", nil); code != http.StatusBadRequest {
		t.Fatal("negative limit accepted")
	}
}

// TestAsyncRecoveryReadiness: with AsyncRecovery the constructor
// returns immediately, /readyz (and the API) answer 503 until the
// background recovery finishes, and everything serves normally after.
func TestAsyncRecoveryReadiness(t *testing.T) {
	dir := t.TempDir()
	seed := mustNew(t, durableConfig(dir))
	tsSeed := httptest.NewServer(seed)
	for i := 0; i < 5; i++ {
		ingest(t, tsSeed, fmt.Sprintf("ar%d", i),
			workload.Take(workload.Disk(int64(i), geom.Pt(float64(i), 0), 1), 500))
	}
	want := map[string]float64{}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("ar%d", i)
		_, n := hullVertices(t, tsSeed, id)
		want[id] = n
	}
	tsSeed.Close()
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(dir)
	cfg.AsyncRecovery = true
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			break
		}
		// While starting, both /readyz and the API report progress.
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
			if body["status"] != "starting" {
				t.Fatalf("unready /readyz body = %v", body)
			}
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("recovery never finished")
		}
		time.Sleep(time.Millisecond)
	}
	for id, n := range want {
		if _, got := hullVertices(t, ts, id); got != n {
			t.Fatalf("%s after async recovery: n = %v, want %v", id, got, n)
		}
	}
}

// TestHealthStartingProgress pins the /readyz progress body itself
// (the server-level test above can only observe it racily).
func TestMaxResidentRequiresStore(t *testing.T) {
	if _, err := New(Config{MaxResident: 4}); err == nil {
		t.Fatal("MaxResident without storage accepted")
	}
}

// TestGoldenPreStoreLayout hand-builds a stream directory exactly as
// the pre-store server laid it out — meta.json sidecar plus a wal.Log
// with a checkpoint and a live tail, under the percent-encoded
// directory name — and proves today's fswal path opens it unchanged.
func TestGoldenPreStoreLayout(t *testing.T) {
	dir := t.TempDir()
	streamDir := filepath.Join(dir, "legacy%2Fstream") // key "legacy/stream": tenant "legacy"
	if err := os.MkdirAll(streamDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := streamhull.Spec{Kind: streamhull.KindAdaptive, R: 16}
	meta, err := store.MetaForSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveMeta(streamDir, meta); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(streamDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.Take(workload.Ellipse(77, 1, 0.6, 0.25), 900)
	sum := streamhull.NewAdaptive(16)
	if _, err := sum.InsertBatch(pts[:600]); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(pts[:600]); err != nil {
		t.Fatal(err)
	}
	snap, err := sum.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	rebased, err := streamhull.SummaryFromSnapshot(sum.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebased.InsertBatch(pts[600:]); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(pts[600:]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv := mustNew(t, durableConfig(dir))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// The tenant-qualified key recovered from the directory name lands
	// in tenant "legacy"'s namespace; the root tenant must not see it.
	code, list := do(t, "GET", ts.URL+"/v1/streams", nil)
	if code != http.StatusOK || len(list["streams"].([]any)) != 0 {
		t.Fatalf("root tenant sees the legacy tenant's stream: %v", list)
	}
	st, err := srv.get("legacy", "stream", false)
	if err != nil {
		t.Fatalf("legacy stream not recovered: %v", err)
	}
	qc, err := srv.residentQueries("legacy/stream", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qc.N() != 900 {
		t.Fatalf("recovered n = %d, want 900", qc.N())
	}
	wantVs := rebased.Hull().Vertices()
	gotVs := qc.Hull().Vertices()
	if len(gotVs) != len(wantVs) {
		t.Fatalf("hull has %d vertices, want %d", len(gotVs), len(wantVs))
	}
	for i := range wantVs {
		if gotVs[i] != wantVs[i] {
			t.Fatalf("vertex %d = %v, want %v", i, gotVs[i], wantVs[i])
		}
	}
}

// TestStoreBackendMismatchRefuses plants the marker the removed
// muxwal backend left in its data directories: startup must fail
// loudly and name muxwal, not silently serve an empty stream set.
func TestStoreBackendMismatchRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MUXSTORE"), []byte("SHMUXDIR1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DefaultR: 16, DataDir: dir, Sync: wal.SyncNone}); err == nil ||
		!strings.Contains(err.Error(), "muxwal") {
		t.Fatalf("opened a muxwal directory: %v", err)
	}
}

// TestColdTierMemoryBackend runs the evict/rehydrate cycle on the
// in-memory store — the backend CI's smoke test and experiments use —
// via Config.Store injection.
func TestColdTierMemoryBackend(t *testing.T) {
	// CheckpointEvery = batch size: ingest itself re-bases the live
	// summary at the checkpoint, so the captured answer is the
	// checkpoint's and survives the evict/rehydrate cycle bit-for-bit.
	cfg := Config{DefaultR: 16, Store: store.NewMemory(), MaxResident: 1, CheckpointEvery: 300}
	srv := mustNew(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	a := workload.Take(workload.Disk(1, geom.Pt(0, 0), 1), 300)
	b := workload.Take(workload.Disk(2, geom.Pt(9, 9), 1), 300)
	ingest(t, ts, "ma", a)
	wantVs, _ := hullVertices(t, ts, "ma")
	ingest(t, ts, "mb", b) // evicts ma
	if w := warmCount(srv); w != 1 {
		t.Fatalf("%d warm streams under cap 1", w)
	}
	gotVs, n := hullVertices(t, ts, "ma") // rehydrates ma
	if n != 300 {
		t.Fatalf("rehydrated n = %v", n)
	}
	sameVertices(t, gotVs, wantVs)
}
