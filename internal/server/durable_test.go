package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/wal"
	"github.com/streamgeom/streamhull/internal/workload"
)

// durableConfig keeps durability tests deterministic and fast: no
// background fsync timers, small checkpoints where a test wants them.
func durableConfig(dir string) Config {
	return Config{DefaultR: 16, DataDir: dir, Sync: wal.SyncNone}
}

// assertCompacted checks that a stream directory holds a checkpoint
// and that checkpointing pruned the segments it covers.
func assertCompacted(t *testing.T, streamDir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(streamDir, "checkpoint.snap")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	entries, err := os.ReadDir(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs++
		}
	}
	if segs > 2 {
		t.Fatalf("checkpointing left %d segments; compaction is not pruning", segs)
	}
}

func hullVertices(t *testing.T, ts *httptest.Server, id string) ([]any, float64) {
	t.Helper()
	code, hull := do(t, "GET", ts.URL+"/v1/streams/"+id+"/hull", nil)
	if code != http.StatusOK {
		t.Fatalf("hull %q: %d %v", id, code, hull)
	}
	return hull["vertices"].([]any), hull["n"].(float64)
}

func sameVertices(t *testing.T, got, want []any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("hull has %d vertices, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i].([]any), want[i].([]any)
		if g[0] != w[0] || g[1] != w[1] {
			t.Fatalf("vertex %d = %v, want %v", i, g, w)
		}
	}
}

// TestDurableRecoveryAfterKill simulates an unclean kill: the first
// server is abandoned without Close (its WAL fsyncs never ran — the
// SyncNone policy plus no Close means recovery sees exactly what the
// write syscalls left behind) and a second server must rebuild every
// stream with an identical hull.
func TestDurableRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, durableConfig(dir))
	tsA := httptest.NewServer(srvA)

	if code, _ := do(t, "PUT", tsA.URL+"/v1/streams/d1", specBody(`{"kind":"adaptive","r":16}`)); code != http.StatusCreated {
		t.Fatal("create d1")
	}
	if code, _ := do(t, "PUT", tsA.URL+"/v1/streams/u1", specBody(`{"kind":"uniform","r":12}`)); code != http.StatusCreated {
		t.Fatal("create u1")
	}
	if code, _ := do(t, "PUT", tsA.URL+"/v1/streams/ex1", specBody(`{"kind":"exact"}`)); code != http.StatusCreated {
		t.Fatal("create ex1")
	}
	if code, _ := do(t, "PUT", tsA.URL+"/v1/streams/w1", specBody(`{"kind":"windowed","r":8,"window":"100"}`)); code != http.StatusCreated {
		t.Fatal("create w1")
	}
	pts := workload.Take(workload.Ellipse(7, 1, 0.3, 0.4), 3000)
	for _, id := range []string{"d1", "u1", "ex1", "w1"} {
		for i := 0; i < len(pts); i += 500 {
			ingest(t, tsA, id, pts[i:i+500])
		}
	}
	ingest(t, tsA, "auto1", pts[:1000]) // auto-created durable stream

	wantHulls := map[string][]any{}
	for _, id := range []string{"d1", "u1", "ex1", "w1", "auto1"} {
		vs, _ := hullVertices(t, tsA, id)
		wantHulls[id] = vs
	}
	tsA.Close() // the listener dies; srvA.Close() deliberately never runs

	srvB := mustNew(t, durableConfig(dir))
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	wantN := map[string]float64{"d1": 3000, "u1": 3000, "ex1": 3000, "w1": 3000, "auto1": 1000}
	for id, want := range wantHulls {
		got, n := hullVertices(t, tsB, id)
		if n != wantN[id] {
			t.Fatalf("stream %q recovered n = %v, want %v", id, n, wantN[id])
		}
		sameVertices(t, got, want)
	}
	// The recovered windowed stream keeps its spec and window coverage,
	// not just its hull.
	code, detail := do(t, "GET", tsB.URL+"/v1/streams/w1", nil)
	if code != http.StatusOK {
		t.Fatalf("windowed detail after recovery: %d %v", code, detail)
	}
	if specField(detail)["window"] != "100" {
		t.Fatalf("recovered windowed stream lost its window: %v", detail)
	}
	if wc := detail["window_count"].(float64); wc < 100 || wc > 300 {
		t.Fatalf("recovered window_count = %v, want near 100", wc)
	}
}

// TestDurableWindowedKillRecover is the windowed half of the
// durability story: a count-windowed stream is driven through several
// windowed-state checkpoints (which compact the WAL), the server dies
// without Close — the kill -9 shape — and a second server must rebuild
// the window bit-exactly: same hull vertices, same live coverage, same
// spec.
func TestDurableWindowedKillRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointEvery = 500
	srvA := mustNew(t, cfg)
	tsA := httptest.NewServer(srvA)

	code, resp := do(t, "PUT", tsA.URL+"/v1/streams/wd",
		map[string]any{"kind": "windowed", "r": 8, "window": "300"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	// A drifting stream: the window must forget the early positions, and
	// the checkpointed bucket structure is what keeps expiry exact.
	pts := workload.Take(workload.DriftBurst(23, 1, geom.Pt(0.01, 0), 800, 100, 5), 2600)
	for i := 0; i < len(pts); i += 200 {
		ingest(t, tsA, "wd", pts[i:i+200])
	}
	wantVs, wantN := hullVertices(t, tsA, "wd")
	_, wantDetail := do(t, "GET", tsA.URL+"/v1/streams/wd", nil)
	tsA.Close() // srvA.Close() deliberately never runs

	// The windowed checkpoints must have compacted the log.
	assertCompacted(t, filepath.Join(dir, "wd"))

	srvB := mustNew(t, cfg)
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	gotVs, gotN := hullVertices(t, tsB, "wd")
	if gotN != wantN {
		t.Fatalf("recovered n = %v, want %v", gotN, wantN)
	}
	sameVertices(t, gotVs, wantVs)
	_, gotDetail := do(t, "GET", tsB.URL+"/v1/streams/wd", nil)
	for _, key := range []string{"spec", "window_count", "sample_size"} {
		if !reflect.DeepEqual(gotDetail[key], wantDetail[key]) {
			t.Errorf("detail %q: recovered %v, want %v", key, gotDetail[key], wantDetail[key])
		}
	}
	if gotDetail["durable"] != true {
		t.Error("recovered stream not marked durable")
	}
}

// TestCheckpointRebaseMatchesRecovery: for every checkpointable kind,
// the summary served right after a checkpoint is what recovery decodes
// from the sealed payload — the two re-encode to the same bytes, and
// for uniform and windowed streams those are the sealed bytes
// themselves (re-sampling an adaptive sample is not idempotent) — and a
// kill-style restart (no Close) serves the same n and hull.
func TestCheckpointRebaseMatchesRecovery(t *testing.T) {
	for name, spec := range map[string]string{
		"adaptive":     `{"kind":"adaptive","r":16}`,
		"uniform":      `{"kind":"uniform","r":12}`,
		"count-window": `{"kind":"windowed","r":8,"window":"500"}`,
		"time-window":  `{"kind":"windowed","r":8,"window":"10m"}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.CheckpointEvery = 600
			srvA := mustNew(t, cfg)
			tsA := httptest.NewServer(srvA)
			createWithSpec(t, tsA, "s", spec)
			pts := workload.Take(workload.DriftBurst(11, 1, geom.Pt(0.01, 0), 400, 50, 6), 1000)
			ingest(t, tsA, "s", pts[:600]) // reaches CheckpointEvery: seal and re-base

			rec, err := wal.StartRecovery(filepath.Join(dir, "s"))
			if err != nil {
				t.Fatal(err)
			}
			sealed := rec.Snapshot()
			if sealed == nil {
				t.Fatal("no checkpoint sealed")
			}
			st, err := srvA.get("", "s", false)
			if err != nil {
				t.Fatal(err)
			}
			served, ok, err := streamhull.Checkpoint(st.summary())
			if err != nil || !ok {
				t.Fatalf("Checkpoint(served) = ok %v, err %v", ok, err)
			}
			parsed, err := streamhull.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := streamhull.SummaryFromCheckpoint(parsed, sealed)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := streamhull.Checkpoint(rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, want) {
				t.Fatalf("served state is not the sealed checkpoint's decoding (%d vs %d bytes)", len(served), len(want))
			}
			if name != "adaptive" && !bytes.Equal(served, sealed) {
				t.Fatalf("served state does not re-encode to the sealed checkpoint (%d vs %d bytes)", len(served), len(sealed))
			}

			ingest(t, tsA, "s", pts[600:]) // a log tail past the checkpoint
			wantVs, wantN := hullVertices(t, tsA, "s")
			tsA.Close() // srvA.Close() deliberately never runs

			srvB := mustNew(t, cfg)
			defer srvB.Close()
			tsB := httptest.NewServer(srvB)
			defer tsB.Close()
			gotVs, gotN := hullVertices(t, tsB, "s")
			if gotN != wantN {
				t.Fatalf("recovered n = %v, want %v", gotN, wantN)
			}
			sameVertices(t, gotVs, wantVs)
		})
	}
}

// TestGracefulCloseSealsCheckpoint: a clean shutdown must leave every
// checkpointable stream compacted even below CheckpointEvery — in
// particular a windowed stream's bucket state — and a restart must
// recover from it, including after a windowed snapshot restore.
func TestGracefulCloseSealsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir) // CheckpointEvery defaults to 65536, far above ingest
	srvA := mustNew(t, cfg)
	tsA := httptest.NewServer(srvA)

	if code, _ := do(t, "PUT", tsA.URL+"/v1/streams/gw",
		map[string]any{"kind": "windowed", "r": 8, "window": "200"}); code != http.StatusCreated {
		t.Fatal("create gw")
	}
	pts := workload.Take(workload.Disk(41, geom.Pt(3, 3), 1), 600)
	for i := 0; i < 600; i += 150 {
		ingest(t, tsA, "gw", pts[i:i+150])
	}
	// A windowed snapshot restored onto a new durable stream must seal a
	// windowed-state checkpoint, not a snapshot binary.
	code, snap := do(t, "GET", tsA.URL+"/v1/streams/gw/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, snap)
	}
	if code, resp := do(t, "POST", tsA.URL+"/v1/streams/gw2/snapshot", snap); code != http.StatusCreated {
		t.Fatalf("windowed snapshot restore: %d %v", code, resp)
	}
	wantVs, wantN := hullVertices(t, tsA, "gw")
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"gw", "gw2"} {
		if _, err := os.Stat(filepath.Join(dir, id, "checkpoint.snap")); err != nil {
			t.Fatalf("stream %q: no checkpoint after graceful close: %v", id, err)
		}
	}

	srvB := mustNew(t, cfg)
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	gotVs, gotN := hullVertices(t, tsB, "gw")
	if gotN != wantN {
		t.Fatalf("recovered n = %v, want %v", gotN, wantN)
	}
	sameVertices(t, gotVs, wantVs)
	if code, _ := do(t, "GET", tsB.URL+"/v1/streams/gw2/hull", nil); code != http.StatusOK {
		t.Fatal("restored windowed stream did not survive restart")
	}
}

// TestDurableCheckpointExactRecovery drives enough points through a
// small CheckpointEvery that the log is compacted several times, then
// checks a restart reproduces the served hull bit-for-bit (checkpoints
// re-base the live summary, so recovery replays the same state).
func TestDurableCheckpointExactRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointEvery = 200
	srvA := mustNew(t, cfg)
	tsA := httptest.NewServer(srvA)

	pts := workload.Take(workload.ChangingEllipse(9, 1100, 0.2), 1100)
	for i := 0; i < 1000; i += 100 {
		ingest(t, tsA, "ck", pts[i:i+100])
	}
	ingest(t, tsA, "ck", pts[1000:1100]) // tail after the last checkpoint
	wantVs, wantN := hullVertices(t, tsA, "ck")
	tsA.Close()

	// Compaction must have pruned the pre-checkpoint segments.
	assertCompacted(t, filepath.Join(dir, "ck"))

	srvB := mustNew(t, cfg)
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	gotVs, gotN := hullVertices(t, tsB, "ck")
	if gotN != wantN {
		t.Fatalf("recovered n = %v, want %v", gotN, wantN)
	}
	sameVertices(t, gotVs, wantVs)
}

// TestDurableTornTail cuts into the final WAL record — the shape a
// power loss mid-write leaves behind — and checks recovery drops
// exactly that record and matches an independent clean replay of the
// same directory.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, durableConfig(dir))
	tsA := httptest.NewServer(srvA)
	pts := workload.Take(workload.Disk(11, geom.Pt(0, 0), 1), 500)
	for i := 0; i < 500; i += 50 {
		ingest(t, tsA, "torn", pts[i:i+50])
	}
	// Abandon without Close — the crash shape. (A graceful Close would
	// seal a final checkpoint and compact away the segments this test
	// wants to damage.)
	tsA.Close()

	streamDir := filepath.Join(dir, "torn")
	segs, err := os.ReadDir(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range segs {
		if strings.HasSuffix(e.Name(), ".wal") {
			last = filepath.Join(streamDir, e.Name())
		}
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Clean replay of the damaged directory, straight through the wal
	// package — the reference answer recovery must match.
	rec, err := wal.StartRecovery(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	ref := streamhull.NewAdaptive(16)
	info, err := rec.Replay(func(batch []geom.Point) error {
		// Batch-at-a-time, as the server both ingests and recovers.
		_, err := ref.InsertBatch(batch)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("truncation did not register as a torn tail")
	}

	srvB := mustNew(t, durableConfig(dir))
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	gotVs, gotN := hullVertices(t, tsB, "torn")
	if gotN != 450 {
		t.Fatalf("recovered n = %v, want 450 (final 50-point record torn)", gotN)
	}
	refVs := ref.Hull().Vertices()
	if len(gotVs) != len(refVs) {
		t.Fatalf("recovered hull has %d vertices, clean replay has %d", len(gotVs), len(refVs))
	}
	for i, v := range refVs {
		g := gotVs[i].([]any)
		if g[0].(float64) != v.X || g[1].(float64) != v.Y {
			t.Fatalf("vertex %d = %v, clean replay %v", i, g, v)
		}
	}
}

func TestDurableDeleteRemovesStorage(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, durableConfig(dir))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ingest(t, ts, "gone", workload.Take(workload.Disk(1, geom.Point{}, 1), 100))
	if _, err := os.Stat(filepath.Join(dir, "gone")); err != nil {
		t.Fatalf("stream dir missing before delete: %v", err)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/gone", nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("stream dir still present after delete: %v", err)
	}
	srv2 := mustNew(t, durableConfig(dir))
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if code, _ := do(t, "GET", ts2.URL+"/v1/streams/gone/hull", nil); code != http.StatusNotFound {
		t.Fatalf("deleted stream resurrected: %d", code)
	}
}

// TestSnapshotContentNegotiation covers both halves: GET with
// Accept: application/octet-stream serves the binary encoding, and
// POST restores from either encoding.
func TestSnapshotContentNegotiation(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "src", workload.Take(workload.Gaussian(5, geom.Point{}, 1), 4000))

	req, _ := http.NewRequest("GET", ts.URL+"/v1/streams/src/snapshot", nil)
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bin, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary snapshot: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	var snap streamhull.Snapshot
	if err := snap.UnmarshalBinary(bin); err != nil {
		t.Fatalf("served binary does not decode: %v", err)
	}
	if snap.Kind != "adaptive" || snap.N != 4000 {
		t.Fatalf("snapshot = kind %q n %d", snap.Kind, snap.N)
	}

	// Binary restore.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/streams/copy/snapshot", bytes.NewReader(bin))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary restore: %d", resp.StatusCode)
	}
	_, n := hullVertices(t, ts, "copy")
	if n != 4000 {
		t.Fatalf("restored stream n = %v, want 4000", n)
	}

	// JSON restore of the JSON snapshot.
	code, jsnap := do(t, "GET", ts.URL+"/v1/streams/src/snapshot", nil)
	if code != http.StatusOK {
		t.Fatal("json snapshot")
	}
	code, _ = do(t, "POST", ts.URL+"/v1/streams/copy2/snapshot", jsnap)
	if code != http.StatusCreated {
		t.Fatalf("json restore: %d", code)
	}
	// Restoring onto an existing stream conflicts.
	code, _ = do(t, "POST", ts.URL+"/v1/streams/copy/snapshot", jsnap)
	if code != http.StatusConflict {
		t.Fatalf("duplicate restore: %d", code)
	}
	// Garbage binary is rejected.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/streams/bad/snapshot", strings.NewReader("not a snapshot"))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: %d", resp.StatusCode)
	}
}

// TestBatchAtomicOnBadInput: a rejected batch must leave the stream
// untouched — the whole batch is validated before any insert.
func TestBatchAtomicOnBadInput(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "atomic", workload.Take(workload.Disk(2, geom.Point{}, 1), 10))
	// 1e999 overflows float64, so decoding fails after the first valid
	// point; nothing may be applied.
	body := `{"points":[[1,2],[3,4],[1e999,0]]}`
	resp, err := http.Post(ts.URL+"/v1/streams/atomic/points", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: %d, want 400", resp.StatusCode)
	}
	if _, n := hullVertices(t, ts, "atomic"); n != 10 {
		t.Fatalf("rejected batch mutated the stream: n = %v, want 10", n)
	}
}

// TestStreamDirEncoding checks the names durable streams get on disk:
// every directory under DataDir is the filesystem-safe encoding of its
// stream's key, decodes back to that key, and a restarted server finds
// each stream again under its original ID.
func TestStreamDirEncoding(t *testing.T) {
	for _, id := range []string{"plain", "a/b", "..", ".hidden", "hé%llo", "sp ace", "%41"} {
		name := store.EncodeDir(id)
		if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
			t.Fatalf("encode(%q) = %q is not filesystem-safe", id, name)
		}
		back, ok := store.DecodeDir(name)
		if !ok || back != id {
			t.Fatalf("decode(encode(%q)) = %q, %v", id, back, ok)
		}
	}
	if _, ok := store.DecodeDir("bad%zz"); ok {
		t.Fatal("invalid escape accepted")
	}
	if _, ok := store.DecodeDir("has space"); ok {
		t.Fatal("unsafe character accepted")
	}

	dir := t.TempDir()
	ids := []string{"plain", ".hidden", "hé%llo", "sp ace", "%41"}
	pts := workload.Take(workload.Ellipse(3, 1, 0.5, 0.2), 200)
	srvA := mustNew(t, durableConfig(dir))
	tsA := httptest.NewServer(srvA)
	want := map[string][]any{}
	for _, id := range ids {
		ingest(t, tsA, url.PathEscape(id), pts)
		want[id], _ = hullVertices(t, tsA, url.PathEscape(id))
	}
	// srvA.Close() deliberately never runs: its shutdown checkpoint would
	// re-base each adaptive summary on its O(r) snapshot, and the replay
	// below must reproduce the hulls read above bit-for-bit.
	tsA.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		key, ok := store.DecodeDir(e.Name())
		if !ok {
			t.Fatalf("stream directory %q does not decode", e.Name())
		}
		if e.Name() != store.EncodeDir(key) || strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("stream directory %q is not the safe encoding of %q", e.Name(), key)
		}
		onDisk[key] = true
	}
	for _, id := range ids {
		if !onDisk[id] {
			t.Fatalf("stream %q has no directory %q under DataDir", id, store.EncodeDir(id))
		}
	}

	srvB := mustNew(t, durableConfig(dir))
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	for _, id := range ids {
		got, n := hullVertices(t, tsB, url.PathEscape(id))
		if n != float64(len(pts)) {
			t.Fatalf("stream %q recovered n = %v, want %d", id, n, len(pts))
		}
		sameVertices(t, got, want[id])
	}
}
