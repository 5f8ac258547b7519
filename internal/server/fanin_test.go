package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/workload"
)

// donor builds a follower-side adaptive summary over pts and returns its
// snapshot — what a follower node would push.
func donor(t *testing.T, r int, pts []geom.Point) streamhull.Snapshot {
	t.Helper()
	d := streamhull.NewAdaptive(r)
	if _, err := d.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	return d.Snapshot()
}

// pushSnap POSTs one source-tagged snapshot and returns status + body.
func pushSnap(t *testing.T, ts *httptest.Server, stream, source string, epoch uint64, snap streamhull.Snapshot) (int, map[string]any) {
	t.Helper()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/streams/%s/snapshot?source=%s&epoch=%d", ts.URL, stream, source, epoch)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding push response: %v", err)
	}
	return resp.StatusCode, out
}

func createFanIn(t *testing.T, ts *httptest.Server, id string, r int) {
	t.Helper()
	spec := fmt.Sprintf(`{"kind":"fanin","r":%d}`, r)
	resp, err := http.DefaultClient.Do(mustReq(t, "PUT", ts.URL+"/v1/streams/"+id, spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating fanin stream: %d", resp.StatusCode)
	}
}

func mustReq(t *testing.T, method, url, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestFanInKillAndReSync is the acceptance scenario: a follower is
// killed mid-push (its last accepted push covers only a prefix),
// restarts, and re-syncs with a higher epoch. The aggregator must drop
// the stale contribution and converge bit-exactly with a one-shot
// MergeSnapshots of the live inputs.
func TestFanInKillAndReSync(t *testing.T) {
	const r = 16
	ts := newTestServer(t)
	createFanIn(t, ts, "agg", r)

	pts := workload.Take(workload.Disk(11, geom.Pt(0, 0), 1.5), 4000)
	partial := donor(t, r, pts[:200]) // node1 killed mid-stream
	full := donor(t, r, pts[:2000])   // node1 after restart, caught up
	other := donor(t, r, pts[2000:])  // node2, steady

	if code, resp := pushSnap(t, ts, "agg", "node1", 100, partial); code != http.StatusOK {
		t.Fatalf("partial push: %d %v", code, resp)
	}
	if code, resp := pushSnap(t, ts, "agg", "node2", 77, other); code != http.StatusOK {
		t.Fatalf("node2 push: %d %v", code, resp)
	}
	// Restarted node1 pushes with a higher epoch: replaces the stale
	// contribution wholesale.
	if code, resp := pushSnap(t, ts, "agg", "node1", 200, full); code != http.StatusOK {
		t.Fatalf("re-sync push: %d %v", code, resp)
	}
	// A straggler from the dead incarnation arrives late: rejected.
	if code, _ := pushSnap(t, ts, "agg", "node1", 150, partial); code != http.StatusConflict {
		t.Fatalf("stale push: %d, want 409", code)
	}

	// Bit-exact vs one-shot MergeSnapshots in source-name order.
	oneShot, err := streamhull.MergeSnapshots(r, full, other)
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot.Hull().Vertices()
	got, _ := hullVertices(t, ts, "agg")
	if len(got) != len(want) {
		t.Fatalf("aggregate hull has %d vertices, one-shot merge %d", len(got), len(want))
	}
	for i := range got {
		xy := got[i].([]any)
		if xy[0].(float64) != want[i].X || xy[1].(float64) != want[i].Y {
			t.Fatalf("vertex %d: %v vs %v — not bit-exact", i, xy, want[i])
		}
	}

	// Detail lists both sources with their epochs.
	code, detail := do(t, "GET", ts.URL+"/v1/streams/agg", nil)
	if code != http.StatusOK {
		t.Fatalf("detail: %d", code)
	}
	srcs := detail["sources"].([]any)
	if len(srcs) != 2 {
		t.Fatalf("detail sources = %v", srcs)
	}
	first := srcs[0].(map[string]any)
	if first["source"] != "node1" || first["epoch"].(float64) != 200 {
		t.Errorf("source[0] = %v, want node1@200", first)
	}
	if n := detail["n"].(float64); n != 4000 {
		t.Errorf("aggregate n = %g, want 4000", n)
	}
}

func TestFanInPushValidationAndKindChecks(t *testing.T) {
	ts := newTestServer(t)
	createFanIn(t, ts, "agg", 16)
	snap := donor(t, 16, workload.Take(workload.Disk(2, geom.Pt(0, 0), 1), 100))

	// Missing / non-numeric epoch.
	data, _ := snap.Encode()
	resp, err := http.Post(ts.URL+"/v1/streams/agg/snapshot?source=n1", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("push without epoch: %d, want 400", resp.StatusCode)
	}

	// Push into a non-fanin stream.
	ingest(t, ts, "plain", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	if code, _ := pushSnap(t, ts, "plain", "n1", 1, snap); code != http.StatusConflict {
		t.Errorf("push into plain stream: %d, want 409", code)
	}

	// Push to a missing stream: 404 (followers create the aggregate first).
	if code, _ := pushSnap(t, ts, "ghost", "n1", 1, snap); code != http.StatusNotFound {
		t.Errorf("push to missing stream: %d, want 404", code)
	}

	// Direct point ingest into the aggregate: 409, and nothing applied.
	code, resp2 := do(t, "POST", ts.URL+"/v1/streams/agg/points",
		map[string]any{"points": [][2]float64{{0, 0}}})
	if code != http.StatusConflict {
		t.Errorf("point ingest into aggregate: %d %v, want 409", code, resp2)
	}
}

func TestFanInDropSourceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	createFanIn(t, ts, "agg", 16)
	snap := donor(t, 16, workload.Take(workload.Disk(3, geom.Pt(0, 0), 1), 200))
	if code, _ := pushSnap(t, ts, "agg", "dead", 5, snap); code != http.StatusOK {
		t.Fatal("push")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/agg/sources/dead", nil); code != http.StatusOK {
		t.Errorf("drop source: %d", code)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/agg/sources/dead", nil); code != http.StatusNotFound {
		t.Errorf("double drop: %d, want 404", code)
	}
	code, detail := do(t, "GET", ts.URL+"/v1/streams/agg", nil)
	if code != http.StatusOK || detail["n"].(float64) != 0 {
		t.Errorf("after drop: %d n=%v", code, detail["n"])
	}
	// Dropping from a non-fanin stream is a 409.
	ingest(t, ts, "plain", []geom.Point{geom.Pt(0, 0)})
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/plain/sources/x", nil); code != http.StatusConflict {
		t.Errorf("drop on plain stream: %d, want 409", code)
	}
}

// TestFanInPusherEndToEnd drives the real follower loop against two real
// servers: a follower ingests points, its Pusher pushes snapshots to the
// aggregator, and the aggregator's same-named stream converges.
func TestFanInPusherEndToEnd(t *testing.T) {
	aggSrv := mustNew(t, Config{DefaultR: 16})
	agg := httptest.NewServer(aggSrv)
	t.Cleanup(agg.Close)
	folSrv := mustNew(t, Config{DefaultR: 16})
	fol := httptest.NewServer(folSrv)
	t.Cleanup(fol.Close)

	pts := workload.Take(workload.Disk(4, geom.Pt(1, 1), 2), 1500)
	ingest(t, fol, "clicks", pts)

	epoch := uint64(0)
	p, err := fanin.NewPusher(fanin.PusherConfig{
		Target: agg.URL, Source: "follower-1",
		Collect: folSrv.StreamSnapshots,
		Epoch:   func() uint64 { epoch++; return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushOnce(context.Background()); err != nil {
		t.Fatalf("PushOnce: %v", err)
	}
	code, detail := do(t, "GET", agg.URL+"/v1/streams/clicks", nil)
	if code != http.StatusOK {
		t.Fatalf("aggregator detail: %d %v", code, detail)
	}
	if specField(detail)["kind"] != "fanin" {
		t.Errorf("aggregate spec = %v", detail["spec"])
	}
	if n := detail["n"].(float64); n != 1500 {
		t.Errorf("aggregate n = %g, want 1500", n)
	}
	// More points on the follower; a second push refreshes the source.
	ingest(t, fol, "clicks", workload.Take(workload.Disk(5, geom.Pt(1, 1), 2), 500))
	if err := p.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, detail = do(t, "GET", agg.URL+"/v1/streams/clicks", nil)
	if n := detail["n"].(float64); n != 2000 {
		t.Errorf("aggregate n after second push = %g, want 2000", n)
	}
}

// TestFanInPusherSurvivesAggregatorRestart: an in-memory aggregator
// that restarts forgets the aggregate stream; the follower's next push
// must re-create it instead of 404ing forever on a stale created-cache.
func TestFanInPusherSurvivesAggregatorRestart(t *testing.T) {
	aggSrv := mustNew(t, Config{DefaultR: 16})
	agg := httptest.NewServer(aggSrv)
	folSrv := mustNew(t, Config{DefaultR: 16})
	fol := httptest.NewServer(folSrv)
	t.Cleanup(fol.Close)

	ingest(t, fol, "clicks", workload.Take(workload.Disk(8, geom.Pt(0, 0), 1), 200))
	epoch := uint64(0)
	p, err := fanin.NewPusher(fanin.PusherConfig{
		Target: agg.URL, Source: "f1",
		Collect: folSrv.StreamSnapshots,
		Epoch:   func() uint64 { epoch++; return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart" the aggregator: same URL, fresh in-memory state.
	agg.Config.Handler = http.HandlerFunc(mustNew(t, Config{DefaultR: 16}).ServeHTTP)
	if err := p.PushOnce(context.Background()); err != nil {
		// First push after the restart may 404 (the pusher only learns
		// the aggregate is gone from the failure); the next one must
		// re-create and succeed.
		if err2 := p.PushOnce(context.Background()); err2 != nil {
			t.Fatalf("push never recovered after aggregator restart: %v then %v", err, err2)
		}
	}
	code, detail := do(t, "GET", agg.URL+"/v1/streams/clicks", nil)
	if code != http.StatusOK || detail["n"].(float64) != 200 {
		t.Errorf("after aggregator restart: %d n=%v, want 200", code, detail["n"])
	}
	agg.Close()
}

// TestFanInDefaultSpecDoesNotAutocreateOnIngest: with a fan-in default
// spec, a point POST to a missing stream must 409 without leaving an
// orphan aggregate behind.
func TestFanInDefaultSpecDoesNotAutocreateOnIngest(t *testing.T) {
	srv := mustNew(t, Config{DefaultSpec: `{"kind":"fanin","r":16}`})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	code, resp := do(t, "POST", ts.URL+"/v1/streams/ghost/points",
		map[string]any{"points": [][2]float64{{1, 1}}})
	if code != http.StatusConflict {
		t.Fatalf("ingest with fanin default: %d %v, want 409", code, resp)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/streams/ghost", nil); code != http.StatusNotFound {
		t.Errorf("rejected ingest auto-created the aggregate anyway: %d", code)
	}
	// Explicitly created aggregates still work with the same default.
	createFanIn(t, ts, "agg", 16)
	if code, _ := pushSnap(t, ts, "agg", "n1", 1,
		donor(t, 16, workload.Take(workload.Disk(9, geom.Pt(0, 0), 1), 50))); code != http.StatusOK {
		t.Errorf("push into explicit aggregate: %d", code)
	}
}

// TestFanInDurableRestartRecoversEmptyAggregate: an aggregate's WAL
// persists only its spec (source contributions are soft state), so a
// restart recovers an empty aggregate of the right kind that re-fills
// from the followers' next pushes.
func TestFanInDurableRestartRecoversEmptyAggregate(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, Config{DataDir: dir})
	ts := httptest.NewServer(srv)
	createFanIn(t, ts, "agg", 16)
	snap := donor(t, 16, workload.Take(workload.Disk(6, geom.Pt(0, 0), 1), 300))
	if code, _ := pushSnap(t, ts, "agg", "n1", 1, snap); code != http.StatusOK {
		t.Fatal("push")
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, Config{DataDir: dir})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { _ = srv2.Close() })
	code, detail := do(t, "GET", ts2.URL+"/v1/streams/agg", nil)
	if code != http.StatusOK {
		t.Fatalf("recovered detail: %d %v", code, detail)
	}
	if specField(detail)["kind"] != "fanin" {
		t.Fatalf("recovered spec = %v", detail["spec"])
	}
	if n := detail["n"].(float64); n != 0 {
		t.Errorf("recovered aggregate n = %g, want 0 (soft state)", n)
	}
	// Re-sync: the follower's next push restores the contribution.
	if code, _ := pushSnap(t, ts2, "agg", "n1", 2, snap); code != http.StatusOK {
		t.Fatal("re-push after restart")
	}
	_, detail = do(t, "GET", ts2.URL+"/v1/streams/agg", nil)
	if n := detail["n"].(float64); n != 300 {
		t.Errorf("re-synced aggregate n = %g, want 300", n)
	}
}
