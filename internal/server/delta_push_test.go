package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/workload"
)

// pushDeltaFrame POSTs one encoded delta frame and returns status+body.
func pushDeltaFrame(t *testing.T, ts *httptest.Server, stream, source string, frame []byte) (int, map[string]any) {
	t.Helper()
	u := fmt.Sprintf("%s/v1/streams/%s/snapshot?source=%s", ts.URL, stream, source)
	resp, err := http.Post(u, fanin.DeltaContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding delta push response: %v", err)
	}
	return resp.StatusCode, out
}

// TestDeltaPushEndpoint walks the whole delta negotiation over real
// HTTP: full push → delta → duplicate replay (idempotent no-op) →
// reordered stale frame → gapped base (resync demand carrying the
// acked epoch) → first-contact delta (resync) → garbage (400).
func TestDeltaPushEndpoint(t *testing.T) {
	const r = 16
	ts := newTestServer(t)
	createFanIn(t, ts, "agg", r)

	pts := workload.Take(workload.Disk(21, geom.Pt(0, 0), 2), 3000)
	snapA := donor(t, r, pts[:1000])
	snapB := donor(t, r, pts[:2000])

	// Base: a full push at epoch 10.
	code, resp := pushSnap(t, ts, "agg", "n1", 10, snapA)
	if code != http.StatusOK {
		t.Fatalf("full push: %d %v", code, resp)
	}
	if resp["acked_epoch"].(float64) != 10 {
		t.Fatalf("full push ack = %v, want 10", resp["acked_epoch"])
	}

	// Delta 10 → 20: accepted, aggregate now reflects snapB.
	frame := fanin.EncodeDelta(fanin.ComputeDelta(10, 20, snapB.N, snapA.Points, snapB.Points))
	code, resp = pushDeltaFrame(t, ts, "agg", "n1", frame)
	if code != http.StatusOK {
		t.Fatalf("delta push: %d %v", code, resp)
	}
	if resp["acked_epoch"].(float64) != 20 || resp["n"].(float64) != float64(snapB.N) {
		t.Fatalf("delta push response = %v, want ack 20 n %d", resp, snapB.N)
	}

	// Duplicate replay of the SAME frame (an at-least-once transport
	// resending): 200, and the aggregate must not double-apply — n and
	// the sample are exactly one application.
	code, resp = pushDeltaFrame(t, ts, "agg", "n1", frame)
	if code != http.StatusOK {
		t.Fatalf("duplicate delta replay: %d %v", code, resp)
	}
	if resp["acked_epoch"].(float64) != 20 || resp["n"].(float64) != float64(snapB.N) {
		t.Fatalf("duplicate replay mutated state: %v", resp)
	}
	got := getSnapshot(t, ts, "agg")
	oneShot, err := streamhull.MergeSnapshots(r, snapB)
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot.Snapshot().Points
	if len(got.Points) != len(want) {
		t.Fatalf("after replay: %d sample points, want %d", len(got.Points), len(want))
	}
	for i := range want {
		if got.Points[i] != want[i] {
			t.Fatalf("after replay: sample[%d] = %v, want %v", i, got.Points[i], want[i])
		}
	}

	// A reordered OLDER frame (epoch 15 < stored 20): stale, dropped.
	stale := fanin.EncodeDelta(fanin.ComputeDelta(10, 15, snapA.N, snapA.Points, snapA.Points))
	code, resp = pushDeltaFrame(t, ts, "agg", "n1", stale)
	if code != http.StatusConflict || resp["code"] != "stale_epoch" {
		t.Fatalf("reordered older frame: %d %v, want 409 stale_epoch", code, resp)
	}

	// A frame built on an epoch the server never stored (a lost push in
	// between): resync demand, carrying the epoch the server DOES hold
	// so the follower can re-anchor.
	gapped := fanin.EncodeDelta(fanin.ComputeDelta(13, 30, snapB.N, snapB.Points, snapB.Points))
	code, resp = pushDeltaFrame(t, ts, "agg", "n1", gapped)
	if code != http.StatusConflict || resp["code"] != "resync_required" {
		t.Fatalf("gapped base: %d %v, want 409 resync_required", code, resp)
	}
	if resp["acked_epoch"].(float64) != 20 {
		t.Fatalf("resync demand acked_epoch = %v, want 20", resp["acked_epoch"])
	}

	// First contact must be a full push: a delta for an unknown source
	// is a resync demand too (with no acked epoch to offer).
	code, resp = pushDeltaFrame(t, ts, "agg", "ghost", frame)
	if code != http.StatusConflict || resp["code"] != "resync_required" {
		t.Fatalf("first-contact delta: %d %v, want 409 resync_required", code, resp)
	}
	if _, has := resp["acked_epoch"]; has {
		t.Fatalf("first-contact resync offered an acked epoch: %v", resp)
	}

	// Garbage under the delta content type: 400 from the decoder.
	code, resp = pushDeltaFrame(t, ts, "agg", "n1", []byte("not a frame"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d %v, want 400", code, resp)
	}

	// The stored contribution survived all of the above untouched.
	if n := sourceN(t, ts, "agg", "n1"); n != snapB.N {
		t.Fatalf("contribution n = %d after rejected frames, want %d", n, snapB.N)
	}
}

// TestPusherDeltaResyncAfterAggregatorRestart: the follower holds an
// acked base, the aggregator restarts and forgets it; the pusher's next
// delta bounces with resync_required and the SAME attempt lands a full
// snapshot — one round trip, no lost interval.
func TestPusherDeltaResyncAfterAggregatorRestart(t *testing.T) {
	const r = 16
	folSrv := mustNew(t, Config{DefaultR: r})
	fol := httptest.NewServer(folSrv)
	t.Cleanup(fol.Close)
	ingest(t, fol, "clicks", workload.Take(workload.Disk(31, geom.Pt(0, 0), 1), 500))

	aggSrv := mustNew(t, Config{DefaultR: r})
	agg := httptest.NewServer(aggSrv)
	t.Cleanup(agg.Close)

	epoch := uint64(0)
	p, err := fanin.NewPusher(fanin.PusherConfig{
		Target: agg.URL, Source: "f1",
		Collect: folSrv.StreamSnapshots,
		Epoch:   func() uint64 { epoch++; return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	if err := p.PushOnce(ctx); err != nil { // full (first contact)
		t.Fatal(err)
	}
	if err := p.PushOnce(ctx); err != nil { // delta (acked base)
		t.Fatal(err)
	}
	if st := p.Stats(); st.DeltaPushes != 1 || st.FullPushes != 1 {
		t.Fatalf("stats before restart = %+v, want 1 delta / 1 full", st)
	}

	// Restart the aggregator in place: same URL, empty state.
	agg.Config.Handler = http.HandlerFunc(mustNew(t, Config{DefaultR: r}).ServeHTTP)
	for i := 0; i < 2; i++ { // first attempt may burn on the 404-create cycle
		if err = p.PushOnce(ctx); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("push after restart: %v", err)
	}
	st := p.Stats()
	if st.Resyncs == 0 && st.FullPushes < 2 {
		t.Fatalf("restart did not force a full resync: %+v", st)
	}
	code, detail := do(t, "GET", agg.URL+"/v1/streams/clicks", nil)
	if code != http.StatusOK || detail["n"].(float64) != 500 {
		t.Fatalf("restarted aggregator state: %d %v, want n=500", code, detail["n"])
	}
}
