package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/faults"
	"github.com/streamgeom/streamhull/internal/workload"
)

// soakFollower is one simulated follower node: a live adaptive summary
// fed rounds of points, pushed through a fault-injecting transport.
type soakFollower struct {
	name   string
	sum    *streamhull.AdaptiveHull
	faults *faults.Transport
	pusher *fanin.Pusher
	feed   func(n int) []geom.Point
}

func (f *soakFollower) collect(stream string, r int) func() []fanin.StreamSnapshot {
	return func() []fanin.StreamSnapshot {
		snap := f.sum.Snapshot()
		data, err := snap.Encode()
		if err != nil {
			panic(err)
		}
		return []fanin.StreamSnapshot{{
			Stream: stream, R: r, Data: data, N: snap.N, Points: snap.Points,
		}}
	}
}

// TestFanInFaultSoakConvergence is the proof-layer soak: several
// followers push through a transport that drops, delays, duplicates and
// replays their frames on a seeded schedule — delta frames, full
// snapshots and create calls alike — with followers occasionally
// partitioned away entirely. Once the faults heal and every follower
// lands one clean push, the aggregate must be BIT-EXACT with a one-shot
// MergeSnapshots of the followers' final snapshots: at-least-once,
// out-of-order delivery may delay convergence but never corrupt it.
func TestFanInFaultSoakConvergence(t *testing.T) {
	const (
		r         = 16
		stream    = "soak"
		followers = 3
		rounds    = 8
		seed      = 42
	)
	srv := mustNew(t, Config{DefaultR: r})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(seed))
	fols := make([]*soakFollower, followers)
	for i := range fols {
		f := &soakFollower{
			name: fmt.Sprintf("f%d", i),
			sum:  streamhull.NewAdaptive(r),
		}
		f.faults = faults.New(faults.Config{
			Seed:      seed + int64(i),
			DropProb:  0.30,
			DelayProb: 0.20,
			MaxDelay:  3 * time.Millisecond,
			DupProb:   0.30,
			// Replays resend stale frames AFTER newer ones landed — the
			// duplicated+reordered case the epoch rules must absorb.
			ReplayProb: 0.30,
		})
		gen := workload.Disk(seed+int64(i)*7, geom.Pt(float64(i), -float64(i)), 2)
		f.feed = func(n int) []geom.Point { return workload.Take(gen, n) }
		epoch := uint64(0)
		p, err := fanin.NewPusher(fanin.PusherConfig{
			Target: ts.URL, Source: f.name,
			Collect: f.collect(stream, r),
			Client:  &http.Client{Transport: f.faults, Timeout: 5 * time.Second},
			Epoch:   func() uint64 { epoch++; return epoch },
			// Keep in-tick retries short: the soak wants frames LOST, not
			// patiently recovered, so convergence rests on the epoch rules.
			MaxRetries: 1, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.pusher = p
		fols[i] = f
	}

	// Chaos phase: ingest and push round after round; pushes are allowed
	// to fail, duplicate and arrive stale. Random followers drop off the
	// network for a round and return.
	for round := 0; round < rounds; round++ {
		for _, f := range fols {
			if _, err := f.sum.InsertBatch(f.feed(150)); err != nil {
				t.Fatal(err)
			}
			f.faults.SetPartitioned(rng.Float64() < 0.2)
			_ = f.pusher.PushOnce(context.Background()) // failures are the point
		}
	}

	// Heal: faults off, partitions lifted, one clean push each.
	var injected uint64
	for _, f := range fols {
		st := f.faults.Stats()
		injected += st.Drops + st.Dups + st.Replays + st.Partitioned
		f.faults.SetPartitioned(false)
		f.faults.SetEnabled(false)
		if err := f.pusher.PushOnce(context.Background()); err != nil {
			t.Fatalf("%s: healed push failed: %v", f.name, err)
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing — the soak soaked nothing")
	}
	t.Logf("faults injected across followers: %d", injected)

	// Oracle: one-shot merge of the followers' FINAL snapshots, in
	// source-name order (f0 < f1 < f2 — already the slice order).
	finals := make([]streamhull.Snapshot, followers)
	wantN := 0
	for i, f := range fols {
		finals[i] = f.sum.Snapshot()
		wantN += finals[i].N
	}
	oneShot, err := streamhull.MergeSnapshots(r, finals...)
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot.Snapshot()

	got := getSnapshot(t, ts, stream)
	if got.N != wantN {
		t.Errorf("aggregate N = %d, want %d (sum of follower counts)", got.N, wantN)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("aggregate sample has %d points, one-shot merge %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("sample[%d] = %v, one-shot merge %v — not bit-exact", i, got.Points[i], want.Points[i])
		}
	}

	// The merged hulls agree vertex-for-vertex too.
	wantHull := oneShot.Hull().Vertices()
	gotHull, _ := hullVertices(t, ts, stream)
	if len(gotHull) != len(wantHull) {
		t.Fatalf("aggregate hull has %d vertices, one-shot merge %d", len(gotHull), len(wantHull))
	}
	for i := range gotHull {
		xy := gotHull[i].([]any)
		if xy[0].(float64) != wantHull[i].X || xy[1].(float64) != wantHull[i].Y {
			t.Fatalf("hull vertex %d: %v vs %v", i, xy, wantHull[i])
		}
	}
}

// getSnapshot GETs and decodes one stream's snapshot.
func getSnapshot(t *testing.T, ts *httptest.Server, stream string) streamhull.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/streams/" + stream + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %d: %s", resp.StatusCode, data)
	}
	snap, err := streamhull.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFanInPullThroughFaultyTransport drives the aggregator-initiated
// pull path through a partitioned-then-healed transport: the pull fails
// and backs off while the partition holds, then lands once it lifts,
// refreshing the quiet source's contribution.
func TestFanInPullThroughFaultyTransport(t *testing.T) {
	const r = 16
	// The follower side: a real server owning the stream to be pulled.
	folSrv := mustNew(t, Config{DefaultR: r})
	fol := httptest.NewServer(folSrv)
	t.Cleanup(fol.Close)
	pts := workload.Take(workload.Disk(7, geom.Pt(0, 0), 1), 400)
	ingest(t, fol, "clicks", pts)

	ft := faults.New(faults.Config{Seed: 7})
	ft.SetEnabled(false)    // pass-through...
	ft.SetPartitioned(true) // ...but partitioned away

	aggSrv := mustNew(t, Config{
		DefaultR:   r,
		PullAfter:  50 * time.Millisecond,
		PullClient: &http.Client{Transport: ft, Timeout: 2 * time.Second},
	})
	t.Cleanup(func() { _ = aggSrv.Close() })
	agg := httptest.NewServer(aggSrv)
	t.Cleanup(agg.Close)

	// One manual push that advertises the follower's address, then
	// silence: the source's lag crosses PullAfter and the puller takes
	// over.
	createFanIn(t, agg, "clicks", r)
	seedSnap := donor(t, r, pts[:10])
	data, err := seedSnap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	u := fmt.Sprintf("%s/v1/streams/clicks/snapshot?source=quiet&epoch=1&addr=%s", agg.URL, fol.URL)
	resp, err := http.Post(u, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed push: %d", resp.StatusCode)
	}

	// Partitioned: pulls must be failing, not landing.
	deadline := time.Now().Add(3 * time.Second)
	for ft.Stats().Partitioned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("puller never attempted a pull through the partition")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := sourceN(t, agg, "clicks", "quiet"); n != 10 {
		t.Fatalf("partitioned pull changed the contribution: n=%d", n)
	}

	// Heal the partition: the next (backed-off) pull fetches the
	// follower's full 400-point stream.
	ft.SetPartitioned(false)
	for sourceN(t, agg, "clicks", "quiet") != 400 {
		if time.Now().After(deadline.Add(5 * time.Second)) {
			t.Fatalf("pull never refreshed the source: n=%d", sourceN(t, agg, "clicks", "quiet"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The detail response records the pull.
	code, detail := do(t, "GET", agg.URL+"/v1/streams/clicks", nil)
	if code != http.StatusOK {
		t.Fatalf("detail: %d", code)
	}
	src := detail["sources"].([]any)[0].(map[string]any)
	if src["addr"] != fol.URL {
		t.Errorf("source addr = %v, want %s", src["addr"], fol.URL)
	}
	if p, ok := src["pulls"].(float64); !ok || p < 1 {
		t.Errorf("source pulls = %v, want >= 1", src["pulls"])
	}
}

// sourceN reads one source's contributed n from the stream detail.
func sourceN(t *testing.T, ts *httptest.Server, stream, source string) int {
	t.Helper()
	code, detail := do(t, "GET", ts.URL+"/v1/streams/"+stream, nil)
	if code != http.StatusOK {
		t.Fatalf("detail: %d", code)
	}
	srcs, _ := detail["sources"].([]any)
	for _, s := range srcs {
		m := s.(map[string]any)
		if m["source"] == source {
			return int(m["n"].(float64))
		}
	}
	return -1
}
