package server

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/workload"
)

// cascadeNode is one tier member: a real server plus the pusher that
// forwards its state upstream (nil for the global root).
type cascadeNode struct {
	name   string
	srv    *Server
	ts     *httptest.Server
	pusher *fanin.Pusher
	epoch  uint64 // counter epoch base; restarts jump it forward
}

// newCascadeNode builds one tier member pushing to target (nil pusher
// when target is ""). Leaves push their plain streams; region nodes
// push their fan-in aggregates too (the cascade collect).
func newCascadeNode(t *testing.T, name, target string, epochBase uint64, aggregate bool) *cascadeNode {
	t.Helper()
	srv := mustNew(t, Config{DefaultR: 16})
	n := &cascadeNode{name: name, srv: srv, ts: httptest.NewServer(srv), epoch: epochBase}
	t.Cleanup(n.ts.Close)
	if target == "" {
		return n
	}
	collect := srv.StreamSnapshots
	if aggregate {
		collect = srv.StreamSnapshotsCascade
	}
	p, err := fanin.NewPusher(fanin.PusherConfig{
		Target: target, Source: name,
		Collect: collect,
		Epoch:   func() uint64 { n.epoch++; return n.epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.pusher = p
	return n
}

func (n *cascadeNode) push(t *testing.T) {
	t.Helper()
	if err := n.pusher.PushOnce(context.Background()); err != nil {
		t.Fatalf("%s: push: %v", n.name, err)
	}
}

// TestCascadeTopologies drives real leaf → region → global cascades —
// every hop a real server and a real pusher, deltas on — and asserts
// the global aggregate is bit-exact with a one-shot in-process
// MergeSnapshots composition over the same topology: each region is
// MergeSnapshots of its leaves' snapshots (leaves in name order), the
// global is MergeSnapshots of the region snapshots (regions in name
// order) — exactly the order the fan-in tables merge in. The oracle
// never touches the network, so the assertion isolates what the PR
// added: the delta wire, the ack/epoch discipline and restart
// supersede must contribute ZERO drift over clean in-process merging.
func TestCascadeTopologies(t *testing.T) {
	const r = 16
	cases := []struct {
		name    string
		regions map[string][]string // region name -> leaf names
		restart string              // leaf to restart mid-cascade ("" = none)
	}{
		{
			name:    "two leaves one region",
			regions: map[string][]string{"region-a": {"leaf-1", "leaf-2"}},
		},
		{
			name: "two regions three leaves",
			regions: map[string][]string{
				"region-a": {"leaf-1", "leaf-2"},
				"region-b": {"leaf-3"},
			},
		},
		{
			name: "leaf restart mid-cascade",
			regions: map[string][]string{
				"region-a": {"leaf-1", "leaf-2"},
				"region-b": {"leaf-3"},
			},
			restart: "leaf-2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			global := newCascadeNode(t, "global", "", 0, false)
			regionNames := make([]string, 0, len(tc.regions))
			for name := range tc.regions {
				regionNames = append(regionNames, name)
			}
			sort.Strings(regionNames)

			regions := make(map[string]*cascadeNode)
			leaves := make(map[string]*cascadeNode)
			leafRegion := make(map[string]string)
			for _, rn := range regionNames {
				regions[rn] = newCascadeNode(t, rn, global.ts.URL, 0, true)
				for _, ln := range tc.regions[rn] {
					leaves[ln] = newCascadeNode(t, ln, regions[rn].ts.URL, 0, false)
					leafRegion[ln] = rn
				}
			}

			// feed ingests a fresh batch into one leaf's stream.
			seedOf := map[string]int64{}
			feed := func(ln string, n int) {
				seedOf[ln]++
				pts := workload.Take(workload.Disk(seedOf[ln]*31+int64(len(ln)),
					geom.Pt(float64(len(ln)), float64(seedOf[ln])), 2), n)
				ingest(t, leaves[ln].ts, "metrics", pts)
			}
			// cascadeOnce runs one full propagation: leaves push, then
			// regions push their aggregates.
			cascadeOnce := func() {
				for _, ln := range sortedKeys(leaves) {
					leaves[ln].push(t)
				}
				for _, rn := range regionNames {
					regions[rn].push(t)
				}
			}
			// oracle composes one-shot merges over the CURRENT leaf
			// snapshots in cascade order and returns the expected global
			// sample.
			oracle := func() []geom.Point {
				var regionSnaps []streamhull.Snapshot
				for _, rn := range regionNames {
					lns := append([]string(nil), tc.regions[rn]...)
					sort.Strings(lns)
					var snaps []streamhull.Snapshot
					for _, ln := range lns {
						snaps = append(snaps, getSnapshot(t, leaves[ln].ts, "metrics"))
					}
					m, err := streamhull.MergeSnapshots(r, snaps...)
					if err != nil {
						t.Fatal(err)
					}
					regionSnaps = append(regionSnaps, m.Snapshot())
				}
				g, err := streamhull.MergeSnapshots(r, regionSnaps...)
				if err != nil {
					t.Fatal(err)
				}
				return g.Snapshot().Points
			}
			assertGlobal := func(stage string) {
				wantPts := oracle()
				got := getSnapshot(t, global.ts, "metrics")
				if len(got.Points) != len(wantPts) {
					t.Fatalf("%s: global sample has %d points, flat merge %d",
						stage, len(got.Points), len(wantPts))
				}
				for i := range got.Points {
					if got.Points[i] != wantPts[i] {
						t.Fatalf("%s: sample[%d] = %v, flat merge %v — not bit-exact",
							stage, i, got.Points[i], wantPts[i])
					}
				}
			}

			// Round 1: initial ingest everywhere, full pushes up the tiers.
			for ln := range leaves {
				feed(ln, 400)
			}
			cascadeOnce()
			assertGlobal("round 1")

			// Round 2: incremental ingest on every leaf — this round rides
			// delta frames on both hops.
			for ln := range leaves {
				feed(ln, 200)
			}
			cascadeOnce()
			assertGlobal("round 2")

			// The global tier really sees one source per REGION, not per
			// leaf: a leaf restart must propagate through its region only.
			detailCode, detail := do(t, "GET", global.ts.URL+"/v1/streams/metrics", nil)
			if detailCode != 200 {
				t.Fatalf("global detail: %d", detailCode)
			}
			if srcs := detail["sources"].([]any); len(srcs) != len(regionNames) {
				t.Fatalf("global sees %d sources, want %d regions", len(srcs), len(regionNames))
			}

			if tc.restart == "" {
				return
			}
			// Restart the leaf: a fresh server (its old stream state is
			// gone — in-memory follower), a fresh pusher whose epochs jump
			// far ahead (wall-clock epochs after a real restart), and new
			// data. The region supersedes the leaf's old contribution, the
			// region's own next push supersedes the region at the global
			// tier, and the flat oracle — computed from the CURRENT leaf
			// snapshots — must match again.
			rn := leafRegion[tc.restart]
			old := leaves[tc.restart]
			old.ts.Close()
			leaves[tc.restart] = newCascadeNode(t, tc.restart, regions[rn].ts.URL,
				old.epoch+1_000_000, false)
			feed(tc.restart, 250)
			cascadeOnce()
			assertGlobal("after leaf restart")
		})
	}
}

func sortedKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCascadeDeltaFramesOnBothHops pins that the cascade actually used
// the delta wire in steady state (not silently falling back to full
// pushes): after an acked push and an unchanged re-push, both tiers'
// pushers report delta pushes.
func TestCascadeDeltaFramesOnBothHops(t *testing.T) {
	global := newCascadeNode(t, "global", "", 0, false)
	region := newCascadeNode(t, "region-a", global.ts.URL, 0, true)
	leaf := newCascadeNode(t, "leaf-1", region.ts.URL, 0, false)

	ingest(t, leaf.ts, "metrics",
		workload.Take(workload.Disk(3, geom.Pt(0, 0), 1), 300))
	for round := 0; round < 3; round++ {
		leaf.push(t)
		region.push(t)
	}
	if st := leaf.pusher.Stats(); st.DeltaPushes == 0 {
		t.Errorf("leaf pusher sent no delta frames: %+v", st)
	}
	if st := region.pusher.Stats(); st.DeltaPushes == 0 {
		t.Errorf("region pusher sent no delta frames: %+v", st)
	}
	// And the delta bytes stayed below the full-snapshot bytes they
	// replaced: the whole point of the wire format.
	st := leaf.pusher.Stats()
	if st.BytesPushed == 0 {
		t.Fatal("no bytes accounted")
	}
	full := len(mustEncode(t, getSnapshot(t, leaf.ts, "metrics")))
	perPush := st.BytesPushed / st.Pushes
	if perPush >= uint64(full) {
		t.Errorf("mean bytes/push %d not below full snapshot %d", perPush, full)
	}
}

func mustEncode(t *testing.T, s streamhull.Snapshot) []byte {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
