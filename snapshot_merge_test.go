package streamhull_test

import (
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// These tests pin down the MergeSnapshots edge cases the windowed
// subsystem's bucket merging leans on: senders with different r, empty
// snapshots, and single-point snapshots.

func TestMergeSnapshotsDifferentR(t *testing.T) {
	coarse := streamhull.NewAdaptive(4)
	fine := streamhull.NewAdaptive(64)
	if _, err := coarse.InsertBatch(workload.Take(workload.Disk(1, geom.Pt(-2, 0), 1), 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := fine.InsertBatch(workload.Take(workload.Disk(2, geom.Pt(2, 0), 1), 3000)); err != nil {
		t.Fatal(err)
	}
	merged, err := streamhull.MergeSnapshots(16, coarse.Snapshot(), fine.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// The merged hull must span both disks regardless of the senders'
	// mismatched sample parameters.
	d, _ := merged.Hull().Diameter()
	if d < 5 || d > 6.2 {
		t.Fatalf("merged diameter %g, want ≈ 6 (two unit disks 4 apart)", d)
	}
	if merged.R() != 16 {
		t.Fatalf("merged r = %d, want the aggregator's 16", merged.R())
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	empty := streamhull.NewAdaptive(8).Snapshot()
	if len(empty.Points) != 0 {
		t.Fatalf("snapshot of a fresh summary has %d points", len(empty.Points))
	}

	// Merging nothing, or only empties, yields a working empty summary.
	for name, snaps := range map[string][]streamhull.Snapshot{
		"no snapshots": {},
		"two empties":  {empty, empty},
	} {
		merged, err := streamhull.MergeSnapshots(8, snaps...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !merged.Hull().IsEmpty() || merged.SampleSize() != 0 {
			t.Fatalf("%s: merged summary not empty", name)
		}
	}

	// An empty snapshot must not perturb a non-empty peer.
	full := streamhull.NewAdaptive(8)
	if _, err := full.InsertBatch(workload.Take(workload.Disk(3, geom.Point{}, 1), 1000)); err != nil {
		t.Fatal(err)
	}
	merged, err := streamhull.MergeSnapshots(8, full.Snapshot(), empty)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.Hull().Diameter()
	got, _ := merged.Hull().Diameter()
	if got < 0.8*want || got > want+1e-9 {
		t.Fatalf("merged diameter %g, want ≈ sender's %g", got, want)
	}
}

func TestMergeSnapshotsSinglePoint(t *testing.T) {
	one := streamhull.NewAdaptive(8)
	if err := one.Insert(geom.Pt(7, -3)); err != nil {
		t.Fatal(err)
	}
	snap := one.Snapshot()
	if len(snap.Points) == 0 {
		t.Fatal("single-point snapshot is empty")
	}

	// Single-point ⊕ single-point: a two-point (degenerate) hull.
	other := streamhull.NewAdaptive(8)
	if err := other.Insert(geom.Pt(-7, 3)); err != nil {
		t.Fatal(err)
	}
	merged, err := streamhull.MergeSnapshots(8, snap, other.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := merged.Hull().Diameter()
	if want := geom.Pt(7, -3).Dist(geom.Pt(-7, 3)); d < want-1e-9 || d > want+1e-9 {
		t.Fatalf("merged diameter %g, want %g", d, want)
	}

	// Single-point ⊕ full disk: the point is an outlier the merged hull
	// must retain exactly.
	disk := streamhull.NewAdaptive(8)
	if _, err := disk.InsertBatch(workload.Take(workload.Disk(4, geom.Point{}, 1), 1000)); err != nil {
		t.Fatal(err)
	}
	merged, err = streamhull.MergeSnapshots(8, snap, disk.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !merged.ContainsDefinitely(geom.Pt(7, -3)) {
		t.Fatal("merged hull lost the single-point sender's point")
	}
}
