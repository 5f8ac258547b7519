package streamhull_test

import (
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

func TestUniformRestoreIsExact(t *testing.T) {
	u := streamhull.NewUniform(24)
	for _, p := range workload.Take(workload.Disk(3, geom.Pt(0, 0), 1), 5000) {
		if err := u.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := u.Snapshot()
	got, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != u.N() {
		t.Fatalf("restored N = %d, want %d", got.N(), u.N())
	}
	hu, hg := u.Hull().Vertices(), got.Hull().Vertices()
	if len(hu) != len(hg) {
		t.Fatalf("restored hull has %d vertices, want %d", len(hg), len(hu))
	}
	for i := range hu {
		if hu[i] != hg[i] {
			t.Fatalf("vertex %d: %v != %v", i, hg[i], hu[i])
		}
	}
}

func TestAdaptiveRestoreDeterministicAndBounded(t *testing.T) {
	a := streamhull.NewAdaptive(16)
	for _, p := range workload.Take(workload.Ellipse(4, 1, 0.1, 0.2), 20000) {
		if err := a.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.Snapshot()
	r1, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r1.N() != a.N() {
		t.Fatalf("restored N = %d, want %d", r1.N(), a.N())
	}
	// Restores are deterministic: same snapshot, same hull.
	v1, v2 := r1.Hull().Vertices(), r2.Hull().Vertices()
	if len(v1) != len(v2) {
		t.Fatalf("restores disagree: %d vs %d vertices", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("restores disagree at vertex %d", i)
		}
	}
	// The restored hull stays inside the original summary's hull (its
	// points are the original samples) and close to it.
	orig := a.Hull()
	for _, v := range v1 {
		if !orig.Contains(v) {
			t.Fatalf("restored vertex %v escapes the original hull", v)
		}
	}
	if orig.Area() > 0 {
		if got := r1.Hull().Area(); got < 0.9*orig.Area() {
			t.Fatalf("restored hull area %v collapsed vs original %v", got, orig.Area())
		}
	}
}

func TestSummaryFromSnapshotDispatch(t *testing.T) {
	if _, err := streamhull.SummaryFromSnapshot(streamhull.Snapshot{Kind: "windowed"}); err == nil {
		t.Fatal("windowed snapshot restore should fail")
	}
	if _, err := streamhull.SummaryFromSnapshot(streamhull.Snapshot{Kind: "adaptive", R: 2}); err == nil {
		t.Fatal("undersized r should fail")
	}
	a := streamhull.NewAdaptive(8)
	_ = a.Insert(geom.Pt(1, 2))
	_ = a.Insert(geom.Pt(3, -1))
	sum, err := streamhull.SummaryFromSnapshot(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sum.(*streamhull.AdaptiveHull); !ok {
		t.Fatalf("dispatched to %T", sum)
	}
}
