package streamhull_test

import (
	"math"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

var _ streamhull.Summary = (*streamhull.WindowedHull)(nil)

// TestWindowedShrinksToLiveSuffix is the subsystem's acceptance test:
// after a far-away early phase expires, the windowed hull must match the
// hull of only the live suffix — inner-approximating it exactly (every
// windowed vertex is a real suffix point) and covering it up to the
// adaptive merge error, both measured against Exact hulls of the same
// points.
func TestWindowedShrinksToLiveSuffix(t *testing.T) {
	const r, win = 32, 2048
	w := streamhull.NewWindowedByCount(r, win)

	// Phase A: a huge disk at the origin; phase B: a unit disk far away.
	// A lifetime hull would keep phase A forever.
	phaseA := workload.Take(workload.Disk(1, geom.Point{}, 50), 6000)
	phaseB := workload.Take(workload.Disk(2, geom.Pt(1000, 0), 1), 6000)
	all := append(append([]geom.Point{}, phaseA...), phaseB...)
	if _, err := w.InsertBatch(all); err != nil {
		t.Fatal(err)
	}

	covered, _ := w.WindowSpan()
	if covered < win {
		t.Fatalf("window covers %d points, want ≥ %d", covered, win)
	}
	if covered > len(phaseB) {
		t.Fatalf("window covers %d points, exceeding the %d-point live phase", covered, len(phaseB))
	}

	hull := w.Hull()

	// Shrinkage: every windowed vertex lives in phase B's region; nothing
	// from the expired origin disk survives.
	for _, v := range hull.Vertices() {
		if v.X < 900 {
			t.Fatalf("windowed hull still holds expired-phase vertex %v", v)
		}
	}

	// Inner bound: the windowed hull's vertices are genuine stream points
	// from the covered suffix, so the Exact hull of that suffix contains
	// them (up to floating-point slack).
	exactCovered := streamhull.NewExact()
	if _, err := exactCovered.InsertBatch(all[len(all)-covered:]); err != nil {
		t.Fatal(err)
	}
	for _, v := range hull.Vertices() {
		if d := exactCovered.Hull().DistToPoint(v); d > 1e-9 {
			t.Fatalf("windowed vertex %v lies %g outside the exact covered-suffix hull", v, d)
		}
	}

	// Outer bound: the windowed hull covers the Exact hull of the strict
	// last-win points up to the compounded adaptive error, which is far
	// below the suffix diameter for r = 32.
	exactStrict := streamhull.NewExact()
	if _, err := exactStrict.InsertBatch(all[len(all)-win:]); err != nil {
		t.Fatal(err)
	}
	diam, _ := exactStrict.Hull().Diameter()
	tol := 0.05 * diam
	for _, v := range exactStrict.Hull().Vertices() {
		if d := hull.DistToPoint(v); d > tol {
			t.Fatalf("strict-suffix hull vertex %v lies %g outside the windowed hull (tol %g)", v, d, tol)
		}
	}
}

func TestWindowedByCountBasics(t *testing.T) {
	w := streamhull.NewWindowedByCount(8, 100)
	if w.R() != 8 {
		t.Fatalf("R = %d, want 8", w.R())
	}
	if !w.Hull().IsEmpty() || w.N() != 0 || w.SampleSize() != 0 {
		t.Fatal("fresh windowed summary is not empty")
	}
	if err := w.Insert(geom.Pt(math.NaN(), 0)); err == nil {
		t.Fatal("Insert accepted a NaN point")
	}
	pts := workload.Take(workload.Disk(3, geom.Point{}, 1), 5000)
	if _, err := w.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if w.N() != 5000 {
		t.Fatalf("N = %d, want lifetime 5000", w.N())
	}
	count, _ := w.WindowSpan()
	if count < 100 || count > 1000 {
		t.Fatalf("window covers %d points, want near 100", count)
	}
	// Small space: nowhere near the 5000 raw points.
	if s := w.SampleSize(); s == 0 || s > 600 {
		t.Fatalf("SampleSize = %d, want small and positive", s)
	}
	if b := w.Buckets(); b == 0 || b > 40 {
		t.Fatalf("Buckets = %d, want O(log n)", b)
	}
	if st := w.WindowStats(); st.Expired == 0 {
		t.Fatalf("expected expiry activity, got %+v", st)
	}

	// A window big enough to hold many sealed buckets also exercises the
	// merge cascade.
	wide := streamhull.NewWindowedByCount(8, 1000)
	if _, err := wide.InsertBatch(workload.Take(workload.Disk(4, geom.Point{}, 1), 20000)); err != nil {
		t.Fatal(err)
	}
	if st := wide.WindowStats(); st.Expired == 0 || st.Merges == 0 {
		t.Fatalf("expected expiry and merge activity, got %+v", st)
	}
}

func TestWindowedByTime(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	w := streamhull.NewWindowedByTime(8, time.Minute, clock)

	// An early cluster far away, then a steady recent cluster.
	for i := 0; i < 200; i++ {
		now = now.Add(100 * time.Millisecond)
		if err := w.Insert(geom.Pt(500+float64(i%7), float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Minute) // early cluster ages out
	for i := 0; i < 200; i++ {
		now = now.Add(100 * time.Millisecond)
		if err := w.Insert(geom.Pt(float64(i%7), float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	hull := w.Hull()
	for _, v := range hull.Vertices() {
		if v.X > 100 {
			t.Fatalf("time window kept expired vertex %v", v)
		}
	}
	count, age := w.WindowSpan()
	if count == 0 || age > 2*time.Minute {
		t.Fatalf("WindowSpan = (%d, %v), want recent coverage within ~1m", count, age)
	}

	// Idle expiry: with the clock far ahead, every accessor must observe
	// the drained window without any insert or explicit Expire call.
	now = now.Add(time.Hour)
	if c := w.WindowCount(); c != 0 {
		t.Fatalf("WindowCount = %d on a fully aged-out window, want 0", c)
	}
	if s := w.SampleSize(); s != 0 {
		t.Fatalf("SampleSize = %d on a fully aged-out window, want 0", s)
	}
	if dropped := w.Expire(); dropped != 0 {
		t.Fatalf("Expire dropped %d buckets the accessors should already have drained", dropped)
	}
	if !w.Hull().IsEmpty() {
		t.Fatal("hull not empty after the whole window expired")
	}
	if w.N() != 400 {
		t.Fatalf("N = %d, want lifetime 400", w.N())
	}
	if !w.ByTime() {
		t.Fatal("time window reports ByTime() == false")
	}
}

func TestWindowedSnapshotAndMerge(t *testing.T) {
	w := streamhull.NewWindowedByCount(8, 500)
	pts := workload.Take(workload.Disk(9, geom.Pt(3, 4), 2), 2000)
	if _, err := w.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Kind != "windowed" {
		t.Fatalf("snapshot kind = %q, want windowed", snap.Kind)
	}
	if len(snap.Angles) != len(snap.Points) || len(snap.Points) == 0 {
		t.Fatalf("snapshot has %d angles, %d points", len(snap.Angles), len(snap.Points))
	}
	count, _ := w.WindowSpan()
	if snap.N != count {
		t.Fatalf("snapshot N = %d, want window count %d", snap.N, count)
	}
	// Snapshots survive the wire and merge like any other summary's.
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := streamhull.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := streamhull.MergeSnapshots(8, back)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := merged.Hull().Diameter()
	wd, _ := w.Hull().Diameter()
	if math.Abs(d-wd) > 0.5 {
		t.Fatalf("merged snapshot diameter %g, window diameter %g", d, wd)
	}
}

// TestWindowedPairTracker checks that windowed summaries drop into the
// two-stream machinery unchanged: once stream A's faraway early phase
// expires, the pair becomes separable.
func TestWindowedPairTracker(t *testing.T) {
	a := streamhull.NewWindowedByCount(8, 200)
	b := streamhull.NewWindowedByCount(8, 200)
	tr := streamhull.NewPairTracker(a, b)

	// A starts overlapping B's region, then drifts far left; B stays put.
	for _, p := range workload.Take(workload.Disk(11, geom.Pt(0, 0), 1), 500) {
		if err := tr.InsertA(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range workload.Take(workload.Disk(12, geom.Pt(0, 0), 1), 500) {
		if err := tr.InsertB(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, sep := tr.Separable(); sep {
		t.Fatal("coincident windows reported separable")
	}
	for _, p := range workload.Take(workload.Disk(13, geom.Pt(-50, 0), 1), 1000) {
		if err := tr.InsertA(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, sep := tr.Separable(); !sep {
		t.Fatal("after A's window drifted away, pair still not separable")
	}
	d, _ := tr.Distance()
	if d < 10 {
		t.Fatalf("hull distance %g, want the windows well apart", d)
	}
}
