package streamhull

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// Compile-time interface conformance.
var (
	_ Summary = (*AdaptiveHull)(nil)
	_ Summary = (*UniformHull)(nil)
	_ Summary = (*PartialHull)(nil)
	_ Summary = (*ExactHull)(nil)
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAdaptiveEndToEnd(t *testing.T) {
	pts := workload.Take(workload.Disk(1, geom.Pt(0, 0), 1), 20000)
	s := NewAdaptive(16)
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if s.N() != len(pts) {
		t.Errorf("N = %d", s.N())
	}
	if got := s.SampleSize(); got > 2*16+1 {
		t.Errorf("SampleSize = %d > 2r+1", got)
	}
	exact := NewExact()
	if _, err := exact.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	truth := exact.Hull()
	hull := s.Hull()
	// Sampled hull inside the true hull.
	for _, v := range hull.Vertices() {
		if truth.DistToPoint(v) > 1e-9 {
			t.Fatalf("sampled vertex %v outside exact hull", v)
		}
	}
	// Diameter within the paper's (1+O(1/r²)) factor; generous envelope.
	dTrue, _ := truth.Diameter()
	dGot, _ := hull.Diameter()
	if dGot > dTrue+1e-12 || dGot < dTrue*(1-0.05) {
		t.Errorf("diameter %v vs true %v", dGot, dTrue)
	}
	// Error bound is reported and small relative to the diameter.
	if eb := s.ErrorBound(); eb <= 0 || eb > dTrue/10 {
		t.Errorf("ErrorBound = %v (diameter %v)", eb, dTrue)
	}
}

func TestInsertRejectsNonFinite(t *testing.T) {
	summaries := []Summary{
		NewAdaptive(8), NewUniform(8), NewPartial(8, 10, 0), NewExact(),
	}
	bad := []geom.Point{
		geom.Pt(math.NaN(), 0), geom.Pt(0, math.Inf(1)), geom.Pt(math.Inf(-1), math.NaN()),
	}
	for _, s := range summaries {
		for _, p := range bad {
			if err := s.Insert(p); err == nil {
				t.Errorf("%T accepted %v", s, p)
			}
		}
		if s.N() != 0 {
			t.Errorf("%T counted rejected points", s)
		}
	}
}

func TestPolygonQueriesOnKnownShape(t *testing.T) {
	// 4×2 rectangle.
	rect := HullOf([]geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(0, 2),
	})
	if d, _ := rect.Diameter(); !almostEq(d, math.Sqrt(20), 1e-12) {
		t.Errorf("Diameter = %v", d)
	}
	if w, _ := rect.Width(); !almostEq(w, 2, 1e-12) {
		t.Errorf("Width = %v", w)
	}
	if e := rect.Extent(0); !almostEq(e, 4, 1e-12) {
		t.Errorf("Extent(0) = %v", e)
	}
	if e := rect.Extent(math.Pi / 2); !almostEq(e, 2, 1e-12) {
		t.Errorf("Extent(π/2) = %v", e)
	}
	if a := rect.Area(); !almostEq(a, 8, 1e-12) {
		t.Errorf("Area = %v", a)
	}
	if !rect.Contains(geom.Pt(2, 1)) || rect.Contains(geom.Pt(5, 1)) {
		t.Error("Contains wrong")
	}
	c, r := rect.EnclosingCircle()
	if !almostEq(r, math.Sqrt(5), 1e-9) || c.Dist(geom.Pt(2, 1)) > 1e-9 {
		t.Errorf("EnclosingCircle = %v, %v", c, r)
	}
	far, fd := rect.FarthestFrom(geom.Pt(0, 0))
	if !far.Eq(geom.Pt(4, 2)) || !almostEq(fd, math.Sqrt(20), 1e-12) {
		t.Errorf("FarthestFrom = %v, %v", far, fd)
	}
}

func TestPairTrackerSeparation(t *testing.T) {
	a := NewAdaptive(8)
	b := NewAdaptive(8)
	tr := NewPairTracker(a, b)
	for i := 0; i < 500; i++ {
		p := workloadPoint(i, -5, 0)
		q := workloadPoint(i, 5, 0)
		if err := tr.InsertA(p); err != nil {
			t.Fatal(err)
		}
		if err := tr.InsertB(q); err != nil {
			t.Fatal(err)
		}
	}
	d, pair := tr.Distance()
	if d <= 0 || d > 10 {
		t.Errorf("Distance = %v", d)
	}
	if !almostEq(pair[0].Dist(pair[1]), d, 1e-9) {
		t.Errorf("witness pair does not realize distance")
	}
	line, ok := tr.Separable()
	if !ok {
		t.Fatal("clusters should be separable")
	}
	for _, v := range a.Hull().Vertices() {
		if line.Side(v) >= 0 {
			t.Error("A vertex on wrong side of certificate")
		}
	}
	if tr.AContainsB() || tr.BContainsA() {
		t.Error("containment reported for disjoint clusters")
	}
	if area, _, _ := tr.Overlap(); area != 0 {
		t.Errorf("Overlap area = %v for disjoint clusters", area)
	}
}

func workloadPoint(i int, cx, cy float64) geom.Point {
	rng := rand.New(rand.NewSource(int64(i)))
	return geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64())
}

func TestPairTrackerContainment(t *testing.T) {
	a := NewAdaptive(8)
	b := NewAdaptive(8)
	tr := NewPairTracker(a, b)
	big := workload.Take(workload.Disk(3, geom.Point{}, 10), 2000)
	small := workload.Take(workload.Disk(4, geom.Point{}, 1), 2000)
	for i := range big {
		_ = tr.InsertA(big[i])
		_ = tr.InsertB(small[i])
	}
	if !tr.AContainsB() {
		t.Error("big disk should contain small disk")
	}
	if tr.BContainsA() {
		t.Error("small disk cannot contain big disk")
	}
	_, fracA, fracB := tr.Overlap()
	if fracB < 0.95 {
		t.Errorf("small hull only %.2f covered by overlap", fracB)
	}
	if fracA > 0.05 {
		t.Errorf("overlap covers %.2f of big hull", fracA)
	}
}

func TestSeparationMonitorDetectsLoss(t *testing.T) {
	m := NewSeparationMonitor(NewAdaptive(8), NewAdaptive(8))
	// Two clusters approaching each other until they interpenetrate.
	for i := 0; i < 400; i++ {
		x := 6 - float64(i)*0.03 // cluster centers at ±x, meet around i=200
		rng := rand.New(rand.NewSource(int64(i)))
		_ = m.InsertA(geom.Pt(-x+rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
		_ = m.InsertB(geom.Pt(x+rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
	}
	events := m.Events()
	if len(events) == 0 {
		t.Fatal("no separation events recorded")
	}
	if !events[0].Separable {
		t.Error("streams should start separable")
	}
	lost := false
	for _, e := range events {
		if !e.Separable {
			lost = true
		}
	}
	if !lost {
		t.Error("separability loss never detected")
	}
	if m.Separable() {
		t.Error("streams should end non-separable")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewAdaptive(8)
	pts := workload.Take(workload.Ellipse(5, 2, 0.25, 0.4), 5000)
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Kind != "adaptive" || snap.N != 5000 || len(snap.Angles) != len(snap.Points) {
		t.Fatalf("snapshot = %+v", snap)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(snap.Points) || back.R != snap.R {
		t.Error("round trip lost data")
	}
	// The snapshot hull matches the summary hull.
	if math.Abs(back.Hull().Area()-s.Hull().Area()) > 1e-9 {
		t.Error("snapshot hull differs from summary hull")
	}
}

func TestDecodeSnapshotRejectsBad(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("{")); err == nil {
		t.Error("accepted truncated JSON")
	}
	if _, err := DecodeSnapshot([]byte(`{"angles":[1],"points":[]}`)); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := DecodeSnapshot([]byte(`{"angles":[1],"points":[{"X":null,"Y":0}]}`)); err == nil {
		t.Logf("null coordinate decoded as 0; acceptable")
	}
}

func TestMergeSnapshots(t *testing.T) {
	left := NewAdaptive(8)
	right := NewAdaptive(8)
	_, _ = left.InsertBatch(workload.Take(workload.Disk(6, geom.Pt(-3, 0), 1), 3000))
	_, _ = right.InsertBatch(workload.Take(workload.Disk(7, geom.Pt(3, 0), 1), 3000))
	merged, err := MergeSnapshots(8, left.Snapshot(), right.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	hull := merged.Hull()
	// The merged hull must span both disks.
	if e := hull.Extent(0); e < 7 {
		t.Errorf("merged extent %v; want ≈ 8", e)
	}
	if !hull.Contains(geom.Pt(-3, 0)) || !hull.Contains(geom.Pt(3, 0)) {
		t.Error("merged hull misses a disk center")
	}
}

func TestExactHullMatchesBatch(t *testing.T) {
	pts := workload.Take(workload.Gaussian(8, geom.Point{}, 2), 3000)
	s := NewExact()
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	want := HullOf(pts)
	got := s.Hull()
	if math.Abs(got.Area()-want.Area()) > 1e-9 {
		t.Errorf("exact streaming area %v vs batch %v", got.Area(), want.Area())
	}
	if got.Len() != want.Len() {
		t.Errorf("vertex counts differ: %d vs %d", got.Len(), want.Len())
	}
}

func TestAdaptiveStatic(t *testing.T) {
	pts := workload.Take(workload.Square(9, 1, 0.2), 5000)
	s, err := NewAdaptiveStatic(pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SampleSize(); got > 33 {
		t.Errorf("static sample size %d", got)
	}
	if _, err := NewAdaptiveStatic([]geom.Point{geom.Pt(math.NaN(), 0)}, 16); err == nil {
		t.Error("static accepted NaN")
	}
}

func TestConcurrentInserts(t *testing.T) {
	s := NewAdaptive(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			pts := workload.Take(workload.Disk(seed, geom.Point{}, 1), 2000)
			for _, p := range pts {
				_ = s.Insert(p)
			}
		}(int64(w))
	}
	wg.Wait()
	if s.N() != 8000 {
		t.Errorf("N = %d after concurrent inserts", s.N())
	}
	if got := s.SampleSize(); got > 33 {
		t.Errorf("sample size %d", got)
	}
}

func TestUniformVsAdaptiveErrorOrdering(t *testing.T) {
	// On a thin rotated ellipse, the adaptive summary's reported error
	// bound must beat the uniform summary's at equal sample budget.
	pts := workload.Take(workload.Ellipse(10, 1, 1.0/16, geom.TwoPi/64), 30000)
	ad := mustAdaptive(t, Spec{Kind: KindAdaptive, R: 16, FixedBudget: 32})
	un := NewUniform(32)
	for _, p := range pts {
		_ = ad.Insert(p)
		_ = un.Insert(p)
	}
	if ad.ErrorBound() >= un.ErrorBound() {
		t.Errorf("adaptive bound %v not better than uniform %v", ad.ErrorBound(), un.ErrorBound())
	}
}
