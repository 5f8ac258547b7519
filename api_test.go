package streamhull

import (
	"math"
	"testing"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// mustAdaptive builds the adaptive summary spec describes through New.
func mustAdaptive(t testing.TB, spec Spec) *AdaptiveHull {
	t.Helper()
	sum, err := New(spec)
	if err != nil {
		t.Fatalf("New(%s): %v", spec, err)
	}
	return sum.(*AdaptiveHull)
}

// TestAdaptiveAccessors exercises the informational API surface.
func TestAdaptiveAccessors(t *testing.T) {
	s := mustAdaptive(t, Spec{Kind: KindAdaptive, R: 8, HeightLimit: 2, BoundedWork: 4})
	if s.R() != 8 {
		t.Errorf("R = %d", s.R())
	}
	pts := workload.Take(workload.Ellipse(1, 1, 0.2, 0.3), 5000)
	for _, p := range pts {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	dirs := s.Directions()
	if len(dirs) < 8 {
		t.Errorf("only %d directions", len(dirs))
	}
	for i := 1; i < len(dirs); i++ {
		if dirs[i-1] >= dirs[i] {
			t.Fatalf("directions not increasing at %d", i)
		}
	}
	tris := s.Triangles()
	if len(tris) == 0 {
		t.Error("no triangles")
	}
	maxH := 0.0
	for _, tr := range tris {
		maxH = math.Max(maxH, tr.Height)
	}
	if got := s.ErrorBound(); got != maxH {
		t.Errorf("ErrorBound %v != max triangle height %v", got, maxH)
	}
	st := s.Stats()
	if st.Points != 5000 || st.GapRebuilds == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUniformAccessors(t *testing.T) {
	s := NewUniform(12)
	if got := len(s.Directions()); got != 12 {
		t.Errorf("Directions = %d", got)
	}
	if s.Triangles() != nil {
		t.Error("triangles before any point")
	}
	_ = s.Insert(geom.Pt(1, 0))
	_ = s.Insert(geom.Pt(-1, 0.5))
	if s.ErrorBound() < 0 {
		t.Error("negative error bound")
	}
	snap := s.Snapshot()
	if snap.Kind != "uniform" || len(snap.Points) != 12 {
		t.Errorf("snapshot = %+v", snap)
	}
	if s.SampleSize() != 2 {
		t.Errorf("SampleSize = %d", s.SampleSize())
	}
}

func TestFixedDirectionsSummary(t *testing.T) {
	s := NewFixedDirections([]float64{0, 1, 2, 3, 4, 5})
	pts := workload.Take(workload.Disk(2, geom.Point{}, 1), 1000)
	for _, p := range pts {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.N() != 1000 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Hull().Len(); got < 3 || got > 6 {
		t.Errorf("hull has %d vertices", got)
	}
}

func TestExactHullAccessors(t *testing.T) {
	s := NewExact()
	if got := s.SampleSize(); got != 0 {
		t.Errorf("empty SampleSize = %d", got)
	}
	_ = s.Insert(geom.Pt(0, 0))
	_ = s.Insert(geom.Pt(1, 0))
	_ = s.Insert(geom.Pt(0, 1))
	_ = s.Insert(geom.Pt(0.1, 0.1))
	if got := s.SampleSize(); got != 3 {
		t.Errorf("SampleSize = %d", got)
	}
}

func TestPartialAccessors(t *testing.T) {
	s := NewPartial(8, 50, 16)
	pts := workload.Take(workload.Ellipse(3, 1, 0.1, 0.2), 200)
	for _, p := range pts {
		_ = s.Insert(p)
	}
	if !s.Frozen() {
		t.Error("not frozen")
	}
	if got := len(s.Directions()); got != 16 {
		t.Errorf("frozen directions = %d", got)
	}
	if s.ErrorBound() <= 0 {
		t.Error("no error bound")
	}
	if s.SampleSize() == 0 || s.Hull().IsEmpty() {
		t.Error("empty summary after stream")
	}
}

// TestHeightLimitTradeoff: a smaller height limit must not beat the full
// height limit on an eccentric stream (it bounds how adaptive the summary
// can get).
func TestHeightLimitTradeoff(t *testing.T) {
	pts := workload.Take(workload.Ellipse(4, 1, 1.0/64, 0.1), 30000)
	shallow := mustAdaptive(t, Spec{Kind: KindAdaptive, R: 64, HeightLimit: 1})
	deep := NewAdaptive(64) // k = log2 r = 6
	for _, p := range pts {
		_ = shallow.Insert(p)
		_ = deep.Insert(p)
	}
	if deep.ErrorBound() > shallow.ErrorBound() {
		t.Errorf("deep refinement bound %v worse than shallow %v",
			deep.ErrorBound(), shallow.ErrorBound())
	}
}
