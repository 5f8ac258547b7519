package streamhull

import (
	"sync"
	"sync/atomic"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/fixeddir"
	"github.com/streamgeom/streamhull/internal/uncert"
)

// UniformHull is the classical uniformly sampled hull (§3): running
// extrema in r evenly spaced directions, Θ(D/r) hull error. It is the
// baseline the adaptive summary improves on by an order of magnitude.
type UniformHull struct {
	mu    sync.Mutex
	h     *fixeddir.Hull
	epoch atomic.Uint64
}

// buildUniform constructs a uniform summary from an already validated
// Spec (see New).
func buildUniform(spec Spec) *UniformHull {
	return &UniformHull{h: fixeddir.NewUniform(spec.R)}
}

// NewUniform returns a uniform summary with r ≥ 3 sample directions. It
// is a thin wrapper over New(Spec); it panics on invalid parameters
// where New returns an error.
func NewUniform(r int) *UniformHull {
	spec := Spec{Kind: KindUniform, R: r}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return buildUniform(spec)
}

// NewFixedDirections returns a summary sampling an arbitrary fixed set of
// directions (angles in [0, 2π), strictly increasing, at least 3). An
// arbitrary direction set has no Spec representation; Spec reports the
// summary as a uniform summary with the same direction count.
func NewFixedDirections(angles []float64) *UniformHull {
	return &UniformHull{h: fixeddir.NewFromAngles(angles)}
}

// Spec returns the summary's serializable description.
func (s *UniformHull) Spec() Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Spec{Kind: KindUniform, R: s.h.DirCount()}
}

// Insert processes one stream point.
func (s *UniformHull) Insert(p geom.Point) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	s.mu.Lock()
	s.h.Insert(p)
	s.epoch.Add(1)
	s.mu.Unlock()
	return nil
}

// InsertBatch processes a batch of stream points under one lock
// acquisition, prefiltered to the batch's convex hull (the running
// extrema can only come from the batch's extreme points). The batch is
// validated first, so an error means nothing was applied.
func (s *UniformHull) InsertBatch(pts []geom.Point) (int, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	n := s.h.N()
	for _, p := range convex.ExtremeCandidates(pts) {
		s.h.Insert(p)
	}
	s.h.SetN(n + len(pts))
	s.epoch.Add(1)
	s.mu.Unlock()
	return len(pts), nil
}

// Epoch returns the summary's mutation counter.
func (s *UniformHull) Epoch() uint64 { return s.epoch.Load() }

// Hull returns the current sampled convex hull.
func (s *UniformHull) Hull() Polygon {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Polygon{s.h.Polygon()}
}

// SampleSize returns the number of distinct stored points (≤ r).
func (s *UniformHull) SampleSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.h.VerticesCCW())
}

// N returns the number of stream points processed.
func (s *UniformHull) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.N()
}

// Directions returns the sample direction angles.
func (s *UniformHull) Directions() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, s.h.DirCount())
	for j := range out {
		out[j] = s.h.Angle(j)
	}
	return out
}

// Triangles returns the uncertainty triangles of the sampled hull.
func (s *UniformHull) Triangles() []uncert.Triangle {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.h.DirCount()
	out := make([]uncert.Triangle, 0, m)
	for j := 0; j < m; j++ {
		a, ok := s.h.ExtremumAt(j)
		if !ok {
			return nil
		}
		b, _ := s.h.ExtremumAt((j + 1) % m)
		if a.Eq(b) {
			continue
		}
		out = append(out, uncert.Compute(a, s.h.Angle(j), b, s.h.Angle((j+1)%m)))
	}
	return out
}

// ErrorBound returns the maximum uncertainty-triangle height (Θ(D/r) in
// the worst case, per Lemma 3.2).
func (s *UniformHull) ErrorBound() float64 {
	best := 0.0
	for _, tr := range s.Triangles() {
		if tr.Height > best {
			best = tr.Height
		}
	}
	return best
}

// Snapshot captures the summary's current samples.
func (s *UniformHull) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := Spec{Kind: KindUniform, R: s.h.DirCount()}
	snap := Snapshot{Kind: "uniform", R: s.h.DirCount(), N: s.h.N(), Spec: &spec}
	for j := 0; j < s.h.DirCount(); j++ {
		p, ok := s.h.ExtremumAt(j)
		if !ok {
			break
		}
		snap.Angles = append(snap.Angles, s.h.Angle(j))
		snap.Points = append(snap.Points, p)
	}
	return snap
}
