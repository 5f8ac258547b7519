package streamhull

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/core"
	"github.com/streamgeom/streamhull/internal/uncert"
)

// AdaptiveHull is the paper's adaptive sampling summary (§4–§5): at most
// 2r+1 stored points, O(D/r²) hull error, amortized O(log r) per point.
type AdaptiveHull struct {
	mu    sync.Mutex
	h     *core.Hull
	r     int
	spec  Spec
	epoch atomic.Uint64
}

// adaptiveConfig compiles an adaptive Spec down to the core summary's
// configuration.
func adaptiveConfig(spec Spec) core.Config {
	return core.Config{
		R: spec.R, Height: spec.HeightLimit,
		TargetDirs: spec.FixedBudget, MaxUnrefinePerInsert: spec.BoundedWork,
	}
}

// buildAdaptive constructs an adaptive summary from an already validated
// Spec (see New).
func buildAdaptive(spec Spec) *AdaptiveHull {
	return &AdaptiveHull{h: core.New(adaptiveConfig(spec)), r: spec.R, spec: spec}
}

// NewAdaptive returns an adaptive hull summary with parameter r ≥ 4 and
// the paper's defaults. It is a thin wrapper over New(Spec); it panics on
// invalid parameters where New returns an error. The §5.1 height limit,
// the §5.3 bounded-work variant and the §7 fixed budget are Spec fields:
// build those summaries with New.
func NewAdaptive(r int) *AdaptiveHull {
	spec := Spec{Kind: KindAdaptive, R: r}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return buildAdaptive(spec)
}

// NewAdaptiveStatic builds the §4 static adaptive sample of an already
// collected point set.
func NewAdaptiveStatic(pts []geom.Point, r int) (*AdaptiveHull, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return nil, err
	}
	spec := Spec{Kind: KindAdaptive, R: r}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &AdaptiveHull{h: core.BuildStatic(pts, adaptiveConfig(spec)), r: r, spec: spec}, nil
}

// R returns the sample parameter r.
func (s *AdaptiveHull) R() int { return s.r }

// Spec returns the summary's serializable description.
func (s *AdaptiveHull) Spec() Spec { return s.spec }

// Insert processes one stream point.
func (s *AdaptiveHull) Insert(p geom.Point) error {
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
// acquisition, prefiltered to the batch's convex hull: interior points
// are counted but skip the containment and unrefinement machinery
// entirely (they can never be extreme once the batch is in). The batch
// is validated first, so an error means nothing was applied.
func (s *AdaptiveHull) InsertBatch(pts []geom.Point) (int, error) {
	return s.InsertBatchObserved(pts, nil)
}

// InsertBatchObserved is InsertBatch reporting per-stage timings to
// obs: "prefilter" for the batch-hull pass, which runs before the lock
// is taken, and "insert" for feeding the survivors through the summary
// under it. A nil obs reads no clock. The clock feeds only the
// observations, never the state transition, so traced and untraced
// ingest — and WAL replay of either — are bit-identical. It implements
// StagedBatchInserter for the server's request-tracing layer.
func (s *AdaptiveHull) InsertBatchObserved(pts []geom.Point, obs func(stage string, d time.Duration)) (int, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	cands := convex.ExtremeCandidates(pts)
	if obs != nil {
		obs("prefilter", time.Since(start))
	}
	s.mu.Lock()
	if obs != nil {
		start = time.Now()
	}
	s.h.InsertCandidates(cands, len(pts))
	s.epoch.Add(1)
	s.mu.Unlock()
	if obs != nil {
		obs("insert", time.Since(start))
	}
	return len(pts), nil
}

// Epoch returns the summary's mutation counter.
func (s *AdaptiveHull) Epoch() uint64 { return s.epoch.Load() }

// Hull returns the current sampled convex hull. The guarantee of
// Theorem 5.4: the true hull of the whole stream contains this polygon
// and lies within O(D/r²) of it.
func (s *AdaptiveHull) Hull() Polygon {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Polygon{s.h.Polygon()}
}

// SampleSize returns the number of distinct points stored (≤ 2r+1).
func (s *AdaptiveHull) SampleSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.SampleSize()
}

// N returns the number of stream points processed.
func (s *AdaptiveHull) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.N()
}

// Directions returns the angles of the currently active sample
// directions in increasing order.
func (s *AdaptiveHull) Directions() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.DirectionAngles()
}

// Triangles returns the current uncertainty triangles (§2); the true hull
// lies inside the sampled hull union these triangles.
func (s *AdaptiveHull) Triangles() []uncert.Triangle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Triangles()
}

// ErrorBound returns the current a-posteriori error bound: the maximum
// uncertainty-triangle height. Every point of the stream is within this
// distance (plus the §5.3 streaming slack, bounded by 16πP/r²) of the
// sampled hull.
func (s *AdaptiveHull) ErrorBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.MaxUncertaintyHeight()
}

// Stats returns the summary's operation counters.
func (s *AdaptiveHull) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Stats()
}

// ContainsDefinitely reports whether q is certainly inside the true
// convex hull of the stream. The sampled hull is an inner approximation
// (it lies inside the true hull), so membership in it is a proof of
// membership in the truth; the converse does not hold for points in the
// O(D/r²) uncertainty ring.
func (s *AdaptiveHull) ContainsDefinitely(q geom.Point) bool {
	return s.Hull().Contains(q)
}

// ContainsPossibly reports whether q could be inside the true hull: it is
// false only when q is provably outside (beyond the sampled hull by more
// than the current uncertainty). Together with ContainsDefinitely this
// gives the three-valued answer the summary can honestly provide:
// definite-in, definite-out, or within-the-error-ring.
func (s *AdaptiveHull) ContainsPossibly(q geom.Point) bool {
	s.mu.Lock()
	hull := Polygon{s.h.Polygon()}
	slack := s.h.MaxUncertaintyHeight()
	p := s.h.Perimeter()
	s.mu.Unlock()
	// Points the summary never saw can poke past the static triangles by
	// the §5.3 streaming slack, bounded by 16πP/r².
	slack += 16 * math.Pi * p / float64(s.r*s.r)
	return hull.DistToPoint(q) <= slack
}

// Snapshot captures the summary's current sample for transmission (the
// sensor-network use of §1: ship summaries, not raw data).
func (s *AdaptiveHull) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	samples := s.h.Samples()
	spec := s.spec
	snap := Snapshot{Kind: "adaptive", R: s.r, N: s.h.N(), Spec: &spec}
	for _, sm := range samples {
		snap.Angles = append(snap.Angles, sm.Theta)
		snap.Points = append(snap.Points, sm.Point)
	}
	return snap
}
