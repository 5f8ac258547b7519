package streamhull

import (
	"sync"
	"sync/atomic"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
)

// ExactHull maintains the exact convex hull of everything seen. Its
// storage is Θ(hull size), which is unbounded for adversarial streams —
// it exists as ground truth for evaluating the sampled summaries and for
// small streams where exactness is affordable.
type ExactHull struct {
	mu    sync.Mutex
	verts []geom.Point // current hull vertices
	poly  convex.Polygon
	dirty bool
	n     int
	epoch atomic.Uint64
}

// buildExact constructs an exact summary (see New).
func buildExact() *ExactHull { return &ExactHull{} }

// NewExact returns an exact hull summary.
func NewExact() *ExactHull { return buildExact() }

// Spec returns the summary's serializable description.
func (s *ExactHull) Spec() Spec { return Spec{Kind: KindExact} }

// Insert processes one stream point. Points inside the current hull are
// dropped immediately; hull-changing points trigger an O(h log h) re-hull
// of the at most h+1 boundary points.
func (s *ExactHull) Insert(p geom.Point) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.insertLocked(p)
	s.epoch.Add(1)
	return nil
}

// insertLocked folds one already-validated point in. Caller holds s.mu.
func (s *ExactHull) insertLocked(p geom.Point) {
	if s.dirty {
		s.rebuild()
	}
	if s.poly.Len() >= 3 && s.poly.Contains(p) {
		return
	}
	s.verts = append(s.poly.Vertices(), p)
	s.dirty = true
}

// InsertBatch processes a batch of stream points under one lock
// acquisition, prefiltered to the batch's convex hull and re-hulled at
// most once (per-point insertion re-hulls after every boundary point).
// The batch is validated first, so an error means nothing was applied.
func (s *ExactHull) InsertBatch(pts []geom.Point) (int, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n += len(pts)
	if s.dirty {
		s.rebuild()
	}
	appended := false
	for _, p := range convex.ExtremeCandidates(pts) {
		if s.poly.Len() >= 3 && s.poly.Contains(p) {
			continue
		}
		if !appended {
			s.verts = s.poly.Vertices()
			appended = true
		}
		s.verts = append(s.verts, p)
	}
	if appended {
		s.dirty = true
	}
	s.epoch.Add(1)
	return len(pts), nil
}

// Epoch returns the summary's mutation counter.
func (s *ExactHull) Epoch() uint64 { return s.epoch.Load() }

// rebuild canonicalizes pending vertices into the hull polygon. It is
// observationally pure — the hull it materializes is the one the
// pending vertices already determine — so read paths may call it
// without advancing the epoch.
//
//lint:allow epochbump lazy canonicalization changes no observable state
func (s *ExactHull) rebuild() {
	s.poly = convex.Hull(s.verts)
	s.verts = nil
	s.dirty = false
}

// Hull returns the exact convex hull of the stream so far.
func (s *ExactHull) Hull() Polygon {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.rebuild()
	}
	return Polygon{s.poly}
}

// SampleSize returns the number of stored hull vertices.
func (s *ExactHull) SampleSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.rebuild()
	}
	return s.poly.Len()
}

// N returns the number of stream points processed.
func (s *ExactHull) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
