package streamhull

import (
	"fmt"
	"math"

	"github.com/streamgeom/streamhull/geom"
)

// Restoring a summary from its own snapshot is the durability story the
// paper enables (§1, §4–§5): the ≤ 2r+1 sample points are the only
// state a stream needs to persist, so a checkpoint is O(r) bytes no
// matter how long the stream ran. The functions here rebuild a live
// summary from that state; a write-ahead-log tail can then be replayed
// on top through ordinary Inserts.
//
// For uniform summaries the restore is exact: the snapshot records the
// extremum of every sampled direction, and re-inserting those extrema
// into a summary with the same directions reproduces the state
// bit-for-bit. For adaptive summaries the restore is a re-base: the new
// summary adaptively resamples the snapshot's points, which keeps the
// hull within the paper's O(D/r²) bound of the original but may drop
// refinement structure. Restoring the same snapshot is deterministic,
// so checkpoint-then-recover always converges to one answer.

// SummaryFromSnapshot rebuilds the summary a snapshot came from,
// dispatching on its kind; it is the one snapshot restore. Adaptive and
// uniform snapshots re-insert their sample point by point and keep the
// snapshot's stream count N; a uniform snapshot with ≥ 3 directions
// reuses them, so summaries built with NewFixedDirections restore
// exactly too. Windowed and sharded restores are approximate: a
// window's snapshot is its folded recent sample, not its bucket
// structure (that is MarshalState, the durability path), and a sharded
// snapshot is the union of its shard samples, so each seeds a fresh
// summary from the embedded Spec with the same two-level error as
// MergeSnapshots. Exact, partial and partitioned summaries have no
// snapshot form at all.
func SummaryFromSnapshot(s Snapshot) (Summary, error) {
	spec, err := restoreSpec(s)
	if err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindAdaptive:
		return reinsert(buildAdaptive(spec), s)
	case KindUniform:
		if len(s.Angles) < 3 {
			return reinsert(buildUniform(spec), s)
		}
		for i, a := range s.Angles {
			if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 || a >= geom.TwoPi {
				return nil, fmt.Errorf("streamhull: snapshot angle %d = %v out of [0, 2π)", i, a)
			}
			if i > 0 && a <= s.Angles[i-1] {
				return nil, fmt.Errorf("streamhull: snapshot angles not strictly increasing at %d", i)
			}
		}
		return reinsert(NewFixedDirections(s.Angles), s)
	case KindWindowed:
		w, err := buildWindowed(spec, nil)
		if err != nil {
			return nil, err
		}
		if _, err := w.InsertBatch(s.Points); err != nil {
			return nil, err
		}
		return w, nil
	default: // KindSharded
		h, err := buildSharded(spec)
		if err != nil {
			return nil, err
		}
		if _, err := h.InsertBatch(s.Points); err != nil {
			return nil, err
		}
		if n := int64(s.N); n > h.n.Load() {
			h.n.Store(n)
		}
		return h, nil
	}
}

// restoreSpec is SummaryFromSnapshot's validation prologue: it checks
// the snapshot's shape and returns the validated Spec to rebuild from.
// Snapshots are untrusted input (HTTP restore endpoint, on-disk
// checkpoints), so everything is validated through the Spec — the bare
// constructors panic on a bad r.
func restoreSpec(s Snapshot) (Spec, error) {
	kind := Kind(s.Kind)
	switch kind {
	case KindAdaptive, KindUniform, KindWindowed, KindSharded:
	default:
		return Spec{}, fmt.Errorf("streamhull: snapshot kind %q cannot be restored", s.Kind)
	}
	if len(s.Angles) != len(s.Points) {
		return Spec{}, fmt.Errorf("streamhull: snapshot has %d angles but %d points",
			len(s.Angles), len(s.Points))
	}
	var spec Spec
	switch {
	case s.Spec != nil:
		spec = *s.Spec
		if spec.Kind != kind {
			return Spec{}, fmt.Errorf("streamhull: %s snapshot carries %q spec", kind, spec.Kind)
		}
		if kind == KindAdaptive && spec.R != s.R {
			return Spec{}, fmt.Errorf("streamhull: snapshot r = %d does not match its spec r = %d",
				s.R, spec.R)
		}
	case kind == KindAdaptive || kind == KindUniform:
		// A pre-spec snapshot: r alone describes the summary.
		spec = Spec{Kind: kind, R: s.R}
	default:
		return Spec{}, fmt.Errorf("streamhull: %s snapshot carries no spec; cannot size the summary", kind)
	}
	return spec, spec.Validate()
}

// reinsert re-inserts a snapshot's sample point by point — the order
// the adaptive and uniform restores depend on for bit-exactness — then
// adopts the snapshot's stream count.
func reinsert(h interface {
	Summary
	setN(n int)
}, s Snapshot) (Summary, error) {
	for _, p := range s.Points {
		if err := h.Insert(p); err != nil {
			return nil, err
		}
	}
	h.setN(s.N)
	return h, nil
}

// setN overrides the stream count after a snapshot restore. The
// snapshot's count is authoritative: a small stream's snapshot can
// carry MORE sample points than its N (the adaptive tree keeps up to
// 2r+1 refinement points, with repeats), so the restore loop above may
// leave the insert counter higher than the true stream count. A zero
// count is kept as-is — an empty or legacy snapshot should not zero
// out the points just inserted.
func (s *AdaptiveHull) setN(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.h.SetN(n)
	}
}

// setN overrides the stream count after a snapshot restore (see the
// AdaptiveHull comment: the snapshot's count wins over the restore
// loop's insert counter).
func (s *UniformHull) setN(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.h.SetN(n)
	}
}
