package core

import (
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/robust"
)

// Insert processes one stream point (Algorithm AdaptiveHull, §5.2).
//
// Step numbering follows the paper:
//  1. If q beats no active sample direction it lies inside the ring of
//     uncertainty triangles and is discarded. The uniform level's own
//     O(log v) containment search covers the uniform directions; the
//     refinement directions of the (at most one) gap q pokes into are then
//     scanned exactly.
//  2. Otherwise q is inserted into the uniformly sampled hull, updating P.
//  3. Gaps strictly between beaten uniform directions collapse; their
//     refinement trees are deleted.
//  4. The perimeter increase releases unrefinement work from the bucket
//     queue.
//  5. The at most two boundary gaps are rebuilt by re-running the static
//     refinement on their surviving extrema plus q.
func (h *Hull) Insert(q geom.Point) {
	h.stats.Points++
	ch := h.uni.Insert(q) // steps 1 (uniform part) and 2
	switch {
	case ch.First:
		// Single point: every direction's extremum is q, all gaps trivial.
		return
	case ch.Changed:
		h.stats.UniformChanges++
		r := h.cfg.R
		// Step 3: interior gaps (both endpoints beaten) lose their trees.
		for off := 0; off < ch.Count-1; off++ {
			h.teardownGap((ch.Lo + off) % r)
		}
		// Step 4: unrefine nodes whose threshold P has passed.
		if h.cfg.TargetDirs == 0 {
			h.processUnrefinements()
		}
		// Step 5: rebuild the boundary gaps around the beaten arc.
		gl := ((ch.Lo-1)%r + r) % r
		gr := ch.Hi
		h.rebuildGap(gl, &q)
		h.rebuildGap(gr, &q)
	default:
		// q beat no uniform direction; it may still beat refinement
		// directions in the single gap it pokes into (step 1 continued,
		// and steps 5a–5c restricted to that gap).
		rebuilt := false
		for _, g := range h.candidateGaps(q) {
			if h.gapBeaten(g, q) {
				h.rebuildGap(g, &q)
				rebuilt = true
			}
		}
		if !rebuilt {
			h.stats.Discarded++
			return
		}
	}
	if h.cfg.TargetDirs > 0 {
		h.rebalance()
	}
	if n := h.act.Len(); n > h.stats.MaxRefineDirs {
		h.stats.MaxRefineDirs = n
	}
}

// InsertAll processes a batch of stream points in order, one at a time —
// the reference streaming path. Prefer InsertBatch for bulk loads.
func (h *Hull) InsertAll(pts []geom.Point) {
	for _, p := range pts {
		h.Insert(p)
	}
}

// InsertBatch processes a batch of stream points, prefiltered to the
// batch's own convex-hull candidates (convex.ExtremeCandidates): a
// point strictly interior to the batch hull cannot be extreme in any
// direction once the whole batch is in, so it is counted but never
// touches the summary — no containment test, no refinement, and
// crucially no unrefinement bookkeeping. The filter is two linear
// passes of cheap comparisons, so on clustered workloads (most of a
// batch interior) batch ingest runs several times faster than
// per-point insertion. The resulting summary may differ
// sample-for-sample from per-point insertion (insertion order shapes
// the refinement tree) but satisfies the same O(D/r²) guarantee; given
// the same batch boundaries it is deterministic, which is what WAL
// replay relies on.
func (h *Hull) InsertBatch(pts []geom.Point) {
	h.InsertCandidates(convex.ExtremeCandidates(pts), len(pts))
}

// InsertCandidates is the second half of InsertBatch for a caller that
// ran the prefilter itself: cands must be convex.ExtremeCandidates of
// a batch of n points. The candidates are inserted in order and the
// point count advances by the whole batch, so the transition is
// identical to InsertBatch on the original batch.
func (h *Hull) InsertCandidates(cands []geom.Point, n int) {
	before := h.stats.Points
	for _, p := range cands {
		h.Insert(p)
	}
	h.stats.Points = before + n
}

// candidateGaps returns the gaps whose refinement directions q could
// possibly beat, given that q beats no uniform direction. Exactly, the
// beaten directions (if any) lie in the single gap containing q's beaten
// arc against the uniform polygon; the two neighboring gaps are included
// to absorb floating-point slack in locating that arc, and every candidate
// is confirmed with exact comparisons afterwards.
func (h *Hull) candidateGaps(q geom.Point) []int {
	if h.act.Len() == 0 {
		return nil
	}
	if h.cfg.Reference || h.uni.Degenerate() || h.uni.VertexCount() < 3 {
		return h.allGapsWithActives()
	}
	if h.uni.Inside(q) {
		// Inside the uniform polygon q beats nothing: every refinement
		// constraint is at least the polygon's support (§5.2 step 1).
		return nil
	}
	first, count, ok := h.uni.VisibleArc(q)
	if !ok {
		// q is outside by a hair but no edge is strictly visible
		// (exact-collinearity corner); fall back to the exhaustive scan.
		return h.allGapsWithActives()
	}
	v := h.uni.VertexCount()
	t1 := h.uni.VertexPoint(first % v)
	t2 := h.uni.VertexPoint((first + count) % v)
	// Outward normals of the two tangent lines from q bound the arc of
	// directions in which q exceeds the uniform polygon's support.
	d1 := t1.Sub(q)
	d2 := t2.Sub(q)
	nStart := geom.NormalizeAngle(geom.Pt(-d1.Y, d1.X).Angle()) // rot +90°
	nEnd := geom.NormalizeAngle(geom.Pt(d2.Y, -d2.X).Angle())   // rot −90°
	mid := geom.NormalizeAngle(nStart + geom.CCWGap(nStart, nEnd)/2)
	g := int(mid / h.space.Theta0())
	if g >= h.cfg.R {
		g = h.cfg.R - 1
	}
	r := h.cfg.R
	h.scratchGaps = h.scratchGaps[:0]
	h.scratchGaps = append(h.scratchGaps, ((g-1)%r+r)%r, g, (g+1)%r)
	return h.scratchGaps
}

// allGapsWithActives returns every gap currently holding refinement
// directions (the exhaustive reference path).
func (h *Hull) allGapsWithActives() []int {
	h.scratchGaps = h.scratchGaps[:0]
	last := -1
	h.act.Ascend(func(s sample) bool {
		g := h.space.Gap(s.idx)
		if g != last {
			h.scratchGaps = append(h.scratchGaps, g)
			last = g
		}
		return true
	})
	return h.scratchGaps
}

// gapBeaten reports whether q strictly beats any active refinement
// direction in gap g (exact comparisons).
func (h *Hull) gapBeaten(g int, q geom.Point) bool {
	lo := h.space.Uniform(g)
	hi := lo + h.space.Scale
	beaten := false
	h.act.AscendRange(sample{idx: lo + 1}, sample{idx: hi - 1}, func(s sample) bool {
		if robust.CmpDot(q, s.pt, h.space.UnitVector(s.idx)) > 0 {
			beaten = true
			return false
		}
		return true
	})
	return beaten
}
