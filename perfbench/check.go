package main

import (
	"fmt"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
)

// exactHull tracks the exact convex hull of every point sent to a
// stream, one batch at a time.
type exactHull struct{ vs []geom.Point }

func (e *exactHull) add(batch []geom.Point) {
	pts := make([]geom.Point, 0, len(e.vs)+len(batch))
	pts = append(append(pts, e.vs...), batch...)
	e.vs = streamhull.HullOf(pts).Vertices()
}

// hullError is the paper's error measure for one served hull: the
// largest distance from any sent point to the served hull, and the
// exact diameter of the sent points. The farthest sent point is always
// a vertex of their exact hull, since distance to a convex set is a
// convex function.
func hullError(exact []geom.Point, served [][2]float64) (maxDist, diameter float64) {
	pts := make([]geom.Point, len(served))
	for i, v := range served {
		pts[i] = geom.Pt(v[0], v[1])
	}
	poly := streamhull.HullOf(pts)
	for _, v := range exact {
		if d := poly.DistToPoint(v); d > maxDist {
			maxDist = d
		}
	}
	diameter, _ = streamhull.HullOf(exact).Diameter()
	return maxDist, diameter
}

// errTally folds per-stream errors into hull_err_rel: the worst ratio
// over the run's streams.
type errTally struct{ worst float64 }

func (t *errTally) add(maxDist, diameter float64) {
	if diameter > 0 && maxDist/diameter > t.worst {
		t.worst = maxDist / diameter
	}
}

// sameHull reports whether a served hull is bit-identical to the
// reference summary's hull and count.
func sameHull(id string, got hullResponse, want streamhull.Polygon, wantN int) error {
	vs := want.Vertices()
	if got.N != wantN {
		return fmt.Errorf("stream %s: served n = %d, reference n = %d", id, got.N, wantN)
	}
	if len(got.Vertices) != len(vs) {
		return fmt.Errorf("stream %s: served hull has %d vertices, reference %d", id, len(got.Vertices), len(vs))
	}
	for i, v := range vs {
		if got.Vertices[i][0] != v.X || got.Vertices[i][1] != v.Y {
			return fmt.Errorf("stream %s: vertex %d served (%v, %v), reference (%v, %v)",
				id, i, got.Vertices[i][0], got.Vertices[i][1], v.X, v.Y)
		}
	}
	return nil
}

// checkStream replays s's acknowledged batches through a local summary
// built from the same spec and compares it with what the server serves;
// rebaseEvery > 0 mirrors a server that re-bases the summary on a
// checkpoint after every rebaseEvery batches. It also folds the stream's hull error into errs,
// and returns the reference and the raw served hull body.
func checkStream(c *conn, s *stream, rebaseEvery int, errs *errTally) (streamhull.Summary, []byte, error) {
	if s.lost {
		return nil, nil, fmt.Errorf("stream %s: a write failed, so its served state cannot be checked", s.id)
	}
	ref, err := streamhull.New(s.spec)
	if err != nil {
		return nil, nil, err
	}
	var ex exactHull
	var replayErr error
	batches := 0
	s.replay(func(b []geom.Point) {
		if replayErr != nil {
			return
		}
		ex.add(b)
		if _, err := ref.InsertBatch(b); err != nil {
			replayErr = err
			return
		}
		if batches++; rebaseEvery > 0 && batches%rebaseEvery == 0 {
			ref, replayErr = streamhull.SummaryFromSnapshot(ref.(streamhull.Snapshotter).Snapshot())
		}
	})
	if replayErr != nil {
		return nil, nil, fmt.Errorf("stream %s: reference replay: %w", s.id, replayErr)
	}
	got, raw, err := c.hull(s.id)
	if err != nil {
		return nil, nil, err
	}
	if err := sameHull(s.id, got, ref.Hull(), ref.N()); err != nil {
		return nil, nil, err
	}
	if s.acked > 0 {
		errs.add(hullError(ex.vs, got.Vertices))
	}
	return ref, raw, nil
}
