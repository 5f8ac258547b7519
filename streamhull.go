// Package streamhull maintains small-space convex-hull summaries of
// two-dimensional point streams, implementing the adaptive sampling scheme
// of Hershberger & Suri, "Adaptive Sampling for Geometric Problems over
// Data Streams" (PODS 2004; Computational Geometry 39 (2008) 191–208).
//
// The flagship summary, NewAdaptive, processes each stream point in
// amortized O(log r) time, stores at most 2r+1 points, and guarantees that
// the true convex hull of everything ever seen lies within O(D/r²) of the
// summary's hull, where D is the stream's diameter — the provably optimal
// trade-off (§5.4). The uniform summary (NewUniform) is the classical
// Θ(D/r) baseline; NewPartial reproduces the paper's train-then-freeze
// comparator; NewExact keeps the exact hull for ground truth.
//
// Beyond the paper's lifetime summaries, two deployment-oriented modes
// build on the same machinery. The sliding-window summaries
// (NewWindowedByCount, NewWindowedByTime) cover only the recent stream —
// the last n points or the last d of wall time — via exponential-histogram
// buckets of adaptive sub-summaries, so transient extremes age out. The
// partitioned summary (NewPartitioned) shards a stream across spatial
// regions, each with its own adaptive summary, for per-region queries and
// parallel ingest.
//
// All summaries answer the extremal queries of §6 through the Polygon
// type: diameter, width, directional extent, point containment, smallest
// enclosing circle, and — across two streams — minimum distance, linear
// separability with certificates, containment, and spatial overlap.
//
// The v2 API is spec-driven and batch-first. Every summary kind is
// described by a flat, JSON-serializable Spec and constructed through
// New(Spec); summaries report their Spec back, so a running stream is
// self-describing — the HTTP server persists the spec in WAL metadata
// and crash recovery rebuilds any kind from it. Ingest prefers
// InsertBatch, which validates atomically, locks once per batch, and
// prefilters each batch to its convex-hull candidates (only a batch's
// own extreme points can change a summary). The kind-specific
// constructors (NewAdaptive, NewUniform, …) remain as thin wrappers.
//
// Summaries are safe for concurrent use.
package streamhull

import (
	"errors"
	"fmt"
	"time"

	"github.com/streamgeom/streamhull/geom"
)

// ErrNonFinite is returned when a stream point has a NaN or infinite
// coordinate.
var ErrNonFinite = errors.New("streamhull: point has non-finite coordinates")

// Summary is a single-pass summary of a point stream that can stand in
// for the stream's convex hull. Every summary kind is described by a
// Spec and constructed by New; ingest is batch-first — InsertBatch is
// the optimized path, Insert the single-point convenience.
type Summary interface {
	// Insert processes one stream point.
	Insert(p geom.Point) error
	// InsertBatch processes a batch of stream points atomically: the
	// whole batch is validated first, and on error nothing is applied
	// and 0 is returned. On success it returns len(pts). Implementations
	// take their lock once per batch and exploit the paper's core
	// observation — only the batch's own extreme points can change a
	// summary — by prefiltering the batch to its convex hull where the
	// summary's semantics allow it.
	InsertBatch(pts []geom.Point) (int, error)
	// Hull returns the summary's current convex hull.
	Hull() Polygon
	// SampleSize returns the number of points currently stored.
	SampleSize() int
	// N returns the number of stream points processed.
	N() int
	// Spec returns the serializable description this summary was built
	// from (or is equivalent to): New(s.Spec()) constructs a fresh
	// summary of the same kind and configuration. Two legacy
	// constructors escape the round trip: NewPartitioned with a custom
	// RegionFunc reports a gridless spec that New rejects, and
	// NewFixedDirections reports a uniform spec that loses the custom
	// angles — everything built through New itself round-trips exactly.
	Spec() Spec
	// Epoch returns a cheap monotone mutation counter: it advances on
	// every state change (inserts; window expiry too) and holds still
	// otherwise, so a reader can cache derived answers — the hull, its
	// diameter — and revalidate with one atomic load instead of
	// recomputing (see QueryCache). An unchanged epoch means unchanged
	// answers; the converse need not hold (an insert that adds an
	// interior point advances the epoch without moving the hull).
	// Implementations advance the counter before releasing the lock the
	// mutation held, so a Hull() call observing epoch e reflects at
	// least the mutations counted by e.
	Epoch() uint64
}

// StagedBatchInserter is implemented by summaries whose InsertBatch
// can report per-stage timings — the batch-hull prefilter vs the
// surviving insertions — to an observer. The server's request-tracing
// layer type-asserts for it on the ingest hot path; the observed call
// must apply exactly the same state transition as InsertBatch so
// traced and untraced ingest (and WAL replay) stay bit-identical, and a
// nil observer must read no clock.
type StagedBatchInserter interface {
	InsertBatchObserved(pts []geom.Point, obs func(stage string, d time.Duration)) (int, error)
}

// checkFinite validates a stream point.
func checkFinite(p geom.Point) error {
	if !p.IsFinite() {
		return fmt.Errorf("%w: %v", ErrNonFinite, p)
	}
	return nil
}

// checkFiniteBatch validates a whole batch before anything is applied,
// so batch ingest is atomic.
func checkFiniteBatch(pts []geom.Point) error {
	for _, p := range pts {
		if !p.IsFinite() {
			return fmt.Errorf("%w: %v", ErrNonFinite, p)
		}
	}
	return nil
}
