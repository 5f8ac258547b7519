package streamhull

import (
	"sync/atomic"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/shard"
)

// ShardedHull fans one logical stream out over S independent
// sub-summaries for parallel ingest. Each InsertBatch is dealt
// round-robin to one shard (see internal/shard), so concurrent callers
// land on different shard locks and proceed in parallel instead of
// serializing on a single summary mutex; reads merge the shard hulls.
//
// Correctness rests on mergeability: every stream point lands in
// exactly one shard, each shard's sample hull is an inner approximation
// of its own subset with the inner kind's error bound, and the hull of
// the union of shard samples therefore approximates the whole stream's
// hull with error bounded by the worst shard's — the same aggregation
// argument as MergeSnapshots, but maintained continuously. Sharding
// trades a constant-factor error increase (each shard sees ~1/S of the
// stream, so per-shard diameters can differ from the global one) for
// S-way ingest parallelism.
//
// Assignment is deterministic under serialized ingest — batch k goes to
// shard k mod S — which is what write-ahead-log recovery replays, so a
// recovered sharded stream is bit-identical to the served one.
type ShardedHull struct {
	spec   Spec
	shards []Summary
	rr     *shard.RoundRobin
	n      atomic.Int64
	epoch  atomic.Uint64
}

// buildSharded constructs a sharded summary from an already validated
// Spec (see New).
func buildSharded(spec Spec) (*ShardedHull, error) {
	subs := make([]Summary, spec.Shards)
	for i := range subs {
		sub, err := New(*spec.Inner)
		if err != nil {
			// Unreachable after Validate (which validates Inner too).
			return nil, err
		}
		subs[i] = sub
	}
	return &ShardedHull{spec: spec, shards: subs, rr: shard.NewRoundRobin(spec.Shards)}, nil
}

// NewSharded returns a summary fanning ingest out over shards
// sub-summaries described by inner (adaptive, uniform, or exact). It is
// a thin wrapper over New(Spec).
func NewSharded(shards int, inner Spec) (*ShardedHull, error) {
	s, err := New(Spec{Kind: KindSharded, Shards: shards, Inner: &inner})
	if err != nil {
		return nil, err
	}
	return s.(*ShardedHull), nil
}

// Spec returns the summary's serializable description.
func (s *ShardedHull) Spec() Spec { return s.spec }

// Shards returns the fan-out width.
func (s *ShardedHull) Shards() int { return len(s.shards) }

// ShardN returns the number of stream points dealt to shard i.
func (s *ShardedHull) ShardN(i int) int { return s.shards[i].N() }

// Insert deals one point to the next shard in rotation.
//
//lint:allow epochbump inner summaries validate before mutating, so the error return leaves every shard untouched
func (s *ShardedHull) Insert(p geom.Point) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	if err := s.shards[s.rr.Next()].Insert(p); err != nil {
		return err
	}
	s.n.Add(1)
	s.epoch.Add(1)
	return nil
}

// InsertBatch deals the whole batch to the next shard in rotation: the
// batch is validated first (an error means nothing was applied and the
// rotation did not advance), then the shard ingests it under its own
// lock through the inner kind's prefiltered batch path. Concurrent
// InsertBatch calls rotate onto different shards, so up to S batches
// ingest in parallel.
//
//lint:allow epochbump the batch is validated before the shard call, so the error return leaves every shard untouched
func (s *ShardedHull) InsertBatch(pts []geom.Point) (int, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	if _, err := s.shards[s.rr.Next()].InsertBatch(pts); err != nil {
		// Unreachable: the batch was validated above and inner kinds have
		// no other failure modes.
		return 0, err
	}
	s.n.Add(int64(len(pts)))
	s.epoch.Add(1)
	return len(pts), nil
}

// Hull returns the hull of the union of all shards: the exact hull of
// the per-shard sample points, within the inner kind's error bound of
// the whole stream's hull.
func (s *ShardedHull) Hull() Polygon {
	var pts []geom.Point
	for _, sub := range s.shards {
		if sub.N() == 0 {
			continue
		}
		pts = append(pts, sub.Hull().Vertices()...)
	}
	return HullOf(pts)
}

// SampleSize returns the total number of points stored across shards.
func (s *ShardedHull) SampleSize() int {
	total := 0
	for _, sub := range s.shards {
		total += sub.SampleSize()
	}
	return total
}

// N returns the number of stream points processed.
func (s *ShardedHull) N() int { return int(s.n.Load()) }

// Epoch returns the summary's mutation counter.
func (s *ShardedHull) Epoch() uint64 { return s.epoch.Load() }

// Snapshot captures the union of the shard samples for transmission.
// Shards whose inner kind records sample directions (adaptive, uniform)
// contribute their direction/extremum pairs; exact shards contribute
// their hull vertices with zero angles (the angle column is advisory —
// SummaryFromSnapshot restores from the points alone).
func (s *ShardedHull) Snapshot() Snapshot {
	spec := s.spec
	snap := Snapshot{Kind: string(KindSharded), R: spec.Inner.R, N: s.N(), Spec: &spec}
	for _, sub := range s.shards {
		if sub.N() == 0 {
			continue
		}
		if sn, ok := sub.(interface{ Snapshot() Snapshot }); ok {
			inner := sn.Snapshot()
			snap.Angles = append(snap.Angles, inner.Angles...)
			snap.Points = append(snap.Points, inner.Points...)
			continue
		}
		for _, v := range sub.Hull().Vertices() {
			snap.Angles = append(snap.Angles, 0)
			snap.Points = append(snap.Points, v)
		}
	}
	return snap
}
