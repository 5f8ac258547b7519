package server

import (
	"fmt"
	"sort"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/store"
)

// Durable streams: when the server has a storage engine (Config.DataDir
// or an injected Config.Store), every stream's ingest is appended to its
// log through a store.Appender before touching the in-memory summary,
// the stream's Spec is persisted by the store, and New recovers every
// stream the store lists — checkpoint first, then the surviving log
// tail, replaying the same batches InsertBatch originally applied.
//
// Checkpoints compact the log to the summary's live state:
//
//   - adaptive and uniform streams seal their O(r) Snapshot and re-base
//     the live summary on it, so recovery reproduces the served state
//     exactly;
//   - windowed streams seal their full exponential-histogram bucket
//     structure (O(r log n + HeadCap) points, see
//     streamhull.WindowedHull.MarshalState) — bit-exact without
//     re-basing, since nothing is lost in the capture;
//   - exact, partial and partitioned streams have no faithful compact
//     capture and keep their whole log instead (replay from the start
//     is deterministic, so recovery is still exact).
//
// The same O(r) checkpoint is what makes the cold tier (coldtier.go)
// cheap: evicting an idle stream seals its checkpoint and drops the
// summary, and rehydration is one Load of a few hundred bytes.

// checkpointable reports whether a summary kind has a faithful
// checkpoint representation; other kinds retain their full log.
func checkpointable(kind streamhull.Kind) bool {
	switch kind {
	case streamhull.KindAdaptive, streamhull.KindUniform, streamhull.KindWindowed:
		return true
	}
	return false
}

// recoverStreams restores every stream the store lists: latest
// checkpoint first, then the surviving log tail, tolerating a record
// torn by the previous crash. Streams are recovered in key order and
// readiness progress is published after each one, so /readyz can report
// "recovered k of n" while an async recovery runs. With MaxResident
// set, recovery itself respects the cap: each stream beyond it is
// evicted back to its checkpoint right after adoption, so startup RSS
// stays bounded no matter how many streams the store holds.
func (s *Server) recoverStreams() error {
	entries, err := s.store.List()
	if err != nil {
		return fmt.Errorf("scanning stream store: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	s.health.StartRecovery(len(entries))
	for i, e := range entries {
		st, err := s.recoverStream(e)
		if err != nil {
			return fmt.Errorf("recovering stream %q: %w", e.Key, err)
		}
		// Recovered state is adopted, not re-reserved: it must never be
		// evicted by a quota tightened across the restart.
		s.ledger.AdoptStream(st.tenant, st.bytes)
		s.mu.Lock()
		s.streams[e.Key] = st
		s.mu.Unlock()
		s.admit(e.Key, st)
		s.touch(st)
		s.enforceCap(nil)
		s.health.SetRecovered(i + 1)
	}
	s.health.FinishRecovery()
	return nil
}

func (s *Server) recoverStream(e store.Entry) (*stream, error) {
	rec, err := s.store.Load(e.Key)
	if err != nil {
		return nil, err
	}
	if rec.Torn {
		s.logger.Warn("wal: dropped a torn tail record during recovery",
			"stream", e.Key, "tenant", e.Tenant)
	}
	app, err := s.store.Open(e.Key)
	if err != nil {
		return nil, err
	}
	s.logger.Info("wal: recovered stream",
		"stream", e.Key, "tenant", e.Tenant, "spec", fmt.Sprint(rec.Spec),
		"n", rec.Summary.N(), "checkpoint", rec.HasCheckpoint,
		"replayed_points", rec.Points)
	st := &stream{spec: rec.Spec, tenant: e.Tenant, app: app,
		bytes:     int64(rec.Summary.N()) * bytesPerPoint,
		sinceCkpt: rec.Points}
	st.setSummary(rec.Summary)
	// Recovered time-windowed streams need the expiry sweeper just like
	// freshly created ones.
	if wh, ok := rec.Summary.(*streamhull.WindowedHull); ok && wh.ByTime() {
		s.startSweeper()
	}
	return st, nil
}

// maybeCheckpointLocked seals the stream's current state into its log
// once enough points have accumulated. For adaptive and uniform streams
// the payload is the O(r) Snapshot and the live summary is re-based on
// it so a later recovery reproduces the served state exactly; windowed
// streams seal their full bucket structure, which loses nothing and
// needs no re-base. Caller holds st.mu.
func (s *Server) maybeCheckpointLocked(id string, st *stream) {
	if st.sinceCkpt < s.cfg.CheckpointEvery {
		return
	}
	s.checkpointLocked(id, st)
}

// checkpointLocked seals a checkpoint now (see maybeCheckpointLocked).
// Close and the eviction path also call it directly, so a graceful
// shutdown or an eviction leaves every checkpointable stream compacted —
// in particular a time-windowed stream's bucket timestamps are sealed,
// and neither a routine restart nor a rehydration re-stamps its log
// tail. Caller holds st.mu.
func (s *Server) checkpointLocked(id string, st *stream) {
	if st.app == nil || !checkpointable(st.spec.Kind) {
		return
	}
	st.sinceCkpt = 0
	if wh, ok := st.sum.(*streamhull.WindowedHull); ok {
		data, err := wh.MarshalState()
		if err != nil {
			s.logger.Error("wal: encoding windowed checkpoint failed",
				"stream", id, "tenant", st.tenant, "err", err)
			return
		}
		if err := st.app.Checkpoint(data); err != nil {
			s.logger.Error("wal: checkpoint failed",
				"stream", id, "tenant", st.tenant, "err", err)
		}
		return
	}
	sn, ok := st.sum.(streamhull.Snapshotter)
	if !ok {
		return
	}
	snap := sn.Snapshot()
	data, err := snap.MarshalBinary()
	if err != nil {
		s.logger.Error("wal: encoding checkpoint failed",
			"stream", id, "tenant", st.tenant, "err", err)
		return
	}
	if err := st.app.Checkpoint(data); err != nil {
		s.logger.Error("wal: checkpoint failed",
			"stream", id, "tenant", st.tenant, "err", err)
		return
	}
	restored, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		s.logger.Error("wal: re-basing on checkpoint failed",
			"stream", id, "tenant", st.tenant, "err", err)
		return
	}
	// Swapping the summary also swaps the read cache: the fresh
	// summary's epoch restarts at zero, so a stale cache keyed on the
	// old counter must not survive the re-base. Pair answers keyed on
	// the retired cache are purged too — they are unreachable (pair keys
	// carry the cache identity) and would otherwise pin the old summary.
	old := st.cache.Load()
	st.setSummary(restored)
	s.pairs.purge(old)
}

// dropStorage closes a deleted stream's appender and removes its
// storage. Cold streams have no appender but still own storage, so the
// store delete runs regardless. Caller holds st.mu.
func (s *Server) dropStorage(id string, st *stream) {
	if st.app != nil {
		if err := st.app.Close(); err != nil {
			s.logger.Error("wal: closing log failed",
				"stream", id, "tenant", st.tenant, "err", err)
		}
		st.app = nil
	}
	if s.store == nil {
		return
	}
	if err := s.store.Delete(id); err != nil {
		s.logger.Error("wal: removing storage failed",
			"stream", id, "tenant", st.tenant, "err", err)
	}
}
