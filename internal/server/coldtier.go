package server

import (
	"fmt"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/trace"
)

// The cold tier: with Config.MaxResident set, only that many streams
// keep a live summary (and its read cache) in memory. The rest are
// parked cold — their state sealed into the store as an O(r) checkpoint
// (Hershberger–Suri §4–§5: any summary compacts to a few hundred bytes
// that fully replace its log prefix), their appender closed, their
// summary and caches dropped. A cold stream is indistinguishable from a
// warm one to callers: any touch (ingest, hull, query, snapshot, pair
// query) rehydrates it transparently with one store Load.
//
// Bookkeeping:
//
//   - st.sum == nil (equivalently st.cache.Load() == nil) is the cold
//     state; st.coldN/st.coldSample preserve the listing counters so
//     GET /v1/streams never rehydrates anything.
//   - s.resident tracks evictable warm streams for the LRU scan, with
//     last-touch times kept in per-stream atomics so reads never take a
//     lock to record activity. Fan-in aggregates are pinned warm: their
//     contributions are soft state that exists only in memory, so
//     evicting one would silently discard follower pushes.
//   - Rehydration is singleflight by construction: it runs under st.mu,
//     so concurrent touches of one cold stream do exactly one Load and
//     the rest find the summary installed when they get the lock.
//   - Eviction holds only the victim's st.mu (never s.mu, never two
//     stream locks), so it can run inline on the request that exceeded
//     the cap without stalling other streams.
//   - Tenant quota accounting is untouched by eviction: a cold stream's
//     points are still resident in the store and still the tenant's.

// touch records stream activity for the cold tier's LRU clock.
func (s *Server) touch(st *stream) {
	st.lastTouch.Store(time.Now().UnixNano())
}

// admit registers a warm stream as an eviction candidate. Fan-in
// aggregates are never admitted (pinned warm); in-memory servers have
// no cold tier at all.
func (s *Server) admit(key string, st *stream) {
	if s.store == nil || st.spec.Kind == streamhull.KindFanIn {
		return
	}
	s.resMu.Lock()
	s.resident[key] = st
	s.resMu.Unlock()
}

// dropResident removes a stream from the eviction candidate set.
func (s *Server) dropResident(key string) {
	s.resMu.Lock()
	delete(s.resident, key)
	s.resMu.Unlock()
}

// residentQueries returns the stream's epoch-cached read state,
// rehydrating first when the stream is parked cold. The warm path is
// one atomic load — exactly the pre-cold-tier read path.
func (s *Server) residentQueries(key string, st *stream, sp *trace.Span) (*streamhull.QueryCache, error) {
	s.touch(st)
	for {
		if qc := st.cache.Load(); qc != nil {
			return qc, nil
		}
		if _, err := s.residentSummary(key, st, sp); err != nil {
			return nil, err
		}
		// An eviction can race in between the rehydrate and the reload;
		// loop until a load observes a live cache.
	}
}

// residentSummary returns the stream's live summary, rehydrating first
// when the stream is parked cold, and enforces the residency cap after
// a rehydration may have pushed the warm set over it.
func (s *Server) residentSummary(key string, st *stream, sp *trace.Span) (streamhull.Summary, error) {
	s.touch(st)
	st.mu.Lock()
	if st.sum == nil {
		if err := s.rehydrateLocked(key, st, sp); err != nil {
			st.mu.Unlock()
			return nil, err
		}
	}
	sum := st.sum
	st.mu.Unlock()
	s.enforceCap(sp)
	return sum, nil
}

// rehydrateLocked rebuilds a cold stream's summary from the store —
// checkpoint plus any surviving log tail — and reopens its appender.
// Caller holds st.mu, which is what makes rehydration singleflight.
func (s *Server) rehydrateLocked(key string, st *stream, sp *trace.Span) error {
	start := time.Now()
	rec, err := s.store.Load(key)
	if err != nil {
		return fmt.Errorf("%w: rehydrating %q: %v", errStorage, key, err)
	}
	app, err := s.store.Open(key)
	if err != nil {
		return fmt.Errorf("%w: reopening log for %q: %v", errStorage, key, err)
	}
	if wh, ok := rec.Summary.(*streamhull.WindowedHull); ok {
		// Points that aged out while the stream was cold expire now;
		// the background sweeper takes over again from here.
		wh.Expire()
		if wh.ByTime() {
			s.startSweeper()
		}
	}
	st.setSummary(rec.Summary)
	st.app = app
	st.sinceCkpt = rec.Points
	st.coldN, st.coldSample = 0, 0
	s.admit(key, st)
	dur := time.Since(start)
	s.met.rehydrations.Inc()
	s.met.rehydrateSeconds.ObserveExemplar(dur.Seconds(), sp.TraceID())
	sp.ObserveStage("store.rehydrate", dur)
	s.logger.Debug("store: rehydrated cold stream",
		"stream", key, "tenant", st.tenant, "points", rec.Points,
		"dur_ms", dur.Milliseconds())
	return nil
}

// enforceCap evicts least-recently-touched streams until the warm set
// fits MaxResident again. Runs inline on whichever request grew the
// warm set; each iteration holds only the victim's lock.
func (s *Server) enforceCap(sp *trace.Span) {
	if s.store == nil || s.cfg.MaxResident <= 0 {
		return
	}
	for {
		key, st := s.pickVictim()
		if st == nil {
			return
		}
		s.evict(key, st, sp)
	}
}

// pickVictim returns the least-recently-touched eviction candidate, or
// nil when the warm set already fits the cap.
func (s *Server) pickVictim() (string, *stream) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if len(s.resident) <= s.cfg.MaxResident {
		return "", nil
	}
	var (
		vKey string
		vSt  *stream
		vAt  int64
	)
	for key, st := range s.resident {
		at := st.lastTouch.Load()
		if vSt == nil || at < vAt {
			vKey, vSt, vAt = key, st, at
		}
	}
	return vKey, vSt
}

// evict parks one stream cold: seals its un-checkpointed tail (for
// checkpointable kinds — exact/partial/partitioned keep their full log
// and replay it on rehydration), preserves the listing counters, drops
// the summary and read cache, closes the appender, and purges pair
// answers keyed on the retired cache. Quota bytes are NOT released:
// the points are still durably resident and still the tenant's.
func (s *Server) evict(key string, st *stream, sp *trace.Span) {
	t0 := sp.Start()
	st.mu.Lock()
	if st.sum == nil {
		// Lost a race with another evictor; just make sure the candidate
		// set agrees.
		st.mu.Unlock()
		s.dropResident(key)
		return
	}
	if st.sinceCkpt > 0 {
		s.checkpointLocked(key, st)
	}
	st.coldN, st.coldSample = st.sum.N(), st.sum.SampleSize()
	old := st.cache.Load()
	st.sum = nil
	st.cache.Store(nil)
	if st.app != nil {
		if err := st.app.Close(); err != nil {
			s.logger.Error("store: closing evicted stream's log failed",
				"stream", key, "tenant", st.tenant, "err", err)
		}
		st.app = nil
	}
	st.mu.Unlock()
	s.pairs.purge(old)
	s.dropResident(key)
	s.met.evictions.Inc()
	sp.ObserveSince("store.evict", t0)
	s.logger.Debug("store: evicted idle stream", "stream", key, "tenant", st.tenant)
}

// ResidentStreams reports how many streams currently hold a warm
// summary — the number the -max-resident cap bounds. Exported for the
// storage experiments and tests.
func (s *Server) ResidentStreams() int {
	warm := 0
	s.mu.RLock()
	for _, st := range s.streams {
		if st.cache.Load() != nil {
			warm++
		}
	}
	s.mu.RUnlock()
	return warm
}

// Evictions reports lifetime cold-tier evictions (the
// streamhull_store_evictions_total counter).
func (s *Server) Evictions() float64 { return s.met.evictions.Value() }
