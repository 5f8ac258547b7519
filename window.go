package streamhull

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/core"
	"github.com/streamgeom/streamhull/internal/window"
)

// WindowedHull is a sliding-window hull summary: it answers every query
// of the non-windowed summaries, but over only the recent stream — the
// last n points (NewWindowedByCount) or the last d of wall time
// (NewWindowedByTime) — so transient extremes age out instead of
// dominating the hull forever. That is the sensor/telemetry question the
// paper's deployments actually ask (§1): the extent of the last hour of
// readings, not of everything ever seen.
//
// Internally the window is covered by O(log n) exponential-histogram
// buckets, each an O(r)-size adaptive sub-summary built by the §4 static
// sampler when the open head bucket seals; expired buckets are dropped
// whole, adjacent buckets merge by the same extrema-union used by
// MergeSnapshots, and queries fold the live buckets into one Polygon.
// The window boundary has one-sided slack at the old end: the hull
// always covers at least the configured window, and at most the window
// plus the span of the single bucket straddling the boundary. The inner
// approximation error compounds one O(D/r²) term per merge level —
// O(log(n)·D/r²) total against the exact hull of the covered suffix.
//
// WindowedHull satisfies Summary, so PairTracker, SeparationMonitor,
// Snapshot shipping, and all §6 queries work on windows unchanged.
type WindowedHull struct {
	mu     sync.Mutex
	eh     *window.EH
	r      int
	count  int           // configured count window (0 for time windows)
	maxAge time.Duration // configured time window (0 for count windows)
	spec   Spec
	cached bool
	hull   Polygon
	epoch  atomic.Uint64
}

// coreSub adapts internal/core's adaptive hull to the per-bucket
// contract of internal/window.
type coreSub struct{ h *core.Hull }

func (c coreSub) Size() int { return c.h.SampleSize() }
func (c coreSub) Samples() ([]float64, []geom.Point) {
	samples := c.h.Samples()
	thetas := make([]float64, len(samples))
	points := make([]geom.Point, len(samples))
	for i, s := range samples {
		thetas[i] = s.Theta
		points[i] = s.Point
	}
	return thetas, points
}

// sealSub builds a sealed bucket's O(r)-size adaptive sub-summary from a
// head bucket's raw buffer via the §4 static adaptive build.
func sealSub(r int) func(pts []geom.Point) window.Sub {
	return func(pts []geom.Point) window.Sub {
		return coreSub{core.BuildStatic(pts, core.Config{R: r})}
	}
}

// frozenSub is a merged bucket's sub-summary. Sealed buckets never
// receive further stream points, so a merge result can hold its extrema
// as a plain pruned point set instead of a live adaptive structure —
// this is what keeps bucket merges cheap.
type frozenSub struct {
	thetas []float64
	points []geom.Point
}

func (s frozenSub) Size() int                          { return len(s.points) }
func (s frozenSub) Samples() ([]float64, []geom.Point) { return s.thetas, s.points }

// mergeSubs is the extrema-union bucket merge (the MergeSnapshots
// operation, specialized): the union of both buckets' samples pruned to
// its convex hull, resampled down through the §4 static adaptive build
// only on the rare occasions the union hull exceeds the 4r+2 budget.
func mergeSubs(r int) func(a, b window.Sub) window.Sub {
	return func(a, b window.Sub) window.Sub {
		ta, pa := a.Samples()
		tb, pb := b.Samples()
		thetas := append(append(make([]float64, 0, len(ta)+len(tb)), ta...), tb...)
		points := append(append(make([]geom.Point, 0, len(pa)+len(pb)), pa...), pb...)
		hull := convex.Hull(points)
		if hull.Len() > 4*r+2 {
			h := core.BuildStatic(points, core.Config{R: r})
			return coreSub{h}
		}
		// Keep each surviving vertex's original sample direction.
		byPoint := make(map[geom.Point]float64, len(points))
		for i, p := range points {
			if _, ok := byPoint[p]; !ok {
				byPoint[p] = thetas[i]
			}
		}
		verts := hull.Vertices()
		out := frozenSub{
			thetas: make([]float64, len(verts)),
			points: append([]geom.Point(nil), verts...),
		}
		for i, v := range verts {
			out.thetas[i] = byPoint[v]
		}
		return out
	}
}

// buildWindowed constructs a windowed summary from an already validated
// Spec (see New). A nil clock selects time.Now for time windows.
func buildWindowed(spec Spec, clock func() time.Time) (*WindowedHull, error) {
	count, dur, err := parseWindow(spec.Window)
	if err != nil {
		return nil, err
	}
	cfg := window.Config{Seal: sealSub(spec.R), Merge: mergeSubs(spec.R)}
	if count > 0 {
		cfg.MaxCount = count
	} else {
		cfg.MaxAge = dur
		cfg.Now = clock
	}
	return &WindowedHull{
		eh: window.New(cfg), r: spec.R, count: count, maxAge: dur, spec: spec,
	}, nil
}

// NewWindowedByCount returns a summary of the last n stream points
// (n ≥ 1) with adaptive sample parameter r ≥ 4 per bucket. Like the
// other summary constructors it panics on invalid parameters; use
// New(Spec) for validated construction from user input.
func NewWindowedByCount(r, n int) *WindowedHull {
	return mustWindowed(Spec{Kind: KindWindowed, R: r, Window: strconv.Itoa(n)}, nil)
}

// NewWindowedByTime returns a summary of the last d of time (d > 0) with
// adaptive sample parameter r ≥ 4 per bucket. clock supplies the current
// time; nil selects time.Now. Time windows age out between inserts: call
// Expire (or just query — queries expire first) to drop stale buckets on
// an idle stream. Like the other summary constructors it panics on
// invalid parameters; use New(Spec) for validated construction from user
// input.
func NewWindowedByTime(r int, d time.Duration, clock func() time.Time) *WindowedHull {
	return mustWindowed(Spec{Kind: KindWindowed, R: r, Window: d.String()}, clock)
}

// mustWindowed validates spec and builds its windowed summary, panicking
// on invalid parameters (the constructors' contract).
func mustWindowed(spec Spec, clock func() time.Time) *WindowedHull {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	s, err := buildWindowed(spec, clock)
	if err != nil {
		panic(err)
	}
	return s
}

// R returns the per-bucket sample parameter r.
func (s *WindowedHull) R() int { return s.r }

// Spec returns the summary's serializable description.
func (s *WindowedHull) Spec() Spec { return s.spec }

// ByTime reports whether the window is time-bounded (as opposed to
// count-bounded).
func (s *WindowedHull) ByTime() bool { return s.maxAge > 0 }

// expireLocked drops aged-out buckets on time windows so every accessor
// observes a current view; count windows expire on insert. Callers must
// hold s.mu.
// expireLocked drops fully expired buckets; eh.Expire's return value is
// the mutation witness, and the epoch advances exactly when it reports
// drops. Caller holds s.mu.
//
//lint:allow epochbump eh.Expire returns the drop count and the epoch bumps iff it is positive
func (s *WindowedHull) expireLocked() {
	if s.eh.ByTime() && s.eh.Expire() > 0 {
		s.cached = false
		s.epoch.Add(1)
	}
}

// Insert processes one stream point, expiring and merging window buckets
// as needed. The point lands in the head bucket's raw buffer; the
// adaptive summarization cost is paid in bulk when the head seals, so
// the amortized per-point cost is an append plus a vanishing share of
// one §4 static build and its merge cascade.
func (s *WindowedHull) Insert(p geom.Point) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	s.mu.Lock()
	s.eh.Insert(p)
	s.cached = false
	s.epoch.Add(1)
	s.mu.Unlock()
	return nil
}

// InsertBatch processes a batch of stream points under one lock
// acquisition and one clock read, sealing head buckets only at capacity
// boundaries (at most ⌈len/HeadCap⌉ seals per batch — see
// window.EH.InsertBatch). The batch is validated first, so an error
// means nothing was applied. Given the same batch boundaries the result
// is bit-deterministic, which is what durable windowed streams rely on
// for WAL replay.
func (s *WindowedHull) InsertBatch(pts []geom.Point) (int, error) {
	if err := checkFiniteBatch(pts); err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	s.eh.InsertBatch(pts)
	s.cached = false
	s.epoch.Add(1)
	s.mu.Unlock()
	return len(pts), nil
}

// Epoch returns the summary's mutation counter; window expiry advances
// it too, so cached reads of a time window refresh as buckets age out.
func (s *WindowedHull) Epoch() uint64 { return s.epoch.Load() }

// Hull returns the convex hull of the window's live samples. Time-based
// windows expire stale buckets first, so the hull is current even on an
// idle stream. The hull memo it materializes under the cached flag is
// derived state — rebuilding it changes nothing observable.
//
//lint:allow epochbump memoizing the hull of unchanged samples changes no observable state
func (s *WindowedHull) Hull() Polygon {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if !s.cached {
		s.hull = HullOf(s.eh.Points())
		s.cached = true
	}
	return s.hull
}

// SampleSize returns the number of points stored across live buckets,
// counting the head bucket's raw buffer (O(r log n + n/64) for a count
// window of n).
func (s *WindowedHull) SampleSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return s.eh.SampleSize()
}

// N returns the number of stream points processed over the summary's
// lifetime (not just the live window; see WindowCount).
func (s *WindowedHull) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eh.N()
}

// WindowCount returns the number of stream points the live window
// currently covers: at least min(N, n) for a count window of n, and at
// most the window plus the straddling bucket's span.
func (s *WindowedHull) WindowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return s.eh.Count()
}

// WindowSpan reports the live window's actual coverage: how many stream
// points it holds and the time between its oldest and newest points
// (zero for count windows, whose buckets are not timestamped).
func (s *WindowedHull) WindowSpan() (count int, age time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	count = s.eh.Count()
	if oldest, newest := s.eh.TimeSpan(); !oldest.IsZero() {
		age = newest.Sub(oldest)
	}
	return count, age
}

// Expire drops every fully expired bucket now and reports how many were
// dropped. Inserts and queries expire implicitly; Expire exists for
// background sweeps over idle time-windowed streams.
//
//lint:allow epochbump eh.Expire returns the drop count and the epoch bumps iff it is positive
func (s *WindowedHull) Expire() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := s.eh.Expire()
	if dropped > 0 {
		s.cached = false
		s.epoch.Add(1)
	}
	return dropped
}

// Buckets returns the number of live exponential-histogram buckets
// (O(log n); useful for monitoring).
func (s *WindowedHull) Buckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return s.eh.Buckets()
}

// WindowStats reports the window's lifetime maintenance counters.
func (s *WindowedHull) WindowStats() window.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eh.Stats()
}

// windowedState is the serialized checkpoint payload of a durable
// windowed stream: the full exponential-histogram bucket structure (a
// folded Snapshot cannot restore a window — per-bucket boundaries are
// what keep future expiry and merging deterministic). JSON with a
// format discriminator, so recovery can tell it apart from the binary
// Snapshot checkpoints of the lifetime summaries.
type windowedState struct {
	Format string       `json:"format"`
	State  window.State `json:"state"`
}

const windowedStateFormat = "streamhull-windowed-state-v1"

// MarshalState captures the window's complete structure — O(r log n +
// HeadCap) points — for use as a durable checkpoint. NewWindowedFromState
// inverts it; for count windows the restore is bit-exact.
func (s *WindowedHull) MarshalState() ([]byte, error) {
	s.mu.Lock()
	st := s.eh.ExportState()
	s.mu.Unlock()
	data, err := json.Marshal(windowedState{Format: windowedStateFormat, State: st})
	if err != nil {
		return nil, fmt.Errorf("streamhull: encoding windowed state: %w", err)
	}
	return data, nil
}

// NewWindowedFromState rebuilds a windowed summary from a MarshalState
// payload and the stream's Spec (which the WAL meta persists). A nil
// clock selects time.Now for time windows; restored buckets keep their
// original timestamps, so everything captured in the state ages out
// correctly after downtime. Note the caveat for WAL-tail replay on
// time windows: points replayed on top of the restored state (see
// store.LoadDir) are stamped at replay time, not original arrival
// time — coverage is one-sidedly conservative, never lost.
func NewWindowedFromState(spec Spec, data []byte, clock func() time.Time) (*WindowedHull, error) {
	if spec.Kind != KindWindowed {
		return nil, fmt.Errorf("streamhull: windowed state requires a windowed spec, got %q", spec.Kind)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var ws windowedState
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("streamhull: decoding windowed state: %w", err)
	}
	if ws.Format != windowedStateFormat {
		return nil, fmt.Errorf("streamhull: unknown windowed state format %q", ws.Format)
	}
	s, err := buildWindowed(spec, clock)
	if err != nil {
		return nil, err
	}
	if err := s.eh.ImportState(ws.State); err != nil {
		return nil, err
	}
	return s, nil
}

// Snapshot captures the live window's sample for transmission. Its N is
// the covered window count, so MergeSnapshots of windowed snapshots
// approximates the union of the senders' recent data.
func (s *WindowedHull) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	thetas, points := s.eh.Samples()
	// The head bucket holds raw points without sample directions yet; run
	// them through the same static sampler a seal would use.
	if head := s.eh.HeadPoints(); len(head) > 0 {
		ht, hp := sealSub(s.r)(head).Samples()
		thetas = append(thetas, ht...)
		points = append(points, hp...)
	}
	spec := s.spec
	return Snapshot{Kind: "windowed", R: s.r, N: s.eh.Count(), Angles: thetas, Points: points, Spec: &spec}
}
