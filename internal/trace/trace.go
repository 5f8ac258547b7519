// Package trace is a zero-dependency request-tracing subsystem: spans
// with monotonic timings, per-request trace/span IDs, and W3C
// traceparent propagation so a follower's fan-in push and the
// aggregator's handling of it are one distributed trace.
//
// The design is deliberately smaller than OpenTelemetry: a Tracer
// starts one root span per request (continuing an incoming traceparent
// when present), handlers hang child spans or pre-timed stages off it,
// and when the root ends the completed trace lands in a bounded ring
// buffer served at /debug/traces. Traces at least Config.SlowThreshold
// long are additionally logged through log/slog with their stage
// breakdown, so a latency spike explains itself — lock wait vs
// prefilter vs WAL append vs fsync — without a scrape.
//
// Everything is nil-safe: a nil *Tracer starts nil spans, and every
// method on a nil *Span is a no-op, so instrumented code paths carry
// no conditionals and close to no cost when tracing is off or a
// request is not sampled.
package trace

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
)

// ctxKey keys the active span in a request context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp; a nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil (a no-op span).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Config parameterizes a Tracer.
type Config struct {
	// Capacity bounds the completed-trace ring buffer (0 = 256).
	Capacity int
	// SlowThreshold: completed traces at least this long are logged as
	// slow traces with their stage breakdown (0 = never log).
	SlowThreshold time.Duration
	// Logger receives slow-trace logs (nil = discard).
	Logger *slog.Logger
	// Sample decides per root span whether the request is traced
	// (nil = always). Unsampled requests get a nil span: no IDs, no
	// allocation beyond the one call.
	Sample func() bool
}

// Tracer records request traces into a bounded ring buffer.
// A nil *Tracer is valid and disables tracing.
type Tracer struct {
	capacity int
	slow     time.Duration
	logger   *slog.Logger
	sample   func() bool

	mu   sync.Mutex
	ring []*Record // completed traces, ring[next-1] newest
	next int
}

// New returns a Tracer with cfg's knobs filled with defaults.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Tracer{
		capacity: cfg.Capacity,
		slow:     cfg.SlowThreshold,
		logger:   logger,
		sample:   cfg.Sample,
		ring:     make([]*Record, 0, cfg.Capacity),
	}
}

// Record is one completed trace as served at /debug/traces. Field
// order matters to scripts that scrape the JSON with regexps:
// trace_id first, name second.
type Record struct {
	TraceID string `json:"trace_id"`
	// Name is the root span's name (the endpoint label).
	Name string `json:"name"`
	// Remote reports that the trace continued an incoming traceparent —
	// this process holds one leg of a distributed trace.
	Remote bool `json:"remote,omitempty"`
	// ParentID is the incoming traceparent's span id, when Remote.
	ParentID string `json:"parent_id,omitempty"`
	// Start is the root span's wall-clock start.
	Start time.Time `json:"start"`
	// DurationMicros is the root span's total time (monotonic clock).
	DurationMicros int64 `json:"duration_us"`
	// Slow marks traces at or above the slow threshold.
	Slow bool `json:"slow,omitempty"`
	// Spans lists every span in start order, the root first.
	Spans []SpanRecord `json:"spans"`
}

// SpanRecord is one span within a completed trace.
type SpanRecord struct {
	Name   string `json:"name"`
	SpanID string `json:"span_id"`
	// ParentID is the parent span's id ("" for the root; the incoming
	// remote span id when the trace continued a traceparent).
	ParentID string `json:"parent_id,omitempty"`
	// StartMicros is the span's start offset from the trace start.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span's duration; -1 while still open (a
	// child that had not ended when the root did).
	DurationMicros int64 `json:"duration_us"`
	// Attrs carries low-cardinality annotations (tenant, stream,
	// status).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// trace is the mutable collecting state behind the spans of one
// in-flight request.
type trace struct {
	tracer  *Tracer
	traceID string
	remote  bool
	parent  string // remote parent span id
	start   time.Time

	mu    sync.Mutex
	spans []spanState
}

type spanState struct {
	name     string
	spanID   string
	parentID string
	start    time.Time
	dur      time.Duration // -1 while open
	attrs    map[string]string
}

// Span is one timed operation within a trace. A nil *Span is a no-op
// everywhere, which is how unsampled requests and disabled tracing
// cost nothing.
type Span struct {
	t   *trace
	idx int // index into t.spans
}

// newID64 renders 8 random bytes as 16 hex chars (span ids).
func newID64() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// newID128 renders 16 random bytes as 32 hex chars (trace ids).
func newID128() string { return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64()) }

// StartSpan starts a root span for one request. When traceparent
// carries a valid W3C header the new trace continues it: same trace
// id, the remote span as the root's parent — that is what stitches a
// follower's push and the aggregator's handler into one distributed
// trace. Returns nil when the tracer is nil or the sampler declines.
func (tr *Tracer) StartSpan(name, traceparent string) *Span {
	if tr == nil {
		return nil
	}
	if tr.sample != nil && !tr.sample() {
		return nil
	}
	t := &trace{tracer: tr, start: time.Now()}
	if traceID, spanID, ok := ParseTraceparent(traceparent); ok {
		t.traceID, t.remote, t.parent = traceID, true, spanID
	} else {
		t.traceID = newID128()
	}
	t.spans = append(t.spans, spanState{
		name: name, spanID: newID64(), parentID: t.parent,
		start: t.start, dur: -1,
	})
	return &Span{t: t, idx: 0}
}

// StartChild opens a child span under s; End it when the operation
// finishes. Returns nil (a no-op span) when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanState{
		name: name, spanID: newID64(), parentID: t.spans[s.idx].spanID,
		start: time.Now(), dur: -1,
	})
	return &Span{t: t, idx: len(t.spans) - 1}
}

// ObserveStage records an already-timed operation of duration d ending
// now as a completed child span — the shape used for sequential stages
// (auth, lock wait, WAL append) where the caller measured with two
// clock reads and no span needs to stay open across calls.
func (s *Span) ObserveStage(name string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanState{
		name: name, spanID: newID64(), parentID: t.spans[s.idx].spanID,
		start: time.Now().Add(-d), dur: d,
	})
}

// Start reads the clock for a stage that ObserveSince will close. On a
// nil span it returns the zero time without reading the clock, so
// untraced requests pay nothing for stage timing.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the stage that began at t0 (from Start) and
// ends now. A no-op on a nil span.
func (s *Span) ObserveSince(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.ObserveStage(name, time.Since(t0))
}

// StageObserver adapts s to the func(stage, duration) observer shape
// staged library calls take (streamhull.StagedBatchInserter). Returns
// nil when s is nil — a nil *Span bound as a method value would not be
// a nil func — so the library skips its clock reads.
func (s *Span) StageObserver() func(stage string, d time.Duration) {
	if s == nil {
		return nil
	}
	return s.ObserveStage
}

// SetAttr annotates the span (tenant, stream, status). Last write per
// key wins.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[s.idx]
	if sp.attrs == nil {
		sp.attrs = make(map[string]string, 4)
	}
	sp.attrs[key] = value
}

// TraceID returns the span's 32-hex-char trace id ("" for nil spans).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.traceID
}

// Traceparent renders the W3C header an outgoing request should carry
// so the receiving process continues this trace ("" for nil spans).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	s.t.mu.Lock()
	id := s.t.spans[s.idx].spanID
	s.t.mu.Unlock()
	return FormatTraceparent(s.t.traceID, id)
}

// End closes the span. Ending the root span completes the trace: it is
// pushed into the tracer's ring buffer and, at or above the slow
// threshold, logged with its stage breakdown. Ending a span twice is a
// no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	sp := &t.spans[s.idx]
	if sp.dur >= 0 { // already ended
		t.mu.Unlock()
		return
	}
	sp.dur = time.Since(sp.start)
	if s.idx != 0 {
		t.mu.Unlock()
		return
	}
	rec := t.recordLocked()
	t.mu.Unlock()
	t.tracer.complete(rec)
}

// recordLocked freezes the trace into its immutable Record. Caller
// holds t.mu.
func (t *trace) recordLocked() *Record {
	root := t.spans[0]
	rec := &Record{
		TraceID:        t.traceID,
		Name:           root.name,
		Remote:         t.remote,
		ParentID:       t.parent,
		Start:          root.start,
		DurationMicros: root.dur.Microseconds(),
		Spans:          make([]SpanRecord, len(t.spans)),
	}
	for i, sp := range t.spans {
		dur := int64(-1)
		if sp.dur >= 0 {
			dur = sp.dur.Microseconds()
		}
		var attrs map[string]string
		if len(sp.attrs) > 0 {
			attrs = make(map[string]string, len(sp.attrs))
			for k, v := range sp.attrs {
				attrs[k] = v
			}
		}
		rec.Spans[i] = SpanRecord{
			Name: sp.name, SpanID: sp.spanID, ParentID: sp.parentID,
			StartMicros:    sp.start.Sub(root.start).Microseconds(),
			DurationMicros: dur,
			Attrs:          attrs,
		}
	}
	return rec
}

// complete files a finished trace into the ring and slow-logs it.
func (tr *Tracer) complete(rec *Record) {
	slow := tr.slow > 0 && time.Duration(rec.DurationMicros)*time.Microsecond >= tr.slow
	rec.Slow = slow
	tr.mu.Lock()
	if len(tr.ring) < tr.capacity {
		tr.ring = append(tr.ring, rec)
		tr.next = len(tr.ring) % tr.capacity
	} else {
		tr.ring[tr.next] = rec
		tr.next = (tr.next + 1) % tr.capacity
	}
	tr.mu.Unlock()
	if slow {
		args := []any{
			slog.String("trace_id", rec.TraceID),
			slog.String("name", rec.Name),
			slog.Duration("duration", time.Duration(rec.DurationMicros)*time.Microsecond),
		}
		// One attr per stage keeps the log line greppable: the stage
		// breakdown is the point of a slow-trace log.
		for _, sp := range rec.Spans[1:] {
			if sp.DurationMicros >= 0 {
				args = append(args, slog.Duration("stage."+sp.Name,
					time.Duration(sp.DurationMicros)*time.Microsecond))
			}
		}
		tr.logger.Warn("slow trace", args...)
	}
}

// Traces returns the completed traces, newest first.
func (tr *Tracer) Traces() []*Record {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Record, 0, len(tr.ring))
	// tr.next is the oldest slot once the ring is full; walk backwards
	// from the newest.
	for i := 0; i < len(tr.ring); i++ {
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		out = append(out, tr.ring[idx])
	}
	return out
}

// Len reports how many completed traces the ring currently holds.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.ring)
}

// FormatTraceparent renders a W3C trace-context header (version 00,
// sampled flag set).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent extracts the trace and parent-span ids from a W3C
// traceparent header: version "00", 32 lowercase-hex trace id, 16
// lowercase-hex parent id, 2-hex flags. All-zero ids are invalid per
// the spec.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !isHex(traceID) || !isHex(spanID) || !isHex(h[53:]) {
		return "", "", false
	}
	if allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
