package trace

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("points", "")
	h := sp.Traceparent()
	traceID, spanID, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if traceID != sp.TraceID() {
		t.Fatalf("trace id %q != %q", traceID, sp.TraceID())
	}
	if len(spanID) != 16 {
		t.Fatalf("span id %q not 16 hex chars", spanID)
	}
	sp.End()
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version
		"00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01", // non-hex
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0",  // short flags
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	if _, _, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"); !ok {
		t.Error("valid traceparent rejected")
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	leaf := New(Config{})
	root := leaf.StartSpan("fanin.push", "")
	header := root.Traceparent()

	agg := New(Config{})
	sp := agg.StartSpan("snapshot_post", header)
	if sp.TraceID() != root.TraceID() {
		t.Fatalf("remote trace id %q != pushed %q", sp.TraceID(), root.TraceID())
	}
	sp.End()
	root.End()

	recs := agg.Traces()
	if len(recs) != 1 || !recs[0].Remote {
		t.Fatalf("aggregator record not marked remote: %+v", recs)
	}
	if recs[0].ParentID == "" {
		t.Fatal("remote record lost its parent span id")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", "")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every method on a nil span must be a no-op.
	sp.SetAttr("k", "v")
	sp.ObserveStage("stage", time.Millisecond)
	child := sp.StartChild("child")
	child.End()
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span trace id %q", got)
	}
	if got := sp.Traceparent(); got != "" {
		t.Fatalf("nil span traceparent %q", got)
	}
	if sp.StageObserver() != nil {
		t.Fatal("nil span returned a non-nil observer")
	}
	if t0 := sp.Start(); !t0.IsZero() {
		t.Fatalf("nil span read the clock: Start() = %v", t0)
	}
	sp.ObserveSince("stage", time.Now())
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer traces %v", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span round-tripped through context as non-nil")
	}
}

func TestObserveSinceRecordsStage(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("points", "")
	t0 := sp.Start()
	if t0.IsZero() {
		t.Fatal("live span returned the zero start time")
	}
	sp.ObserveSince("lock_wait", t0)
	sp.End()
	recs := tr.Traces()
	if len(recs) != 1 || len(recs[0].Spans) != 2 || recs[0].Spans[1].Name != "lock_wait" {
		t.Fatalf("want root plus one lock_wait stage, got %+v", recs)
	}
	if d := recs[0].Spans[1].DurationMicros; d < 0 {
		t.Fatalf("lock_wait stage left open: duration %d", d)
	}
}

func TestSamplerDeclines(t *testing.T) {
	tr := New(Config{Sample: func() bool { return false }})
	if sp := tr.StartSpan("points", ""); sp != nil {
		t.Fatal("declined sample still produced a span")
	}
	if tr.Len() != 0 {
		t.Fatal("unsampled request reached the ring")
	}
}

func TestSpansAndStages(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("points", "")
	sp.SetAttr("stream", "clicks")
	child := sp.StartChild("insert")
	child.End()
	sp.ObserveStage("wal_append", 2*time.Millisecond)
	sp.End()

	recs := tr.Traces()
	if len(recs) != 1 {
		t.Fatalf("got %d traces, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "points" || len(rec.Spans) != 3 {
		t.Fatalf("unexpected record %+v", rec)
	}
	if rec.Spans[0].Attrs["stream"] != "clicks" {
		t.Fatalf("root attrs %v", rec.Spans[0].Attrs)
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	rootID := rec.Spans[0].SpanID
	if byName["insert"].ParentID != rootID || byName["wal_append"].ParentID != rootID {
		t.Fatal("child spans not parented on the root")
	}
	if d := byName["wal_append"].DurationMicros; d < 1500 || d > 2500 {
		t.Fatalf("observed stage duration %dus, want ~2000", d)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("points", "")
	sp.End()
	sp.End()
	if tr.Len() != 1 {
		t.Fatalf("double End recorded %d traces", tr.Len())
	}
}

// TestRingEvictionConcurrent hammers the ring from many goroutines and
// checks the buffer stays bounded and newest-first (run with -race).
func TestRingEvictionConcurrent(t *testing.T) {
	const capacity, workers, per = 8, 16, 50
	tr := New(Config{Capacity: capacity})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartSpan("req", "")
				sp.StartChild("stage").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	recs := tr.Traces()
	if len(recs) != capacity {
		t.Fatalf("ring holds %d, want capacity %d", len(recs), capacity)
	}
	for i, rec := range recs {
		if rec == nil {
			t.Fatalf("nil record at %d", i)
		}
		if i > 0 && rec.Start.After(recs[i-1].Start.Add(time.Second)) {
			t.Fatalf("ring not newest-first at %d", i)
		}
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := New(Config{SlowThreshold: time.Millisecond, Logger: logger})

	fast := tr.StartSpan("fast", "")
	fast.End()
	slow := tr.StartSpan("points", "")
	slow.ObserveStage("wal_fsync", 500*time.Microsecond)
	time.Sleep(2 * time.Millisecond)
	slow.End()

	out := buf.String()
	if strings.Count(out, "slow trace") != 1 {
		t.Fatalf("want exactly one slow-trace log, got: %q", out)
	}
	if !strings.Contains(out, slow.TraceID()) {
		t.Fatalf("slow log missing trace id: %q", out)
	}
	if !strings.Contains(out, "stage.wal_fsync") {
		t.Fatalf("slow log missing stage breakdown: %q", out)
	}
	recs := tr.Traces()
	if !recs[0].Slow || recs[1].Slow {
		t.Fatalf("slow flags wrong: %v %v", recs[0].Slow, recs[1].Slow)
	}
}
