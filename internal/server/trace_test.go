package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/trace"
	"github.com/streamgeom/streamhull/internal/wal"
)

// Observability tests: stage spans on the durable ingest path, the
// distributed trace across a fan-in push, exemplars on /metrics, and
// the admin gate on the debug plane.

// spanNames collects the child-span names of one trace record.
func spanNames(rec *trace.Record) map[string]bool {
	names := make(map[string]bool, len(rec.Spans))
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestDurablePostTraceStages is the acceptance check for the ingest hot
// path in both storage modes: one POST yields a trace whose child spans
// name every stage — lock wait, batch prefilter, insert, and for a
// durable stream under SyncAlways also WAL append, group-commit fsync
// wait and checkpoint — plus the middleware's auth and rate-limit
// stages. An in-memory POST must carry none of the durable stages.
func TestDurablePostTraceStages(t *testing.T) {
	common := []string{"auth", "ratelimit", "lock_wait", "prefilter", "insert"}
	durableOnly := []string{"wal_append", "wal_fsync", "checkpoint"}
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"durable", true}, {"in-memory", false}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New(trace.Config{})
			cfg := Config{DefaultR: 8, Tracer: tr}
			if tc.durable {
				cfg.DataDir, cfg.Sync = t.TempDir(), wal.SyncAlways
			}
			srv := mustNew(t, cfg)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			if code, body := do(t, "POST", ts.URL+"/v1/streams/clicks/points",
				map[string]any{"points": [][2]float64{{0, 0}, {4, 0}, {0, 4}, {1, 1}}}); code != http.StatusOK {
				t.Fatalf("ingest: %d %v", code, body)
			}
			var rec *trace.Record
			for _, r := range tr.Traces() {
				if r.Name == "points" {
					rec = r
					break
				}
			}
			if rec == nil {
				t.Fatalf("no points trace recorded: %v", tr.Traces())
			}
			names := spanNames(rec)
			for _, want := range common {
				if !names[want] {
					t.Errorf("POST trace missing stage span %q (got %v)", want, names)
				}
			}
			for _, stage := range durableOnly {
				if names[stage] != tc.durable {
					t.Errorf("POST trace has stage %q = %v, want %v (got %v)", stage, names[stage], tc.durable, names)
				}
			}
			if rec.Spans[0].Attrs["stream"] != "clicks" {
				t.Errorf("root span attrs = %v, want stream=clicks", rec.Spans[0].Attrs)
			}
			// The read path materializes through the epoch cache.
			if code, _ := do(t, "GET", ts.URL+"/v1/streams/clicks/hull", nil); code != http.StatusOK {
				t.Fatalf("hull read: %d", code)
			}
			var hullRec *trace.Record
			for _, r := range tr.Traces() {
				if r.Name == "hull" {
					hullRec = r
					break
				}
			}
			if hullRec == nil || !spanNames(hullRec)["cache_materialize"] {
				t.Errorf("hull trace missing cache_materialize span: %+v", hullRec)
			}
		})
	}
}

// TestFanInPushSingleTrace runs a two-process push — a leaf pusher and
// an aggregator server, each with its own tracer — and checks the
// follower's "fanin.push" trace id is the id the aggregator recorded
// for the snapshot POST: one distributed trace, the aggregator's half
// marked remote.
func TestFanInPushSingleTrace(t *testing.T) {
	leafTracer := trace.New(trace.Config{})
	aggTracer := trace.New(trace.Config{})

	leaf := mustNew(t, Config{DefaultR: 8, Tracer: leafTracer})
	lts := httptest.NewServer(leaf)
	defer lts.Close()
	agg := mustNew(t, Config{DefaultR: 8, Tracer: aggTracer})
	ats := httptest.NewServer(agg)
	defer ats.Close()

	if code, body := do(t, "POST", lts.URL+"/v1/streams/clicks/points",
		map[string]any{"points": [][2]float64{{0, 0}, {2, 0}, {0, 2}}}); code != http.StatusOK {
		t.Fatalf("leaf ingest: %d %v", code, body)
	}

	p, err := fanin.NewPusher(fanin.PusherConfig{
		Target: ats.URL, Source: "n1", Interval: time.Second,
		Collect: leaf.StreamSnapshots, Tracer: leafTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushOnce(context.Background()); err != nil {
		t.Fatalf("PushOnce: %v", err)
	}

	var pushID string
	for _, rec := range leafTracer.Traces() {
		if rec.Name == "fanin.push" {
			pushID = rec.TraceID
			if a := rec.Spans[0].Attrs; a["stream"] != "clicks" || a["source"] != "n1" {
				t.Errorf("push span attrs = %v", a)
			}
		}
	}
	if pushID == "" {
		t.Fatal("leaf recorded no fanin.push trace")
	}
	found := false
	for _, rec := range aggTracer.Traces() {
		if rec.Name != "snapshot_post" {
			continue
		}
		found = true
		if rec.TraceID != pushID {
			t.Errorf("aggregator trace id %q != pushed %q", rec.TraceID, pushID)
		}
		if !rec.Remote || rec.ParentID == "" {
			t.Errorf("aggregator record not stitched to the remote parent: %+v", rec)
		}
	}
	if !found {
		t.Fatal("aggregator recorded no snapshot_post trace")
	}
}

// TestMetricsExemplars checks the latency histogram links buckets to
// trace ids in the OpenMetrics exposition (and only there).
func TestMetricsExemplars(t *testing.T) {
	tr := trace.New(trace.Config{})
	srv := mustNew(t, Config{DefaultR: 8, Tracer: tr})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, _ := do(t, "POST", ts.URL+"/v1/streams/s/points",
		map[string]any{"points": [][2]float64{{0, 0}, {1, 1}}}); code != http.StatusOK {
		t.Fatal("ingest failed")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Fatalf("negotiation failed, Content-Type %q", ct)
	}
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, `# {trace_id="`) {
		t.Error("OpenMetrics exposition carries no exemplars")
	}
	if !strings.Contains(body, "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}

	// The classic exposition must stay exemplar-free: they are invalid
	// syntax there and break strict scrapers.
	plain, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	n, _ = plain.Body.Read(buf)
	if strings.Contains(string(buf[:n]), "trace_id=") {
		t.Error("classic text exposition leaked exemplars")
	}
}

// TestDebugRoutesGated: the trace ring and pprof expose request
// internals, so under an authenticating provider they demand the write
// role — same gate as the mutating routes. Anonymous → 401, read-only
// token → 403, admin → 200.
func TestDebugRoutesGated(t *testing.T) {
	provider, err := auth.ParseStaticTokens(testTokens)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 8, Auth: provider, Tracer: tr}))
	defer ts.Close()

	paths := []string{"/debug/traces", "/debug/pprof/", "/debug/pprof/cmdline"}
	cases := []struct {
		name, token string
		want        int
	}{
		{"anonymous", "", http.StatusUnauthorized},
		{"read-only", "acme-reader", http.StatusForbidden},
		{"push-only", "acme-pusher", http.StatusForbidden},
		{"admin", "acme-admin", http.StatusOK},
	}
	for _, tc := range cases {
		for _, path := range paths {
			code, body := doAuth(t, "GET", ts.URL+path, tc.token, nil)
			if code != tc.want {
				t.Errorf("%s GET %s = %d, want %d (%s)", tc.name, path, code, tc.want, body)
			}
		}
	}
}

// TestDebugTracesEndpoint exercises the ring endpoint itself: records
// appear newest-first, ?limit caps them, and the ungated DebugHandler
// serves the same data for the localhost listener.
func TestDebugTracesEndpoint(t *testing.T) {
	tr := trace.New(trace.Config{})
	srv := mustNew(t, Config{DefaultR: 8, Tracer: tr})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, _ := do(t, "POST", ts.URL+"/v1/streams/s/points",
			map[string]any{"points": [][2]float64{{0, 0}, {1, 1}}}); code != http.StatusOK {
			t.Fatal("ingest failed")
		}
	}
	code, body := do(t, "GET", ts.URL+"/debug/traces?limit=2", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", code)
	}
	traces, ok := body["traces"].([]any)
	if !ok || len(traces) != 2 {
		t.Fatalf("limit=2 returned %v", body["traces"])
	}

	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()
	code, body = do(t, "GET", dbg.URL+"/debug/traces", nil)
	if code != http.StatusOK || body["traces"] == nil {
		t.Fatalf("DebugHandler /debug/traces: %d %v", code, body)
	}
}
