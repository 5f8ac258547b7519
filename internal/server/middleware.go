package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/telemetry"
	"github.com/streamgeom/streamhull/internal/trace"
)

// The service layer: every API route passes through route(), which
// authenticates the bearer token, spends a tenant rate-limit token,
// checks the endpoint's required role, and records the request in the
// latency histogram and request counter — in that order, so a limited
// or unauthorized caller is turned away before any handler work runs.
// The observability routes (/metrics, /healthz, /readyz) bypass auth:
// scrapers and orchestrator probes do not carry tenant credentials.

// ctxKey keys the authenticated identity in the request context.
type ctxKey int

const identityKey ctxKey = iota

// identityFrom returns the identity route() attached. Handlers are only
// reachable through route(), so the value is always present; the zero
// identity (root tenant, no roles) is a safe fallback for tests that
// call handlers directly.
func identityFrom(req *http.Request) auth.Identity {
	if id, ok := req.Context().Value(identityKey).(auth.Identity); ok {
		return id
	}
	return auth.Identity{Tenant: "", Roles: auth.RoleAll}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// anyRole marks routes whose exact requirement depends on the request
// body (PUT create: write, or push when the spec is a fan-in
// aggregate); the handler enforces it after parsing.
const anyRole auth.Role = 0

// route registers pattern with the full service-layer wrapper.
// endpoint is the metrics label (stable, low-cardinality); roleFor
// derives the required role from the request (nil = roleNeeded
// constant). When tracing is on, each request gets a root span named
// after the endpoint — continuing the caller's traceparent header when
// it sent one — and the latency histogram's bucket carries the trace
// id as its exemplar, so a dashboard spike links to a concrete trace.
func (s *Server) route(pattern, endpoint string, roleFor func(*http.Request) auth.Role, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sp := s.tracer.StartSpan(endpoint, req.Header.Get("traceparent"))
		if sp != nil {
			req = req.WithContext(trace.ContextWithSpan(req.Context(), sp))
		}
		s.serveAuthed(sw, req, roleFor, h)
		sp.SetAttr("status", strconv.Itoa(sw.status))
		sp.End()
		s.met.latency.With(endpoint).ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
		s.met.requests.With(endpoint, strconv.Itoa(sw.status)).Inc()
	})
}

// serveAuthed runs authentication, rate limiting and the role check,
// then the handler with the identity attached.
func (s *Server) serveAuthed(w http.ResponseWriter, req *http.Request, roleFor func(*http.Request) auth.Role, h http.HandlerFunc) {
	// With AsyncRecovery the handler is live before the stream map is:
	// until startup recovery completes, API routes answer 503 in the
	// uniform envelope (code "not_ready") carrying the same progress
	// numbers /readyz reports.
	if recovered, total, starting := s.health.Recovery(); starting {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error:    fmt.Sprintf("starting: %d of %d streams recovered", recovered, total),
			Code:     "not_ready",
			Recovery: &recoveryProgress{Recovered: recovered, Total: total},
		})
		return
	}
	sp := trace.FromContext(req.Context())
	t0 := sp.Start()
	ident, err := s.authp.Authenticate(auth.BearerToken(req.Header.Get("Authorization")))
	sp.ObserveSince("auth", t0)
	t0 = sp.Start()
	if err != nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="streamhull"`)
		s.met.denied.With("unauthenticated").Inc()
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	sp.SetAttr("tenant", ident.Tenant)
	if err := s.ledger.Allow(ident.Tenant); err != nil {
		var rl *auth.RateLimitError
		if errors.As(err, &rl) {
			secs := int(math.Ceil(rl.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		s.met.denied.With("rate_limited").Inc()
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	sp.ObserveSince("ratelimit", t0)
	if roleFor != nil {
		if need := roleFor(req); need != anyRole && !ident.Roles.Has(need) {
			s.met.denied.With("forbidden").Inc()
			writeErr(w, http.StatusForbidden,
				"token for tenant %q lacks the %q role", ident.Tenant, need)
			return
		}
	}
	h(w, req.WithContext(context.WithValue(req.Context(), identityKey, ident)))
}

// requireRole is the in-handler role check for routes registered with
// anyRole; reports whether the request may proceed (writing the 403
// itself otherwise).
func (s *Server) requireRole(w http.ResponseWriter, ident auth.Identity, need auth.Role, ok bool) bool {
	if ok {
		return true
	}
	s.met.denied.With("forbidden").Inc()
	writeErr(w, http.StatusForbidden, "token for tenant %q lacks the %q role", ident.Tenant, need)
	return false
}

// needRead/needWrite/needPush are the fixed per-route role requirements.
func needRead(*http.Request) auth.Role  { return auth.RoleRead }
func needWrite(*http.Request) auth.Role { return auth.RoleWrite }

// needRestoreRole distinguishes the snapshot POST's two flavors: a
// ?source= push is the follower path (push role), a plain restore is a
// stream write.
func needRestoreRole(req *http.Request) auth.Role {
	if req.URL.Query().Get("source") != "" {
		return auth.RolePush
	}
	return auth.RoleWrite
}

// metrics is the server's instrument set. Mutation-path instruments are
// allocated once at startup; structural values (streams per tenant,
// WAL lag, source staleness, query-cache totals) are collectors
// evaluated at scrape time against the live stream map.
type metrics struct {
	requests     *telemetry.CounterVec   // endpoint, code
	latency      *telemetry.HistogramVec // endpoint
	ingestPoints *telemetry.CounterVec   // tenant
	denied       *telemetry.CounterVec   // reason
	pushAccepted *telemetry.Counter
	pushRejected *telemetry.Counter
	pushDeltas   *telemetry.Counter
	pushResyncs  *telemetry.Counter
	pullsTotal   *telemetry.Counter
	pullErrors   *telemetry.Counter
	pairHits     *telemetry.Counter
	pairMisses   *telemetry.Counter
	// Cold-tier instruments: eviction/rehydration counters plus the
	// rehydration latency distribution (with trace exemplars, so a slow
	// rehydration on a dashboard links to its request trace).
	evictions        *telemetry.Counter
	rehydrations     *telemetry.Counter
	rehydrateSeconds *telemetry.Histogram
}

// initMetrics registers every instrument and collector on reg and wires
// the observability routes.
func (s *Server) initMetrics(reg *telemetry.Registry) {
	s.met = metrics{
		requests: reg.NewCounterVec("streamhull_http_requests_total",
			"API requests by endpoint and response code", "endpoint", "code"),
		latency: reg.NewHistogramVec("streamhull_http_request_seconds",
			"API request latency by endpoint", nil, "endpoint"),
		ingestPoints: reg.NewCounterVec("streamhull_ingest_points_total",
			"points accepted into stream summaries, by tenant", "tenant"),
		denied: reg.NewCounterVec("streamhull_requests_denied_total",
			"requests turned away by the service layer, by reason", "reason"),
		pushAccepted: reg.NewCounter("streamhull_fanin_pushes_accepted_total",
			"fan-in source pushes accepted into aggregates"),
		pushRejected: reg.NewCounter("streamhull_fanin_pushes_rejected_total",
			"fan-in source pushes rejected (stale epoch, resync demanded, wrong kind, bad body)"),
		pushDeltas: reg.NewCounter("streamhull_fanin_push_deltas_total",
			"accepted fan-in pushes that arrived as epoch-ranged delta frames"),
		pushResyncs: reg.NewCounter("streamhull_fanin_push_resyncs_total",
			"delta pushes bounced with resync_required (the follower answers with a full snapshot)"),
		pullsTotal: reg.NewCounter("streamhull_fanin_pulls_total",
			"snapshots the aggregator fetched itself from lagging sources' advertised addresses"),
		pullErrors: reg.NewCounter("streamhull_fanin_pull_errors_total",
			"aggregator-initiated pulls that failed (unreachable source, bad snapshot, stale epoch)"),
		pairHits: reg.NewCounter("streamhull_paircache_hits_total",
			"pair queries answered from the (epochA, epochB) memo"),
		pairMisses: reg.NewCounter("streamhull_paircache_misses_total",
			"pair queries that had to run the geometry kernels"),
		evictions: reg.NewCounter("streamhull_store_evictions_total",
			"streams evicted from the warm set to their O(r) checkpoints"),
		rehydrations: reg.NewCounter("streamhull_store_rehydrations_total",
			"cold streams rebuilt from the store on a touch"),
		rehydrateSeconds: reg.NewHistogramVec("streamhull_store_rehydrate_seconds",
			"latency of rebuilding a cold stream from its checkpoint plus log tail", nil).With(),
	}

	// Warm/cold occupancy is derived at scrape time from the live
	// stream map: a stream is warm iff its read cache pointer is live
	// (one atomic load, no stream lock).
	reg.NewGaugeFunc("streamhull_store_resident_streams",
		"streams with a live in-memory summary",
		func() float64 {
			warm := 0
			s.mu.RLock()
			for _, st := range s.streams {
				if st.cache.Load() != nil {
					warm++
				}
			}
			s.mu.RUnlock()
			return float64(warm)
		})
	reg.NewGaugeFunc("streamhull_store_cold_streams",
		"streams parked in the cold tier (summary evicted to its checkpoint)",
		func() float64 {
			cold := 0
			s.mu.RLock()
			for _, st := range s.streams {
				if st.cache.Load() == nil {
					cold++
				}
			}
			s.mu.RUnlock()
			return float64(cold)
		})

	reg.NewGaugeCollector("streamhull_tenant_streams",
		"resident streams per tenant", []string{"tenant"},
		func(emit func([]string, float64)) {
			counts := make(map[string]int)
			s.mu.RLock()
			for key := range s.streams {
				tenant, _ := splitTenant(key)
				counts[tenant]++
			}
			s.mu.RUnlock()
			for tenant, n := range counts {
				emit([]string{tenant}, float64(n))
			}
		})

	reg.NewGaugeFunc("streamhull_wal_fsync_lag_seconds",
		"age of the oldest acknowledged append not yet fsynced, max over streams",
		func() float64 {
			var worst time.Duration
			s.mu.RLock()
			for _, st := range s.streams {
				st.mu.Lock()
				app := st.app
				st.mu.Unlock()
				if app == nil { // in-memory, or parked cold
					continue
				}
				if lag := app.SyncLag(); lag > worst {
					worst = lag
				}
			}
			s.mu.RUnlock()
			return worst.Seconds()
		})

	reg.NewGaugeCollector("streamhull_fanin_source_staleness_seconds",
		"time since each fan-in source's last accepted push", []string{"stream", "source"},
		func(emit func([]string, float64)) {
			now := time.Now()
			s.mu.RLock()
			type agg struct {
				id  string
				sum *streamhull.FanInHull
			}
			var aggs []agg
			for key, st := range s.streams {
				if fh, ok := st.summary().(*streamhull.FanInHull); ok {
					aggs = append(aggs, agg{id: key, sum: fh})
				}
			}
			s.mu.RUnlock()
			for _, a := range aggs {
				for _, src := range a.sum.Sources() {
					emit([]string{a.id, src.Name}, now.Sub(src.LastPush).Seconds())
				}
			}
		})

	// The query-cache totals are scrape-time sums over live streams'
	// QueryCache counters: monotone while streams live, shrinking only
	// when a stream is deleted (the hit ratio reads fine either way).
	sumStats := func(pick func(reads, rebuilds uint64) uint64) func() float64 {
		return func() float64 {
			var total uint64
			s.mu.RLock()
			for _, st := range s.streams {
				if qc := st.queries(); qc != nil {
					reads, rebuilds := qc.Stats()
					total += pick(reads, rebuilds)
				}
			}
			s.mu.RUnlock()
			return float64(total)
		}
	}
	reg.NewGaugeFunc("streamhull_querycache_reads_total",
		"epoch-cache revalidations across live streams",
		sumStats(func(reads, _ uint64) uint64 { return reads }))
	reg.NewGaugeFunc("streamhull_querycache_rebuilds_total",
		"epoch-cache view rebuilds across live streams (reads - rebuilds = hits)",
		sumStats(func(_, rebuilds uint64) uint64 { return rebuilds }))

}

// registerObservabilityRoutes exposes the metrics and health endpoints
// on the server's own mux (skipped with Config.DisableObservability).
func (s *Server) registerObservabilityRoutes() {
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.Handle("GET /healthz", s.health.LivenessHandler())
	s.mux.Handle("GET /readyz", s.health.ReadinessHandler())
}

// Metrics returns the server's registry, so embedding processes
// (hullserver's fan-in pusher, tests) can add their own instruments to
// the same /metrics page.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Health returns the server's health state; hullserver drops readiness
// during graceful shutdown so load balancers drain first.
func (s *Server) Health() *telemetry.Health { return &s.health }
