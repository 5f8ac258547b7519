// Package server exposes stream-hull summaries over HTTP with a small
// JSON API — the shape of deployment the paper motivates (§1): many
// sources push points, the service holds only O(r)-size summaries per
// stream, and extremal queries (diameter, width, extent, separation,
// containment, overlap) are answered from the summaries at any time.
//
// Endpoints:
//
//	PUT    /v1/streams/{id}          create — spec JSON body, or
//	       ?algo=adaptive|uniform|exact|fanin&r=32&window=<n|dur> query params
//	DELETE /v1/streams/{id}                                    drop
//	GET    /v1/streams                                         list
//	GET    /v1/streams/{id}          detail: spec, n, sample size, durability,
//	                                 fan-in sources with epochs and push lag
//	POST   /v1/streams/{id}/points   {"points": [[x,y], ...]}  ingest
//	GET    /v1/streams/{id}/hull                               hull polygon
//	GET    /v1/streams/{id}/query?type=diameter|width|extent|circle&theta=rad
//	GET    /v1/pairs/query?a=id&b=id&type=distance|separable|overlap|contains
//	GET    /v1/streams/{id}/snapshot                           sample snapshot
//	POST   /v1/streams/{id}/snapshot                           restore from snapshot
//	POST   /v1/streams/{id}/snapshot?source=<name>&epoch=<n>   fan-in push
//	DELETE /v1/streams/{id}/sources/{source}                   drop a fan-in source
//
// Streams are spec-driven: a create request may carry a streamhull.Spec
// JSON document ({"kind": "windowed", "r": 32, "window": "10000"}) as
// its body, which can describe every summary kind — adaptive (with
// height-limit/fixed-budget/bounded-work options), uniform, exact,
// partial, windowed, grid-partitioned, and sharded (round-robin
// parallel-ingest fan-out over a nested inner spec). The legacy query
// parameters compile down to a Spec; create, list, detail and snapshot
// responses all report the stream's spec, so any stream can be
// recreated elsewhere from what the API returns.
//
// Reads are epoch-cached: each stream keeps a materialized read state
// (the folded hull plus memoized diameter/width/extent/circle answers)
// behind an atomic pointer, rebuilt only when the summary's mutation
// epoch moves, so steady-state hull and query requests are lock-free
// lookups that never touch the write path. In-memory streams also
// ingest outside the stream lock — summaries serialize internally, and
// a sharded stream spreads concurrent batches across shard locks — so
// parallel POSTs to the same stream scale with its shard count.
// Durable ingest still serializes per stream to keep WAL order equal to
// apply order.
//
// Pair answers (distance, separability, overlap, containment) are
// memoized on the two streams' epoch pair, so repeat pair queries
// between mutations are map lookups. A pair query touching an empty
// stream — never written, or a window whose points just expired — is a
// deliberate 409 with the offending ids in an "empty" array, never a
// fabricated [0,0] witness.
//
// The snapshot endpoint negotiates its encoding: with Accept (on GET)
// or Content-Type (on POST) set to application/octet-stream it speaks
// the compact binary snapshot format; otherwise JSON. Either way the
// snapshot embeds the stream's spec.
//
// Fan-in (continuous multi-node aggregation): a stream created with
// {"kind":"fanin","r":32} aggregates follower servers. Followers push
// periodic snapshot deltas with POST …/snapshot?source=<name>&epoch=<n>
// (see internal/fanin and hullserver's -push-to); the aggregate keeps
// one contribution per source, replaced wholesale by each accepted push
// and re-merged on read through the MergeSnapshots machinery. Pushes
// whose epoch is older than the source's last accepted one get a 409,
// so a follower that lagged or restarted re-syncs with its next
// (higher-epoch) push and its stale contribution vanishes. Aggregates
// reject direct point ingest (409) and hold soft state: with DataDir
// set their WAL persists only the spec, and a restarted aggregator
// re-fills from the followers' next pushes.
//
// A windowed stream covers only the last count points or the last
// duration of wall time. Time-windowed streams are swept in the
// background so idle streams age out too.
//
// Streams are auto-created on first ingest with Config.DefaultSpec
// when not explicitly configured.
//
// With Config.DataDir set, every stream is durable regardless of kind:
// ingested batches are appended to a per-stream write-ahead log before
// being applied, the stream's spec is persisted in the WAL meta,
// summaries are periodically checkpointed (which compacts the log —
// see durable.go for which kinds support it), and New recovers every
// stream from disk. Point batches are atomic: the whole batch is
// validated before any point is applied, so a 400 response means the
// stream is unchanged.
//
// Multi-tenant service layer: every API route passes through the same
// middleware chain — bearer-token authentication (Config.Auth; the
// default "none" provider keeps today's open, un-namespaced behavior),
// a per-tenant token-bucket rate limit (429 + Retry-After), and a role
// check (read for queries, write for stream lifecycle and ingest, push
// for fan-in source pushes). Authenticated tenants get namespaced
// streams: tenant "acme"'s stream "clicks" is keyed "acme/clicks"
// internally (and on disk), so two tenants' same-named streams never
// collide and a caller can only ever see or touch its own namespace.
// Config.Quotas additionally caps each tenant's live stream count and
// resident ingest bytes.
//
// Observability plane (no auth required — probes and scrapers carry no
// tenant credentials):
//
//	GET /metrics   Prometheus text format: request latency histograms
//	               per endpoint, ingest points per tenant, fan-in push
//	               accept/reject counters, query/pair cache hit ratios,
//	               WAL fsync lag, resident streams per tenant, fan-in
//	               source staleness
//	GET /healthz   liveness (200 while the process serves)
//	GET /readyz    readiness (503 until recovery finished, and again
//	               after Close begins)
//
// Errors are a uniform JSON envelope ({"error": "...", "code": "..."}):
// 404 not_found, 400 bad_request, 401 unauthenticated, 403 forbidden,
// 409 conflict (stale_epoch / empty_streams for their special cases),
// 413 too_large, 429 rate_limited, 507 stream_limit or quota_streams,
// and quota_bytes when a tenant's byte quota rejects an ingest.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/telemetry"
	"github.com/streamgeom/streamhull/internal/trace"
	"github.com/streamgeom/streamhull/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// DefaultR is the sample parameter used for auto-created streams.
	// Zero selects 32.
	DefaultR int
	// DefaultSpec, when non-empty, is the spec JSON used for
	// auto-created streams instead of an adaptive summary with DefaultR.
	DefaultSpec string
	// MaxStreams bounds the number of live streams (0 = 1024).
	MaxStreams int
	// MaxBatch bounds the number of points per ingest request (0 = 65536).
	MaxBatch int
	// MaxBodyBytes bounds the size of ingest request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// SweepInterval is how often the background sweeper expires idle
	// time-windowed streams (0 = 2s). The sweeper starts lazily with the
	// first windowed stream; call Close to stop it.
	SweepInterval time.Duration

	// DataDir, when non-empty, makes lifetime streams durable: every
	// ingest is logged under this directory before it is applied, one
	// write-ahead log per stream (internal/store, docs/STORAGE.md), and
	// New recovers all streams found there.
	DataDir string
	// Store injects a pre-opened storage engine (tests and embedders);
	// it takes precedence over DataDir, and the server closes it on
	// Close.
	Store store.Store
	// MaxResident caps how many streams keep a live summary resident in
	// memory (0 = all of them). Requires durable storage: beyond the
	// cap, the least-recently-touched streams are evicted to their O(r)
	// checkpoints and rehydrated transparently on their next touch, so
	// the server's memory is O(MaxResident · r) no matter how many
	// streams exist.
	MaxResident int
	// AsyncRecovery makes New return before startup recovery finishes:
	// the server immediately answers /healthz and /readyz (the latter
	// 503 with {"status":"starting","recovered":k,"total":n} progress)
	// while streams are restored in the background, and API routes
	// answer 503 in the uniform error envelope (code "not_ready", with
	// the same progress numbers) until recovery completes. Without it
	// New blocks until every stream is recovered, failing startup on
	// any error.
	AsyncRecovery bool
	// Sync is the WAL fsync policy (zero value = wal.SyncInterval).
	Sync wal.SyncPolicy
	// FsyncInterval is the timer period for wal.SyncInterval (0 = 50ms).
	FsyncInterval time.Duration
	// CheckpointEvery is how many ingested points a durable stream
	// accumulates before its snapshot is checkpointed and the log
	// compacted (0 = 65536).
	CheckpointEvery int
	// SegmentBytes caps WAL segment size (0 = 4 MiB).
	SegmentBytes int64
	// Logger receives structured operational logs (recovery results,
	// checkpoint failures, slow traces) with tenant/stream/trace-id
	// fields attached. Nil discards them.
	Logger *slog.Logger
	// Tracer records per-request traces: one root span per API request
	// with stage-level child spans on the hot paths (auth, rate limit,
	// stream-lock wait, prefilter, insert, WAL append, fsync,
	// checkpoint, cache materialize), continuing an incoming W3C
	// traceparent so a follower push and its aggregator handling are one
	// distributed trace. Nil disables tracing at near-zero cost.
	Tracer *trace.Tracer

	// Auth authenticates bearer tokens (nil = auth.None: every caller,
	// anonymous included, is the root tenant with all roles — exactly
	// the pre-tenant behavior).
	Auth auth.Provider
	// Quotas caps per-tenant stream count, resident ingest bytes and
	// request rate (zero value = unlimited).
	Quotas auth.Quotas
	// Metrics is the registry the server instruments itself on (nil =
	// a fresh private registry). Share one registry to merge server
	// metrics with process-level instruments (the fan-in pusher's) on a
	// single /metrics page.
	Metrics *telemetry.Registry
	// DisableObservability skips registering the /metrics, /healthz and
	// /readyz routes (instrumentation still runs; the routes are just
	// not exposed on this handler).
	DisableObservability bool

	// PullAfter, when positive, enables aggregator-initiated pulls: any
	// fan-in source whose last accepted push is older than this, and
	// which advertised a pull-back address on its pushes (?addr=), has
	// its snapshot fetched by the aggregator itself and applied as a
	// wall-clock-stamped full push. See pull.go.
	PullAfter time.Duration
	// PullInterval is the pull loop's scan period (0 = PullAfter/2,
	// floored at 100ms).
	PullInterval time.Duration
	// PullToken is the bearer token pulls present to followers.
	PullToken string
	// PullClient overrides the HTTP client used for pulls (nil = a
	// 10-second-timeout default).
	PullClient *http.Client
}

// Server is an HTTP handler managing named stream summaries.
type Server struct {
	cfg         Config
	defaultSpec streamhull.Spec // auto-create spec, from DefaultSpec/DefaultR
	authp       auth.Provider
	ledger      *auth.Ledger
	reg         *telemetry.Registry
	logger      *slog.Logger
	tracer      *trace.Tracer
	met         metrics
	health      telemetry.Health
	mu          sync.RWMutex
	streams     map[string]*stream // keyed by tenant-qualified id
	mux         *http.ServeMux
	pairs       pairCache // memoized pair-query answers (see paircache.go)
	sweepOnce   sync.Once
	closeOnce   sync.Once
	sweepStop   chan struct{}
	closeErr    error
	puller      *puller // aggregator-initiated pulls; nil unless PullAfter > 0

	// store is the durable storage engine (nil = fully in-memory).
	store store.Store
	// resident tracks evictable warm streams for the cold tier's LRU
	// scan (see coldtier.go); resMu is a leaf lock, safe to take while
	// holding s.mu or any st.mu.
	resMu    sync.Mutex
	resident map[string]*stream
	// recoveryDone closes when startup recovery has finished (or was
	// never needed); Close waits on it so an async recovery and the
	// shutdown checkpoint pass never interleave.
	recoveryDone chan struct{}
}

type stream struct {
	spec   streamhull.Spec // self-description; persisted in the WAL meta
	tenant string          // owning tenant ("" = root/open namespace)

	mu        sync.Mutex         // orders WAL appends with inserts; guards sum swaps
	sum       streamhull.Summary // nil while the stream is parked cold
	app       store.Appender     // nil for in-memory streams and cold streams
	sinceCkpt int                // points since the last checkpoint
	bytes     int64              // resident ingest bytes charged to the tenant quota

	// coldN/coldSample preserve the listing counters while the stream
	// is cold, so list/detail responses never force a rehydration.
	coldN      int
	coldSample int
	// lastTouch is the cold tier's LRU clock (unix nanos of the last
	// request that touched this stream), written lock-free on reads.
	lastTouch atomic.Int64

	// cache is the stream's epoch-validated read state: hull and query
	// answers are materialized once per summary epoch and served
	// lock-free. Swapped (not mutated) whenever the live summary is
	// swapped, so it always tracks the summary reads should see.
	cache atomic.Pointer[streamhull.QueryCache]
}

// summary returns the stream's live summary; checkpoints may swap it,
// so handlers must not cache st.sum across requests.
func (st *stream) summary() streamhull.Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sum
}

// setSummary installs a (new) live summary and the read cache bound to
// it. Callers hold st.mu when the stream is already shared.
func (st *stream) setSummary(sum streamhull.Summary) {
	st.sum = sum
	st.cache.Store(streamhull.NewQueryCache(sum))
}

// queries returns the stream's epoch-cached read state.
func (st *stream) queries() *streamhull.QueryCache { return st.cache.Load() }

// errStreamLimit distinguishes capacity exhaustion from unknown-stream
// lookups so handlers can return 507 instead of 404.
var errStreamLimit = errors.New("stream limit reached")

// errStorage marks server-side durability failures (500, not 400).
var errStorage = errors.New("stream storage")

// New returns a ready-to-serve Server. With Config.DataDir set it
// first recovers every durable stream found on disk; a stream whose
// state cannot be restored fails startup rather than silently serving
// partial data.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultR == 0 {
		cfg.DefaultR = 32
	}
	if cfg.MaxStreams == 0 {
		cfg.MaxStreams = 1024
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 65536
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 2 * time.Second
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 65536
	}
	if cfg.Auth == nil {
		cfg.Auth = auth.None{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg: cfg, streams: make(map[string]*stream), mux: http.NewServeMux(),
		sweepStop:    make(chan struct{}),
		authp:        cfg.Auth,
		ledger:       auth.NewLedger(cfg.Quotas, nil),
		reg:          cfg.Metrics,
		logger:       cfg.Logger,
		tracer:       cfg.Tracer,
		resident:     make(map[string]*stream),
		recoveryDone: make(chan struct{}),
	}
	s.initMetrics(s.reg)
	if cfg.DefaultSpec != "" {
		spec, err := streamhull.ParseSpec(cfg.DefaultSpec)
		if err != nil {
			return nil, fmt.Errorf("default spec: %w", err)
		}
		s.defaultSpec = spec
	} else {
		spec, err := streamhull.SpecFor("adaptive", cfg.DefaultR, "")
		if err != nil {
			return nil, fmt.Errorf("default r: %w", err)
		}
		s.defaultSpec = spec
	}
	switch {
	case cfg.Store != nil:
		s.store = cfg.Store
	case cfg.DataDir != "":
		stor, err := store.Open("", cfg.DataDir, store.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         cfg.Sync,
			Interval:     cfg.FsyncInterval,
			Logger:       cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		s.store = stor
	}
	if cfg.MaxResident > 0 && s.store == nil {
		return nil, errors.New("MaxResident requires durable storage (DataDir or Store)")
	}
	// Role requirements per route: reads need read, lifecycle and
	// ingest need write, fan-in pushes need push. Create is special-
	// cased in its handler (a push-only follower token may create the
	// fan-in aggregate it pushes into, nothing else).
	s.route("PUT /v1/streams/{id}", "create", nil, s.handleCreate)
	s.route("DELETE /v1/streams/{id}", "delete", needWrite, s.handleDelete)
	s.route("GET /v1/streams", "list", needRead, s.handleList)
	s.route("GET /v1/streams/{id}", "detail", needRead, s.handleDetail)
	s.route("POST /v1/streams/{id}/points", "points", needWrite, s.handlePoints)
	s.route("GET /v1/streams/{id}/hull", "hull", needRead, s.handleHull)
	s.route("GET /v1/streams/{id}/query", "query", needRead, s.handleQuery)
	s.route("GET /v1/streams/{id}/snapshot", "snapshot_get", needRead, s.handleSnapshot)
	s.route("POST /v1/streams/{id}/snapshot", "snapshot_post", needRestoreRole, s.handleRestore)
	s.route("DELETE /v1/streams/{id}/sources/{source}", "drop_source", needWrite, s.handleDropSource)
	s.route("GET /v1/pairs/query", "pair_query", needRead, s.handlePairQuery)
	// The debug plane (trace ring, pprof) exposes request internals and
	// profiling data, so it is gated like the write routes — admin
	// tokens only under an authenticating provider. DebugHandler serves
	// the same routes ungated for a localhost-only listener.
	s.registerDebugRoutes()
	if !cfg.DisableObservability {
		s.registerObservabilityRoutes()
	}
	if s.store == nil {
		close(s.recoveryDone)
		s.health.SetReady(true)
		s.startPuller()
		return s, nil
	}
	if cfg.AsyncRecovery {
		// Serve immediately: /readyz reports recovery progress, API
		// routes answer 503 "starting" until the background pass ends.
		// On a recovery failure the server stays unready forever (and
		// logs why) rather than serving partial data.
		go func() {
			defer close(s.recoveryDone)
			if err := s.recoverStreams(); err != nil {
				s.logger.Error("recovery failed; server stays unready", "err", err)
				return
			}
			s.health.SetReady(true)
		}()
		s.startPuller()
		return s, nil
	}
	err := s.recoverStreams()
	close(s.recoveryDone)
	if err != nil {
		_ = s.store.Close()
		return nil, err
	}
	s.health.SetReady(true)
	s.startPuller()
	return s, nil
}

// startPuller launches the aggregator-initiated pull loop when
// configured; it stops with the sweeper on Close.
func (s *Server) startPuller() {
	if s.cfg.PullAfter <= 0 {
		return
	}
	s.puller = newPuller(s)
	go s.puller.run()
}

// qualifyID maps a tenant-local stream id to its internal map (and
// on-disk) key. The root tenant "" keeps the bare id, so open-provider
// deployments see the historical id space unchanged; other tenants get
// a "tenant/" prefix ('/' cannot appear in a tenant name, so the split
// is unambiguous, and the WAL's directory encoding escapes it).
func qualifyID(tenant, id string) string {
	if tenant == "" {
		return id
	}
	return tenant + "/" + id
}

// splitTenant inverts qualifyID.
func splitTenant(key string) (tenant, id string) {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return "", key
}

// bytesPerPoint is the quota charge per ingested point (two float64
// coordinates) — the resident-bytes accounting unit for
// Quotas.MaxBytes.
const bytesPerPoint = 16

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background expiry sweeper, seals a final checkpoint
// for every checkpointable stream with un-checkpointed ingest (so a
// routine restart recovers instantly from O(r) state — and a
// time-windowed stream's bucket timestamps survive instead of the log
// tail being re-stamped at recovery), then flushes and closes every
// durable stream's log; after it returns, all acknowledged ingests are
// on disk. The handler itself remains usable for reads.
func (s *Server) Close() error {
	s.sweepOnce.Do(func() {}) // ensure a later windowed create cannot start it
	s.closeOnce.Do(func() {
		s.health.SetReady(false)
		close(s.sweepStop)
		// An async recovery still in flight owns stream state; let it
		// finish (or fail) before the shutdown checkpoint pass.
		<-s.recoveryDone
		s.mu.RLock()
		for id, st := range s.streams {
			st.mu.Lock()
			if st.app != nil {
				if st.sinceCkpt > 0 {
					s.checkpointLocked(id, st)
				}
				if err := st.app.Close(); err != nil && s.closeErr == nil {
					s.closeErr = fmt.Errorf("stream %q: %w", id, err)
				}
			}
			st.mu.Unlock()
		}
		s.mu.RUnlock()
		if s.store != nil {
			if err := s.store.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// startSweeper launches the background expiry loop (once, lazily, when
// the first windowed stream appears).
func (s *Server) startSweeper() {
	s.sweepOnce.Do(func() {
		go func() {
			t := time.NewTicker(s.cfg.SweepInterval)
			defer t.Stop()
			for {
				select {
				case <-s.sweepStop:
					return
				case <-t.C:
					s.sweep()
				}
			}
		}()
	})
}

// sweep expires every time-windowed stream once (count windows expire
// on insert and need no sweeping).
func (s *Server) sweep() {
	s.mu.RLock()
	whs := make([]*streamhull.WindowedHull, 0, len(s.streams))
	for _, st := range s.streams {
		if wh, ok := st.summary().(*streamhull.WindowedHull); ok && wh.ByTime() {
			whs = append(whs, wh)
		}
	}
	s.mu.RUnlock()
	for _, wh := range whs {
		wh.Expire()
	}
}

// errorBody is the uniform error envelope every handler emits: a
// human-readable message plus a stable machine-readable code, so
// clients branch on code and log error without parsing either.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// Empty lists the offending stream ids for code "empty_streams"
	// (pair queries touching point-less streams).
	Empty []string `json:"empty,omitempty"`
	// AckedEpoch carries, for code "resync_required", the epoch the
	// aggregate actually holds for the rejected source — the base a
	// follower would have to build on (in practice it just re-sends a
	// full snapshot).
	AckedEpoch uint64 `json:"acked_epoch,omitempty"`
	// Recovery reports, for code "not_ready", startup recovery
	// progress: streams replayed so far out of the total discovered —
	// the same numbers /readyz serves.
	Recovery *recoveryProgress `json:"recovery,omitempty"`
}

// recoveryProgress is errorBody.Recovery's payload.
type recoveryProgress struct {
	Recovered int `json:"recovered"`
	Total     int `json:"total"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// codeForStatus is the default machine-readable code per status; paths
// with a more specific cause use writeErrCode instead.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthenticated"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusNotAcceptable:
		return "not_acceptable"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusInsufficientStorage:
		return "stream_limit"
	default:
		return "internal"
	}
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrCode(w, status, codeForStatus(status), format, args...)
}

func writeErrCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeStreamErr maps a stream-creation or quota error to its status
// and code: capacity → 507 (server-wide stream_limit or per-tenant
// quota_streams), byte quota → 413 quota_bytes, rate → 429, storage
// trouble → 500, anything else (duplicate id on create/restore, bad
// config on ingest) → fallback.
func writeStreamErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, errStreamLimit):
		writeErr(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, auth.ErrStreamQuota):
		writeErrCode(w, http.StatusInsufficientStorage, "quota_streams", "%v", err)
	case errors.Is(err, auth.ErrByteQuota):
		writeErrCode(w, http.StatusRequestEntityTooLarge, "quota_bytes", "%v", err)
	case errors.Is(err, errStorage):
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeErr(w, fallback, "%v", err)
	}
}

// specFromRequest compiles a create request down to a Spec: a non-empty
// body must be a spec JSON document (the v2 way, able to describe every
// summary kind); otherwise the legacy algo/r/window query parameters
// are compiled through streamhull.SpecFor. An oversized body surfaces
// as *http.MaxBytesError for the caller's 413 mapping.
func (s *Server) specFromRequest(w http.ResponseWriter, req *http.Request) (streamhull.Spec, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return streamhull.Spec{}, fmt.Errorf("reading body: %w", err)
	}
	if len(bytes.TrimSpace(body)) > 0 {
		return streamhull.ParseSpec(string(body))
	}
	algo := req.URL.Query().Get("algo")
	window := req.URL.Query().Get("window")
	r := s.cfg.DefaultR
	if rs := req.URL.Query().Get("r"); rs != "" {
		v, err := strconv.Atoi(rs)
		if err != nil {
			return streamhull.Spec{}, fmt.Errorf("invalid r: %v", err)
		}
		r = v
	}
	return streamhull.SpecFor(algo, r, window)
}

// addStream creates a stream under the server lock, opening its durable
// storage when configured. Callers pass the already-built summary; the
// stream's stored spec is the summary's own self-description.
//
// checkpoint, when non-nil, is an initial checkpoint payload sealed into
// the fresh log BEFORE the stream becomes visible (snapshot restores use
// it so the restored state survives a crash that precedes the first
// regular checkpoint). Sealing it here, not after publication, matters:
// wal.Checkpoint compacts the log, so a checkpoint written after a
// concurrent ingest had already appended to the log would silently drop
// that batch from recovery.
func (s *Server) addStream(tenant, id string, sum streamhull.Summary, checkpoint []byte) (*stream, error) {
	st, err := s.addStreamLocked(tenant, id, sum, checkpoint)
	if err != nil {
		return nil, err
	}
	// The new stream joined the warm set; evict past the cap outside
	// the server lock.
	s.enforceCap(nil)
	return st, nil
}

func (s *Server) addStreamLocked(tenant, id string, sum streamhull.Summary, checkpoint []byte) (*stream, error) {
	spec := sum.Spec()
	key := qualifyID(tenant, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.streams[key]; exists {
		return nil, fmt.Errorf("stream %q already exists", id)
	}
	if len(s.streams) >= s.cfg.MaxStreams {
		return nil, fmt.Errorf("%w (%d)", errStreamLimit, s.cfg.MaxStreams)
	}
	if err := s.ledger.ReserveStream(tenant); err != nil {
		return nil, err
	}
	st := &stream{spec: spec, tenant: tenant}
	st.setSummary(sum)
	if s.store != nil {
		app, err := s.store.Create(key, spec)
		if err != nil {
			s.ledger.ReleaseStream(tenant, 0)
			return nil, fmt.Errorf("%w: %v", errStorage, err)
		}
		if checkpoint != nil {
			if err := app.Checkpoint(checkpoint); err != nil {
				s.logger.Error("wal: persisting restored snapshot failed",
					"stream", key, "tenant", tenant, "err", err)
			}
		}
		st.app = app
	}
	s.streams[key] = st
	s.admit(key, st)
	s.touch(st)
	return st, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	ident := identityFrom(req)
	spec, err := s.specFromRequest(w, req)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Creating a stream is a write — except that a push-only follower
	// token may create the fan-in aggregate its pushes land in (the
	// Pusher's first-contact EnsureAggregate), and nothing else.
	allowed := ident.Roles.Has(auth.RoleWrite) ||
		(spec.Kind == streamhull.KindFanIn && ident.Roles.Has(auth.RolePush))
	if !s.requireRole(w, ident, auth.RoleWrite, allowed) {
		return
	}
	sum, err := streamhull.New(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := s.addStream(ident.Tenant, id, sum, nil); err != nil {
		writeStreamErr(w, err, http.StatusConflict)
		return
	}
	// Only time windows age out between inserts and need the background
	// sweeper; count windows expire on insert.
	if wh, ok := sum.(*streamhull.WindowedHull); ok && wh.ByTime() {
		s.startSweeper()
	}
	writeJSON(w, http.StatusCreated, createResponse(id, sum.Spec()))
}

// createResponse reports a created stream: the spec plus the legacy
// algo/r/window head fields.
func createResponse(id string, spec streamhull.Spec) map[string]any {
	resp := map[string]any{"id": id, "spec": spec, "algo": string(spec.Kind), "r": spec.R}
	if spec.Window != "" {
		resp["window"] = spec.Window
	}
	return resp
}

func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	ident := identityFrom(req)
	key := qualifyID(ident.Tenant, id)
	s.mu.Lock()
	st, ok := s.streams[key]
	if ok {
		delete(s.streams, key)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %q", id)
		return
	}
	s.dropResident(key)
	st.mu.Lock()
	s.dropStorage(key, st)
	bytes := st.bytes
	st.mu.Unlock()
	// Return the stream slot and its resident bytes to the tenant quota.
	s.ledger.ReleaseStream(st.tenant, bytes)
	// The dead stream's read cache may still key memoized pair answers;
	// purge them so it (and its summary) can be collected.
	s.pairs.purge(st.cache.Load())
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

type streamInfo struct {
	ID          string           `json:"id"`
	Spec        *streamhull.Spec `json:"spec,omitempty"`
	Algo        string           `json:"algo"`
	R           int              `json:"r"`
	N           int              `json:"n"`
	SampleSize  int              `json:"sample_size"`
	Window      string           `json:"window,omitempty"`
	WindowCount int              `json:"window_count,omitempty"`
	Durable     bool             `json:"durable,omitempty"`
	// Cold marks a stream currently parked in the cold tier (its
	// summary evicted to its checkpoint; any touch rehydrates it).
	Cold bool `json:"cold,omitempty"`
	// Sources lists a fan-in aggregate's contributors (detail responses
	// only; the list endpoint stays compact).
	Sources []sourceInfo `json:"sources,omitempty"`
}

// sourceInfo is one fan-in contributor in a detail response.
type sourceInfo struct {
	Source       string `json:"source"`
	Epoch        uint64 `json:"epoch"`
	N            int    `json:"n"`
	SamplePoints int    `json:"sample_points"`
	// LagMillis is how long ago the source's last accepted push landed —
	// the staleness an operator watches to decide a source needs a drop
	// or a re-sync.
	LagMillis int64 `json:"lag_ms"`
	// Addr is the source's advertised pull-back URL (empty when the
	// source never advertised one, and then the aggregator cannot pull).
	Addr string `json:"addr,omitempty"`
	// Pulls counts aggregator-initiated pulls applied for this source;
	// LastPullMillis is how long ago the last one landed. Both are
	// omitted until the first pull.
	Pulls          uint64 `json:"pulls,omitempty"`
	LastPullMillis int64  `json:"last_pull_ms,omitempty"`
}

// infoFor captures one stream's listing entry. Cold streams report the
// counters preserved at eviction time — listing never rehydrates.
func infoFor(id string, st *stream) streamInfo {
	st.mu.Lock()
	sum := st.sum
	durable := st.app != nil || sum == nil
	n, sampleSize := st.coldN, st.coldSample
	st.mu.Unlock()
	if sum != nil {
		n, sampleSize = sum.N(), sum.SampleSize()
	}
	spec := st.spec
	info := streamInfo{
		ID: id, Spec: &spec, Algo: string(spec.Kind), R: spec.R,
		N: n, SampleSize: sampleSize,
		Window: spec.Window, Durable: durable, Cold: sum == nil,
	}
	if wh, ok := sum.(*streamhull.WindowedHull); ok {
		info.WindowCount = wh.WindowCount()
	}
	return info
}

// handleList reports the caller's streams — a tenant sees only its own
// namespace, with the internal tenant prefix stripped, so ids round-trip
// through every other endpoint unchanged.
//
// With ?limit=N the listing is paginated: streams come in stable id
// order, at most N per page, and a "next_cursor" field carries the last
// id of the page when more remain — pass it back as ?cursor= to resume
// after it. Ids are strictly greater than the cursor, so a stream
// created or deleted between pages can never repeat or shift an entry
// the caller already saw. Without parameters the response is the full
// unpaginated listing, exactly as before.
func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	ident := identityFrom(req)
	q := req.URL.Query()
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a positive integer, got %q", ls)
			return
		}
		limit = v
	}
	cursor := q.Get("cursor")
	type entry struct {
		id string
		st *stream
	}
	s.mu.RLock()
	entries := make([]entry, 0, len(s.streams))
	for key, st := range s.streams {
		tenant, id := splitTenant(key)
		if tenant != ident.Tenant || (cursor != "" && id <= cursor) {
			continue
		}
		entries = append(entries, entry{id: id, st: st})
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	next := ""
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
		next = entries[limit-1].id
	}
	infos := make([]streamInfo, len(entries))
	for i, e := range entries {
		infos[i] = infoFor(e.id, e.st)
	}
	resp := map[string]any{"streams": infos}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDetail reports one stream: its spec (enough to recreate it
// anywhere), counters and durability status. Fan-in aggregates
// additionally list their sources with per-source epochs and push lag.
func (s *Server) handleDetail(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	ident := identityFrom(req)
	s.mu.RLock()
	st, ok := s.streams[qualifyID(ident.Tenant, id)]
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %q", id)
		return
	}
	info := infoFor(id, st)
	if agg, ok := st.summary().(*streamhull.FanInHull); ok {
		now := time.Now()
		srcs := agg.Sources()
		info.Sources = make([]sourceInfo, len(srcs))
		key := qualifyID(ident.Tenant, id)
		for i, src := range srcs {
			si := sourceInfo{
				Source: src.Name, Epoch: src.Epoch, N: src.N,
				SamplePoints: src.SamplePoints,
				LagMillis:    now.Sub(src.LastPush).Milliseconds(),
				Addr:         src.Addr,
			}
			if s.puller != nil {
				if pulls, last := s.puller.sourcePulls(key, src.Name); pulls > 0 {
					si.Pulls = pulls
					si.LastPullMillis = now.Sub(last).Milliseconds()
				}
			}
			info.Sources[i] = si
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// get returns the tenant's stream, auto-creating it for ingest when
// allowed (the auto-created stream lands in — and counts against — the
// caller's namespace and quota).
func (s *Server) get(tenant, id string, autocreate bool) (*stream, error) {
	key := qualifyID(tenant, id)
	s.mu.RLock()
	st, ok := s.streams[key]
	s.mu.RUnlock()
	if ok {
		return st, nil
	}
	if !autocreate {
		return nil, fmt.Errorf("no stream %q", id)
	}
	sum, err := streamhull.New(s.defaultSpec)
	if err != nil {
		return nil, err
	}
	st, err = s.addStream(tenant, id, sum, nil)
	if err == nil {
		if wh, ok := sum.(*streamhull.WindowedHull); ok && wh.ByTime() {
			s.startSweeper()
		}
		return st, nil
	}
	// Lost a create race: the stream exists now.
	s.mu.RLock()
	st, ok = s.streams[key]
	s.mu.RUnlock()
	if ok {
		return st, nil
	}
	return nil, err
}

type pointsBody struct {
	Points [][2]float64 `json:"points"`
}

func (s *Server) handlePoints(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var body pointsBody
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(body.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	if len(body.Points) > s.cfg.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d",
			len(body.Points), s.cfg.MaxBatch)
		return
	}
	// Validate the whole batch before touching the stream, so a 400
	// response implies nothing was applied.
	pts := make([]geom.Point, len(body.Points))
	for i, xy := range body.Points {
		p := geom.Pt(xy[0], xy[1])
		if !p.IsFinite() {
			writeErr(w, http.StatusBadRequest, "point %d: non-finite coordinates %v", i, xy)
			return
		}
		pts[i] = p
	}
	// With a fan-in default spec, a point POST to a missing stream would
	// auto-create an aggregate only to reject the batch below — don't
	// leave that orphan (or its durable directory) behind.
	ident := identityFrom(req)
	autocreate := s.defaultSpec.Kind != streamhull.KindFanIn
	st, err := s.get(ident.Tenant, id, autocreate)
	if err != nil {
		if !autocreate {
			writeErr(w, http.StatusConflict,
				"default stream kind is a fan-in aggregate; push snapshots to /v1/streams/%s/snapshot?source=<name>&epoch=<n> instead", id)
			return
		}
		writeStreamErr(w, err, http.StatusBadRequest)
		return
	}
	// Fan-in aggregates are fed by snapshot pushes, not point ingest;
	// reject before the stream lock (and, for durable streams, before a
	// batch that can never apply reaches the WAL).
	if st.spec.Kind == streamhull.KindFanIn {
		writeErr(w, http.StatusConflict,
			"stream %q is a fan-in aggregate; push snapshots to /v1/streams/%s/snapshot?source=<name>&epoch=<n> instead",
			id, id)
		return
	}
	// Charge the batch against the tenant's byte quota before any state
	// is touched; failed ingests below refund it.
	charge := int64(len(pts)) * bytesPerPoint
	if err := s.ledger.ReserveBytes(ident.Tenant, charge); err != nil {
		writeStreamErr(w, err, http.StatusRequestEntityTooLarge)
		return
	}
	// Stage spans for the ingest hot path. A nil span (tracing off or
	// unsampled) skips every clock read.
	sp := trace.FromContext(req.Context())
	sp.SetAttr("stream", id)
	n, sampleSize, err := s.ingest(qualifyID(ident.Tenant, id), st, pts, charge, sp)
	if err != nil {
		s.ledger.ReleaseBytes(ident.Tenant, charge)
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	s.enforceCap(sp)
	s.met.ingestPoints.With(ident.Tenant).Add(float64(len(pts)))
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested": len(pts), "n": n, "sample_size": sampleSize,
	})
}

// ingest runs one validated batch through its stream — lock, rehydrate
// if cold, append if durable, apply, account, checkpoint if durable —
// and returns the stream's new point count and sample size. st.mu is
// released on return; on error nothing was applied or accounted, and
// the caller refunds the quota charge.
//
// Durable streams log first: a batch is acknowledged only after the WAL
// accepted it, so the durable log is always a superset of served state.
// Recovery replays the log with the same per-record InsertBatch the
// live path uses, so the rebuilt state matches bit-for-bit; st.mu is
// held across append, apply and checkpoint to keep WAL order equal to
// apply order. In-memory streams need no WAL ordering, so the batch
// applies outside the stream lock: summaries serialize internally, and
// a sharded summary deals concurrent batches across shard locks —
// parallel POSTs to one stream scale with its fan-out instead of
// queueing on st.mu.
func (s *Server) ingest(key string, st *stream, pts []geom.Point, charge int64, sp *trace.Span) (n, sampleSize int, err error) {
	durable := s.store != nil
	t0 := sp.Start()
	s.touch(st)
	st.mu.Lock()
	sp.ObserveSince("lock_wait", t0)
	if st.sum == nil {
		// A cold stream's first touch rehydrates it before anything is
		// logged; st.mu is held, so the load is singleflight.
		err = s.rehydrateLocked(key, st, sp)
	}
	if err == nil && durable {
		if err = appendTraced(st.app, pts, sp); err != nil {
			err = fmt.Errorf("logging batch: %w", err)
		}
	}
	if err != nil {
		st.mu.Unlock()
		return 0, 0, err
	}
	// Charged while st.mu is held in both modes; a failed apply refunds.
	st.bytes += charge
	sum := st.sum
	if !durable {
		st.mu.Unlock()
	}
	if err := insertBatchTraced(sum, pts, sp); err != nil {
		// Unreachable after validation; fail loudly if a summary grows
		// new failure modes.
		if !durable {
			st.mu.Lock()
		}
		st.bytes -= charge
		st.mu.Unlock()
		return 0, 0, fmt.Errorf("applying batch: %w", err)
	}
	if !durable {
		return sum.N(), sum.SampleSize(), nil
	}
	st.sinceCkpt += len(pts)
	t0 = sp.Start()
	s.maybeCheckpointLocked(key, st)
	sp.ObserveSince("checkpoint", t0)
	// A checkpoint may have re-based st.sum; read the live summary.
	n, sampleSize = st.sum.N(), st.sum.SampleSize()
	st.mu.Unlock()
	return n, sampleSize, nil
}

// insertBatchTraced applies a batch, with prefilter/insert stage spans
// when the summary can report them (streamhull.StagedBatchInserter,
// whose nil observer reads no clock) and a single insert stage
// otherwise.
func insertBatchTraced(sum streamhull.Summary, pts []geom.Point, sp *trace.Span) error {
	if staged, ok := sum.(streamhull.StagedBatchInserter); ok {
		_, err := staged.InsertBatchObserved(pts, sp.StageObserver())
		return err
	}
	t0 := sp.Start()
	_, err := sum.InsertBatch(pts)
	sp.ObserveSince("insert", t0)
	return err
}

// appendTraced logs a batch with wal_append/wal_fsync stage spans when
// a span is live (AppendTimed splits the write from the group-commit
// fsync wait; the fsync stage is ~0 under non-always sync policies,
// where Append does not wait for durability).
func appendTraced(app store.Appender, pts []geom.Point, sp *trace.Span) error {
	if sp == nil {
		return app.Append(pts)
	}
	write, syncWait, err := app.AppendTimed(pts)
	sp.ObserveStage("wal_append", write)
	sp.ObserveStage("wal_fsync", syncWait)
	return err
}

// handleHull and handleQuery serve from the stream's epoch-cached read
// state: the hull fold and the rotating-calipers answers run once per
// summary epoch, and repeat queries between mutations are lock-free
// lookups that never contend with ingest.
func (s *Server) handleHull(w http.ResponseWriter, req *http.Request) {
	tenant := identityFrom(req).Tenant
	st, err := s.get(tenant, req.PathValue("id"), false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	sp := trace.FromContext(req.Context())
	sp.SetAttr("stream", req.PathValue("id"))
	t0 := sp.Start()
	qc, err := s.residentQueries(qualifyID(tenant, req.PathValue("id")), st, sp)
	if err != nil {
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	vs := qc.Hull().Vertices()
	out := make([][2]float64, len(vs))
	for i, v := range vs {
		out[i] = [2]float64{v.X, v.Y}
	}
	resp := map[string]any{
		"vertices": out, "area": qc.Area(), "perimeter": qc.Perimeter(), "n": qc.N(),
	}
	// Epoch-cache revalidation plus (on a miss) the hull fold — the
	// read path's only real work.
	sp.ObserveSince("cache_materialize", t0)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	tenant := identityFrom(req).Tenant
	st, err := s.get(tenant, req.PathValue("id"), false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	sp := trace.FromContext(req.Context())
	sp.SetAttr("stream", req.PathValue("id"))
	t0 := sp.Start()
	qc, err := s.residentQueries(qualifyID(tenant, req.PathValue("id")), st, sp)
	if err != nil {
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	var resp map[string]any
	switch qt := req.URL.Query().Get("type"); qt {
	case "diameter":
		d, pair := qc.Diameter()
		resp = map[string]any{
			"diameter": d,
			"pair":     [][2]float64{{pair[0].X, pair[0].Y}, {pair[1].X, pair[1].Y}},
		}
	case "width":
		wv, ang := qc.Width()
		resp = map[string]any{"width": wv, "angle": ang}
	case "extent":
		theta, err := strconv.ParseFloat(req.URL.Query().Get("theta"), 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid theta: %v", err)
			return
		}
		resp = map[string]any{"theta": theta, "extent": qc.Extent(theta)}
	case "circle":
		c, rad := qc.EnclosingCircle()
		resp = map[string]any{"center": [2]float64{c.X, c.Y}, "radius": rad}
	default:
		writeErr(w, http.StatusBadRequest, "unknown query type %q", qt)
		return
	}
	sp.ObserveSince("cache_materialize", t0)
	writeJSON(w, http.StatusOK, resp)
}

// wantsBinary reports whether the client asked for the compact binary
// snapshot encoding.
func wantsBinary(header string) bool {
	return strings.Contains(header, "application/octet-stream")
}

func (s *Server) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	tenant := identityFrom(req).Tenant
	st, err := s.get(tenant, req.PathValue("id"), false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	sum, err := s.residentSummary(qualifyID(tenant, req.PathValue("id")), st, trace.FromContext(req.Context()))
	if err != nil {
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	sn, ok := sum.(streamhull.Snapshotter)
	if !ok {
		writeErr(w, http.StatusBadRequest, "stream kind %q does not support snapshots", st.spec.Kind)
		return
	}
	snap := sn.Snapshot()
	if wantsBinary(req.Header.Get("Accept")) {
		data, err := snap.MarshalBinary()
		if err != nil {
			writeErr(w, http.StatusNotAcceptable, "no binary encoding: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// readBody reads a request body bounded by MaxBodyBytes. On failure it
// writes the error response itself (413 for an oversized body, 400
// otherwise) and reports false.
func (s *Server) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return data, true
}

// readSnapshotBody decodes a snapshot request body with the endpoint's
// content negotiation: binary with Content-Type application/octet-stream,
// JSON otherwise. On failure it writes the error response itself (see
// readBody; 400 for an undecodable snapshot) and reports false.
func (s *Server) readSnapshotBody(w http.ResponseWriter, req *http.Request) (streamhull.Snapshot, bool) {
	data, ok := s.readBody(w, req)
	if !ok {
		return streamhull.Snapshot{}, false
	}
	var snap streamhull.Snapshot
	var err error
	if wantsBinary(req.Header.Get("Content-Type")) {
		err = snap.UnmarshalBinary(data)
	} else {
		snap, err = streamhull.DecodeSnapshot(data)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decoding snapshot: %v", err)
		return streamhull.Snapshot{}, false
	}
	return snap, true
}

// handleRestore is the snapshot endpoint's write half, serving two
// flavors distinguished by the source query parameter. Without it, the
// body restores a whole stream from a previously captured snapshot (JSON
// or, with Content-Type: application/octet-stream, the binary encoding).
// With ?source=<name>&epoch=<n> it is a fan-in push: the body becomes
// that source's contribution to an existing fan-in aggregate stream.
func (s *Server) handleRestore(w http.ResponseWriter, req *http.Request) {
	if source := req.URL.Query().Get("source"); source != "" {
		s.handleSourcePush(w, req, source)
		return
	}
	ident := identityFrom(req)
	id := req.PathValue("id")
	snap, ok := s.readSnapshotBody(w, req)
	if !ok {
		return
	}
	sum, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A restore adopts the snapshot's full point count into the tenant's
	// byte budget, same accounting as live ingest.
	charge := int64(sum.N()) * bytesPerPoint
	if err := s.ledger.ReserveBytes(ident.Tenant, charge); err != nil {
		writeStreamErr(w, err, http.StatusRequestEntityTooLarge)
		return
	}
	// Durable restores persist a checkpoint immediately, so the stream
	// survives a crash that happens before its first regular checkpoint.
	// The payload must match what recovery expects for the kind:
	// windowed streams checkpoint their bucket state, the rest the
	// snapshot binary. It is sealed inside addStream, before the stream
	// becomes visible — a checkpoint written after publication could
	// race a concurrent ingest and compact its log record away.
	var checkpoint []byte
	if s.store != nil {
		var cerr error
		if wh, ok := sum.(*streamhull.WindowedHull); ok {
			checkpoint, cerr = wh.MarshalState()
		} else {
			checkpoint, cerr = snap.MarshalBinary()
		}
		if cerr != nil {
			s.logger.Error("wal: encoding restored snapshot failed",
				"stream", id, "tenant", ident.Tenant, "err", cerr)
			checkpoint = nil
		}
	}
	st, err := s.addStream(ident.Tenant, id, sum, checkpoint)
	if err != nil {
		s.ledger.ReleaseBytes(ident.Tenant, charge)
		writeStreamErr(w, err, http.StatusConflict)
		return
	}
	st.mu.Lock()
	st.bytes += charge
	n := st.sum.N()
	st.mu.Unlock()
	resp := createResponse(id, sum.Spec())
	resp["n"] = n
	writeJSON(w, http.StatusCreated, resp)
}

// handleSourcePush applies one source-tagged push to a fan-in aggregate
// stream. Two wire modes share the endpoint, split by Content-Type:
//
//   - A full snapshot (JSON or binary): the follower's latest sample
//     replaces that source's previous contribution wholesale, keyed by
//     the ?epoch= parameter. Pushes with an epoch older than the
//     source's last accepted one are rejected with 409 stale_epoch —
//     they are from a lagging or superseded sender — so a follower that
//     crashed mid-push re-syncs by pushing again with a higher epoch,
//     and the aggregate converges as if the stale push never happened.
//   - A delta frame (Content-Type application/x-streamhull-delta): only
//     the sample slots changed since the push this aggregate last ACKED
//     (the frame's base epoch), CRC-checked end to end. A frame that
//     cannot be anchored — first contact, an epoch gap, a base mismatch
//     — is a 409 with code "resync_required" carrying the epoch we
//     actually hold, and the follower answers with a full snapshot.
//
// Either way a 200 carries "acked_epoch": the epoch now stored for the
// source, which is the base the follower's next delta must build on.
// The optional ?addr= parameter advertises the follower's own base URL
// for aggregator-initiated pulls (see pull.go).
func (s *Server) handleSourcePush(w http.ResponseWriter, req *http.Request, source string) {
	id := req.PathValue("id")
	st, err := s.get(identityFrom(req).Tenant, id, false)
	if err != nil {
		s.met.pushRejected.Inc()
		writeErr(w, http.StatusNotFound, "%v (create the aggregate first: PUT with spec {\"kind\":\"fanin\"})", err)
		return
	}
	agg, ok := st.summary().(*streamhull.FanInHull)
	if !ok {
		s.met.pushRejected.Inc()
		writeErr(w, http.StatusConflict, "stream %q is %s, not a fan-in aggregate", id, st.spec.Kind)
		return
	}
	if strings.Contains(req.Header.Get("Content-Type"), fanin.DeltaContentType) {
		s.handleDeltaPush(w, req, agg, id, source)
		return
	}
	epochStr := req.URL.Query().Get("epoch")
	epoch, err := strconv.ParseUint(epochStr, 10, 64)
	if err != nil {
		s.met.pushRejected.Inc()
		writeErr(w, http.StatusBadRequest, "source push requires a numeric epoch, got %q", epochStr)
		return
	}
	snap, ok := s.readSnapshotBody(w, req)
	if !ok {
		s.met.pushRejected.Inc()
		return
	}
	if err := agg.Push(source, epoch, snap); err != nil {
		s.met.pushRejected.Inc()
		if errors.Is(err, streamhull.ErrStaleEpoch) {
			writeErrCode(w, http.StatusConflict, "stale_epoch", "%v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.acceptPush(w, req, agg, id, source, epoch, snap.N)
}

// handleDeltaPush is the delta half of handleSourcePush: decode the
// frame, anchor it on the source's stored contribution, and report the
// epoch this aggregate now holds — or demand a resync when the frame
// cannot be anchored.
func (s *Server) handleDeltaPush(w http.ResponseWriter, req *http.Request, agg *streamhull.FanInHull, id, source string) {
	data, ok := s.readBody(w, req)
	if !ok {
		s.met.pushRejected.Inc()
		return
	}
	d, err := fanin.DecodeDelta(data)
	if err != nil {
		s.met.pushRejected.Inc()
		writeErr(w, http.StatusBadRequest, "decoding delta: %v", err)
		return
	}
	if err := agg.PushDelta(source, d); err != nil {
		s.met.pushRejected.Inc()
		switch {
		case errors.Is(err, streamhull.ErrStaleEpoch):
			writeErrCode(w, http.StatusConflict, "stale_epoch", "%v", err)
		case errors.Is(err, streamhull.ErrResyncNeeded):
			s.met.pushResyncs.Inc()
			acked, _ := agg.SourceEpoch(source)
			writeJSON(w, http.StatusConflict, errorBody{
				Error: err.Error(), Code: "resync_required", AckedEpoch: acked,
			})
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.met.pushDeltas.Inc()
	s.acceptPush(w, req, agg, id, source, d.Epoch, d.N)
}

// acceptPush is the success tail shared by full and delta pushes: it
// records the advertised pull-back address, counts the push, and
// answers with the epoch the aggregate now holds for the source.
func (s *Server) acceptPush(w http.ResponseWriter, req *http.Request, agg *streamhull.FanInHull, id, source string, epoch uint64, sourceN int) {
	s.advertiseSource(agg, req, source)
	s.met.pushAccepted.Inc()
	acked, _ := agg.SourceEpoch(source)
	writeJSON(w, http.StatusOK, map[string]any{
		"stream": id, "source": source, "epoch": epoch, "acked_epoch": acked,
		"source_n": sourceN, "n": agg.N(), "sources": len(agg.Sources()),
	})
}

// advertiseSource records the pull-back URL a push carried (?addr=),
// bounding it to something http-ish so a garbage value cannot become a
// pull target.
func (s *Server) advertiseSource(agg *streamhull.FanInHull, req *http.Request, source string) {
	addr := req.URL.Query().Get("addr")
	if addr == "" {
		return
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return
	}
	agg.Advertise(source, addr)
}

// StreamSnapshots captures every snapshot-capable stream as an encoded
// JSON snapshot — the collect half of the fan-in follower loop
// (fanin.Pusher pushes what this returns to the upstream aggregator).
// Kinds with no snapshot form (exact, partial, partitioned) are skipped,
// as are fan-in aggregates themselves: a follower forwards its own
// streams, not state other nodes already pushed to it. Streams parked
// in the cold tier are skipped too (their nil summary fails the
// Snapshotter assertion below) — an idle stream's last pushed
// contribution stands upstream until it warms up again, which beats
// rehydrating the entire cold set every push interval.
// Snapshots carry the tenant-local id, not the internal key: the
// upstream aggregator derives its namespace from the pusher's token, so
// a follower's "acme/clicks" forwards as "clicks" under whatever tenant
// the push credential names (for the root tenant the two are the same).
func (s *Server) StreamSnapshots() []fanin.StreamSnapshot {
	return s.streamSnapshots(false)
}

// StreamSnapshotsCascade is StreamSnapshots for a middle tier of a
// cascaded fan-in topology (leaf → region → global): fan-in aggregates
// are INCLUDED, each contributing its merged O(r) sample, so a regional
// aggregator can itself run a push loop toward a global one. The leaf
// tier's per-source epochs stay local; upstream, the whole region is
// one source whose contribution is superseded as a unit — which is what
// makes a leaf restart propagate: the region re-merges, its next push
// carries a higher epoch, and the global tier drops the stale region
// wholesale.
func (s *Server) StreamSnapshotsCascade() []fanin.StreamSnapshot {
	return s.streamSnapshots(true)
}

func (s *Server) streamSnapshots(includeAggregates bool) []fanin.StreamSnapshot {
	s.mu.RLock()
	ids := make([]string, 0, len(s.streams))
	sts := make([]*stream, 0, len(s.streams))
	for key, st := range s.streams {
		_, id := splitTenant(key)
		ids = append(ids, id)
		sts = append(sts, st)
	}
	s.mu.RUnlock()
	out := make([]fanin.StreamSnapshot, 0, len(ids))
	for i, st := range sts {
		if st.spec.Kind == streamhull.KindFanIn && !includeAggregates {
			continue
		}
		sn, ok := st.summary().(streamhull.Snapshotter)
		if !ok {
			continue
		}
		snap := sn.Snapshot()
		data, err := snap.Encode()
		if err != nil {
			s.logger.Error("fanin: encoding stream snapshot failed",
				"stream", ids[i], "err", err)
			continue
		}
		out = append(out, fanin.StreamSnapshot{
			Stream: ids[i], R: snap.R, Data: data,
			N: snap.N, Points: snap.Points,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// handleDropSource removes one source's contribution from a fan-in
// aggregate (an operator retiring a dead follower; a live one simply
// re-joins with its next push).
func (s *Server) handleDropSource(w http.ResponseWriter, req *http.Request) {
	id, source := req.PathValue("id"), req.PathValue("source")
	st, err := s.get(identityFrom(req).Tenant, id, false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	agg, ok := st.summary().(*streamhull.FanInHull)
	if !ok {
		writeErr(w, http.StatusConflict, "stream %q is %s, not a fan-in aggregate", id, st.spec.Kind)
		return
	}
	if !agg.DropSource(source) {
		writeErr(w, http.StatusNotFound, "aggregate %q has no source %q", id, source)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream": id, "dropped": source, "sources": len(agg.Sources())})
}

// pairAnswer computes one pair-query response body from two hulls, or
// ok=false for an unknown type. Factored out of handlePairQuery so the
// memoized and cold paths share one implementation.
func pairAnswer(qt string, ha, hb streamhull.Polygon) (map[string]any, bool) {
	switch qt {
	case "distance":
		d, pair := streamhull.MinDistance(ha, hb)
		return map[string]any{
			"distance": d,
			"pair":     [][2]float64{{pair[0].X, pair[0].Y}, {pair[1].X, pair[1].Y}},
		}, true
	case "separable":
		line, ok := streamhull.SeparatingLine(ha, hb)
		resp := map[string]any{"separable": ok}
		if ok {
			resp["line"] = map[string]any{
				"normal": [2]float64{line.N.X, line.N.Y}, "offset": line.Offset,
			}
		}
		return resp, true
	case "overlap":
		return map[string]any{"overlap_area": streamhull.OverlapArea(ha, hb)}, true
	case "contains":
		return map[string]any{
			"a_contains_b": ha.ContainsPolygon(hb),
			"b_contains_a": hb.ContainsPolygon(ha),
		}, true
	default:
		return nil, false
	}
}

func (s *Server) handlePairQuery(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	idA, idB := q.Get("a"), q.Get("b")
	if idA == "" || idB == "" {
		writeErr(w, http.StatusBadRequest, "pair query requires both a and b stream ids")
		return
	}
	tenant := identityFrom(req).Tenant
	sa, err := s.get(tenant, idA, false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	sb, err := s.get(tenant, idB, false)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	qt := q.Get("type")
	// Pair answers combine two hulls, so a single stream's epoch cache
	// cannot hold them; instead they memoize on the (epochA, epochB)
	// pair. The versions are read BEFORE the hulls so a racing mutation
	// can only stamp an entry older than its contents — causing a
	// spurious recompute later, never a stale answer (the same ordering
	// argument QueryCache itself uses).
	sp := trace.FromContext(req.Context())
	qa, err := s.residentQueries(qualifyID(tenant, idA), sa, sp)
	if err != nil {
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	qb, err := s.residentQueries(qualifyID(tenant, idB), sb, sp)
	if err != nil {
		writeStreamErr(w, err, http.StatusInternalServerError)
		return
	}
	ea, eb := qa.Version(), qb.Version()
	ha, hb := qa.Hull(), qb.Hull()
	// A summary with no live points has a zero-vertex hull; the geometry
	// kernels (closest pair, separating line, clipping) have no answer
	// for it, so surface an explicit error instead of a fabricated
	// [0,0] witness. This covers never-written streams AND windows whose
	// last points just expired.
	if ha.IsEmpty() || hb.IsEmpty() {
		var empty []string
		if ha.IsEmpty() {
			empty = append(empty, idA)
		}
		if hb.IsEmpty() {
			empty = append(empty, idB)
		}
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("pair query needs points on both sides; empty stream(s): %s",
				strings.Join(empty, ", ")),
			Code:  "empty_streams",
			Empty: empty,
		})
		return
	}
	key := pairKey{qa: qa, qb: qb, typ: qt}
	if resp, ok := s.pairs.get(key, ea, eb); ok {
		s.met.pairHits.Inc()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.met.pairMisses.Inc()
	resp, ok := pairAnswer(qt, ha, hb)
	if !ok {
		writeErr(w, http.StatusBadRequest, "unknown pair query type %q", qt)
		return
	}
	// Memoize only if both caches are still their streams' live ones: a
	// concurrent delete or checkpoint re-base purges entries keyed on
	// retired caches, and a put landing after that purge would re-pin
	// them. (A delete sliding in between this check and the put leaves
	// one unservable entry behind — bounded by the cache cap, and gone
	// the next time anything touches the map's eviction path.)
	liveA, errA := s.get(tenant, idA, false)
	liveB, errB := s.get(tenant, idB, false)
	if errA == nil && errB == nil && liveA.queries() == qa && liveB.queries() == qb {
		s.pairs.put(key, ea, eb, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}
