package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/trace"
	"github.com/streamgeom/streamhull/internal/wal"
)

// layerMetrics are BENCHMARK.json's per_layer metrics, reported by every
// workload's traced run.
var layerMetrics = []metricDef{
	{"transport.write_us", "us"},
	{"transport.read_us", "us"},
	{"server.write_us", "us"},
	{"server.read_us", "us"},
	{"server.write_allocs", "count"},
	{"server.write_bytes", "B"},
	{"server.read_allocs", "count"},
	{"server.read_bytes", "B"},
	{"server.self_write_us", "us"},
	{"auth.us", "us"},
	{"trace.overhead_us", "us"},
	{"summary.insert_ns_per_pt", "ns"},
	{"summary.kept_frac", "1"},
	{"core.insert_ns_per_pt", "ns"},
	{"core.share_of_write", "1"},
	{"shard.insert_ns_per_pt", "ns"},
	{"shard.merge_us", "us"},
	{"readcache.hit_ratio", "1"},
	{"readcache.miss_us", "us"},
	{"readcache.hit_us", "us"},
	{"store.create_us", "us"},
	{"store.append_us", "us"},
	{"store.checkpoint_us", "us"},
	{"store.load_us", "us"},
	{"store.open_us", "us"},
	{"store.rehydrate_frac", "1"},
	{"store.recover_s", "s"},
	{"fanin.delta_bytes", "B"},
	{"fanin.full_frac", "1"},
	{"fanin.apply_us", "us"},
	{"fanin.merge_us", "us"},
	{"go.gc_cpu_frac", "1"},
	{"go.heap_peak_mb", "MiB"},
	{"gen.late_p99_ms", "ms"},
}

const (
	// keepRequests is how many writes and reads of the live phase a
	// traced run keeps for the sequential server replay.
	keepRequests = 2000
	// replayBudget caps the wall time of one sequential server replay.
	replayBudget = 1500 * time.Millisecond
	// readBack is how many reads follow the traffic in a traced run, so
	// the read path is measured on every workload's served state.
	readBack = 1000
)

// inProcessConfig builds the server.Config cmd/hullserver would build
// from the workload's flags: the same defaults (an always-on tracer,
// metrics, the auth provider the flags name), parsed from the same
// argument list the binary receives.
func inProcessConfig(w *workloadDef, dataDir string) (server.Config, error) {
	fset := flag.NewFlagSet("hullserver", flag.ContinueOnError)
	fset.SetOutput(io.Discard)
	maxStreams := fset.Int("max-streams", 1024, "")
	data := fset.String("data", "", "")
	maxResident := fset.Int("max-resident", 0, "")
	checkpoint := fset.Int("checkpoint", 65536, "")
	tokens := fset.String("auth-tokens", "", "")
	if err := fset.Parse(w.serverArgs(dataDir)); err != nil {
		return server.Config{}, fmt.Errorf("workload flags: %w", err)
	}
	provider := auth.Provider(auth.None{})
	if *tokens != "" {
		p, err := auth.ParseStaticTokens(*tokens)
		if err != nil {
			return server.Config{}, err
		}
		provider = p
	}
	sync, err := wal.ParseSyncPolicy("interval")
	if err != nil {
		return server.Config{}, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return server.Config{
		DefaultR: r, MaxStreams: *maxStreams, SweepInterval: 2 * time.Second,
		DataDir: *data, MaxResident: *maxResident,
		Sync: sync, FsyncInterval: 50 * time.Millisecond, CheckpointEvery: *checkpoint,
		Logger: logger,
		Tracer: trace.New(trace.Config{Capacity: 256, SlowThreshold: 250 * time.Millisecond, Logger: logger}),
		Auth:   provider,
	}, nil
}

// ---- decorators over the layers' public interfaces -------------------

// timedAuth records a span around every Authenticate call.
type timedAuth struct {
	auth.Provider
	rec *recorder
}

func (a timedAuth) Authenticate(token string) (auth.Identity, error) {
	start := time.Now()
	id, err := a.Provider.Authenticate(token)
	a.rec.record("auth", 0, start)
	return id, err
}

// timedStore records spans around the storage engine's calls and wraps
// the appenders it hands out.
type timedStore struct {
	store.Store
	rec *recorder
}

func (s timedStore) Create(key string, spec streamhull.Spec) (store.Appender, error) {
	start := time.Now()
	app, err := s.Store.Create(key, spec)
	s.rec.record("store.create", 0, start)
	if err != nil {
		return nil, err
	}
	return timedAppender{app, s.rec}, nil
}

func (s timedStore) Open(key string) (store.Appender, error) {
	start := time.Now()
	app, err := s.Store.Open(key)
	s.rec.record("store.open", 0, start)
	if err != nil {
		return nil, err
	}
	return timedAppender{app, s.rec}, nil
}

func (s timedStore) Load(key string) (*store.Recovered, error) {
	start := time.Now()
	rec, err := s.Store.Load(key)
	s.rec.record("store.load", 0, start)
	return rec, err
}

type timedAppender struct {
	store.Appender
	rec *recorder
}

func (a timedAppender) Append(pts []geom.Point) error {
	start := time.Now()
	err := a.Appender.Append(pts)
	a.rec.record("store.append", 0, start)
	return err
}

func (a timedAppender) AppendTimed(pts []geom.Point) (write, syncWait time.Duration, err error) {
	start := time.Now()
	write, syncWait, err = a.Appender.AppendTimed(pts)
	a.rec.record("store.append", 0, start)
	return write, syncWait, err
}

func (a timedAppender) Checkpoint(snap []byte) error {
	start := time.Now()
	err := a.Appender.Checkpoint(snap)
	a.rec.record("store.checkpoint", 0, start)
	return err
}

// timedHandler records a server span around Server.ServeHTTP, tied to
// the client span by the request id header.
type timedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, req)
	t.rec.record("server."+class(req.Method, req.URL.Path), parseReq(req.Header.Get(reqHeader)), start)
}

// ---- the traced run ---------------------------------------------------

func isFanin(sc scenario) bool {
	_, ok := sc.(*faninScenario)
	return ok
}

// served lists the stream ids a scenario's reads address.
func served(sc scenario) []string {
	if isFanin(sc) {
		return []string{faninStream}
	}
	var ids []string
	for _, s := range sc.written() {
		ids = append(ids, s.id)
	}
	return ids
}

// listen serves h on a fresh loopback port until the returned stop is
// called; stop waits for the serving goroutine to exit.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close()
		<-done
	}, nil
}

// runTraced is the per-layer run: the same stack built in-process with
// the configuration hullserver would use, its layers' public interfaces
// wrapped in timing decorators, driven by the same traffic over
// loopback TCP; then sequential replays of the same requests and
// batches through each layer on its own.
func runTraced(o options) (*report, error) {
	w := o.workload
	dir, err := runDir(o, "traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := newReport(w.name)
	rec := newRecorder()
	sc := w.build(o.seed)

	dataDir := filepath.Join(dir, "data")
	cfg, err := inProcessConfig(w, dataDir)
	if err != nil {
		return nil, err
	}
	cfg.Auth = timedAuth{cfg.Auth, rec}
	if cfg.DataDir != "" {
		st, err := store.Open("", cfg.DataDir, store.Options{Sync: cfg.Sync, Interval: cfg.FsyncInterval, Logger: cfg.Logger})
		if err != nil {
			return nil, err
		}
		cfg.Store = timedStore{st, rec}
	}
	setupStart := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	closeSrv := sync.OnceValue(srv.Close)
	defer closeSrv()
	base, stop, err := listen(timedHandler{srv, rec})
	if err != nil {
		return nil, err
	}
	defer stop()
	setupConns := [2]*conn{newConn(base, w.token), newConn(base, w.token)}
	defer setupConns[0].close()
	defer setupConns[1].close()
	if err := sc.setup(setupConns); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.set("traced.setup_s", "s", time.Since(setupStart).Seconds(), "in-process, one set-up")

	var conns [2]*conn
	for i := range conns {
		conns[i] = newConn(base, w.token)
		conns[i].rec, conns[i].keepMax, conns[i].kept = rec, keepRequests, map[string][]keptRequest{}
		defer conns[i].close()
	}
	rt := startRuntimeSampler()
	begin := time.Now()
	warm := begin.Add(warmupFor(o.seconds))
	ts := sc.drive(conns, wallClock, begin, warm, warm.Add(o.seconds))
	gcFrac, heapPeak := rt.stop()
	rep.set("go.gc_cpu_frac", "1", gcFrac, "GC CPU ÷ GOMAXPROCS·wall time over the traffic, client included")
	rep.set("go.heap_peak_mb", "MiB", heapPeak, "peak heap objects over the traffic, client included")
	live := newReport(w.name)
	reportLoad(live, ts)
	for _, name := range live.order {
		rep.set("traced."+name, live.units[name], live.values[name], "compare with the --trace 0 run: the difference is tracing overhead")
	}
	if v, ok := live.values["gen.late_p99_ms"]; ok {
		rep.set("gen.late_p99_ms", "ms", v, live.notes["gen.late_p99_ms"])
	}
	rep.attempted, rep.failed, rep.problems = live.attempted, live.failed, live.problems

	// Read back, so every workload's read path is measured.
	ids := served(sc)
	for i := range readBack {
		q := readQueries[i%len(readQueries)]
		if _, err := conns[0].do(http.MethodGet, "/v1/streams/"+ids[(i/len(readQueries))%len(ids)]+"/"+q, "", nil); err != nil {
			rep.fail("read-back: %v", err)
			break
		}
	}
	m, err := conns[0].metrics()
	if err != nil {
		return nil, err
	}
	crossCheck(rep, m, setupConns[0].non2xx+setupConns[1].non2xx+conns[0].non2xx+conns[1].non2xx)
	reads, rebuilds := m.sum("streamhull_querycache_reads_total"), m.sum("streamhull_querycache_rebuilds_total")
	rep.set("readcache.hit_ratio", "1", 1-rebuilds/max(reads, 1), fmt.Sprintf("%.0f reads, %.0f rebuilds", reads, rebuilds))
	writes := m.sum("streamhull_http_requests_total", `code="200"`, `endpoint="points"`) +
		m.sum("streamhull_http_requests_total", `code="200"`, `endpoint="snapshot_post"`)
	reh := m.sum("streamhull_store_rehydrations_total")
	rep.set("store.rehydrate_frac", "1", reh/max(writes, 1), fmt.Sprintf("%.0f rehydrations over %.0f writes", reh, writes))

	if errRel, err := sc.verify(conns[0]); err != nil {
		rep.fail("%v", err)
	} else {
		rep.set("traced.hull_err_rel", "1", errRel, "")
	}

	spans := rec.byLayer()
	layerFromSpans(rep, spans)
	batches := replayBatches(sc.written(), replayLimit)
	libSlices(rep, batches)
	if err := serverReplay(rep, w, sc, dir, conns); err != nil {
		return nil, err
	}

	if cfg.DataDir != "" {
		storeFromSpans(rep, spans)
		// A crash image: the data directory as the live server left it,
		// never closed.
		crash := filepath.Join(dir, "crash")
		if err := copyDir(cfg.DataDir, crash); err != nil {
			return nil, err
		}
		if err := recoverCheck(rep, w, sc, crash); err != nil {
			return nil, err
		}
	} else if err := storeSlice(rep, w, batches, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	selfTime(rep, spans, w, sc)
	stop()
	if err := closeSrv(); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerFromSpans derives the transport, server and auth metrics from
// the live spans.
func layerFromSpans(rep *report, spans map[string][]span) {
	for _, kind := range []string{"write", "read"} {
		srv := spans["server."+kind]
		rep.set("server."+kind+"_us", "us", meanUS(srv), fmt.Sprintf("%d Server.ServeHTTP calls", len(srv)))
		byReq := map[uint64]time.Duration{}
		for _, s := range srv {
			byReq[s.Req] = s.dur()
		}
		var total time.Duration
		n := 0
		for _, c := range spans["client."+kind] {
			if d, ok := byReq[c.Req]; ok {
				total += c.dur() - d
				n++
			}
		}
		rep.set("transport."+kind+"_us", "us", us(total)/float64(max(n, 1)),
			fmt.Sprintf("client round trip minus ServeHTTP, %d requests", n))
	}
	rep.set("auth.us", "us", meanUS(spans["auth"]), fmt.Sprintf("%d Authenticate calls", len(spans["auth"])))
}

// storeFromSpans derives the store metrics from the live decorated
// store's spans.
func storeFromSpans(rep *report, spans map[string][]span) {
	for _, layer := range []string{"create", "append", "checkpoint", "load", "open"} {
		ss := spans["store."+layer]
		rep.set("store."+layer+"_us", "us", meanUS(ss), fmt.Sprintf("%d live calls", len(ss)))
	}
}

// selfTime is the server's own write time: ServeHTTP minus the auth,
// store and summary calls it makes — codec, middleware and tracing.
func selfTime(rep *report, spans map[string][]span, w *workloadDef, sc scenario) {
	writes := len(spans["server.write"])
	if writes == 0 {
		return
	}
	var storeTime time.Duration
	for _, layer := range []string{"store.append", "store.checkpoint", "store.load", "store.open"} {
		for _, s := range spans[layer] {
			storeTime += s.dur()
		}
	}
	// The summary call behind one write: a fan-in push applies a delta,
	// a point POST inserts its batch into the stream's kind of summary.
	first := sc.written()[0]
	summaryUS := rep.values["summary.insert_ns_per_pt"] * float64(first.batch) / 1000
	switch {
	case isFanin(sc):
		summaryUS = rep.values["fanin.apply_us"]
	case first.spec.Kind == streamhull.KindSharded:
		summaryUS = rep.values["shard.insert_ns_per_pt"] * float64(first.batch) / 1000
	}
	self := rep.values["server.write_us"] - rep.values["auth.us"] - us(storeTime)/float64(writes) - summaryUS
	rep.set("server.self_write_us", "us", self, "ServeHTTP minus auth, store and summary per write")
	rep.set("core.share_of_write", "1",
		rep.values["core.insert_ns_per_pt"]*float64(sc.written()[0].batch)/1000/(1000*rep.values["traced.write_p50_ms"]),
		"core insert time per batch ÷ median client write latency")
}

// ---- sequential server replay -----------------------------------------

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(b), nil
}
func (d *discardWriter) WriteHeader(s int) { d.status = s }

// handlerTransport sends a client's requests straight into a handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rr := httptest.NewRecorder()
	t.h.ServeHTTP(rr, req)
	return rr.Result(), nil
}

// buildRequests turns kept requests into server-side requests.
func buildRequests(token string, reqs []keptRequest) []*http.Request {
	built := make([]*http.Request, len(reqs))
	for i, k := range reqs {
		req := httptest.NewRequest(k.method, k.path, bytes.NewReader(k.body))
		if k.ctype != "" {
			req.Header.Set("Content-Type", k.ctype)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		built[i] = req
	}
	return built
}

// serveOne calls h.ServeHTTP and returns how long it took.
func serveOne(h http.Handler, dw *discardWriter, req *http.Request) (time.Duration, error) {
	dw.status = 0
	clear(dw.h)
	start := time.Now()
	h.ServeHTTP(dw, req)
	d := time.Since(start)
	if dw.status/100 != 2 {
		return d, fmt.Errorf("replayed %s %s: HTTP %d", req.Method, req.URL.Path, dw.status)
	}
	return d, nil
}

// allocsPer replays reqs into h one at a time, within replayBudget, and
// returns how many it sent and the heap allocations and bytes per
// request. Nothing else runs meanwhile, so the process-wide counters
// are the server's.
func allocsPer(h http.Handler, reqs []*http.Request) (n int, allocs, bytes float64, err error) {
	dw := &discardWriter{h: http.Header{}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, req := range reqs {
		if _, err := serveOne(h, dw, req); err != nil {
			return 0, 0, 0, err
		}
		n++
		if time.Since(start) > replayBudget {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	return n, float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

// freshServer builds an undecorated in-process server (tracer on or
// off) with the workload's streams created.
func freshServer(w *workloadDef, sc scenario, dataDir string, traced bool) (*server.Server, error) {
	cfg, err := inProcessConfig(w, dataDir)
	if err != nil {
		return nil, err
	}
	if !traced {
		cfg.Tracer = nil
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	direct := func() *conn {
		return &conn{hc: &http.Client{Transport: handlerTransport{srv}}, base: "http://replay", token: w.token}
	}
	if err := sc.setup([2]*conn{direct(), direct()}); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// serverReplay replays the kept live requests, one at a time, into two
// fresh servers, one with hullserver's always-on tracer and one with a
// nil tracer. The first half of the writes, sent to the traced server
// alone, gives allocations per write; the second half alternates
// between the two servers, which hold the same state, and the median
// per-request difference is the tracer's own cost. The reads then give
// allocations per read.
func serverReplay(rep *report, w *workloadDef, sc scenario, dir string, conns [2]*conn) error {
	var writes, reads []keptRequest
	for _, c := range conns {
		writes = append(writes, c.kept["write"]...)
		reads = append(reads, c.kept["read"]...)
	}
	if len(writes) < 2 || len(reads) == 0 {
		return errors.New("server replay: too few writes or reads were kept")
	}
	on, err := freshServer(w, sc, filepath.Join(dir, "replay-on"), true)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := freshServer(w, sc, filepath.Join(dir, "replay-off"), false)
	if err != nil {
		return err
	}
	defer off.Close()
	half := len(writes) / 2
	n, allocs, bytes, err := allocsPer(on, buildRequests(w.token, writes[:half]))
	if err != nil {
		return err
	}
	rep.set("server.write_allocs", "count", allocs, fmt.Sprintf("%d writes replayed sequentially", n))
	rep.set("server.write_bytes", "B", bytes, "")
	dw := &discardWriter{h: http.Header{}}
	for _, req := range buildRequests(w.token, writes[:n]) {
		if _, err := serveOne(off, dw, req); err != nil {
			return err
		}
	}
	reqOn, reqOff := buildRequests(w.token, writes[n:]), buildRequests(w.token, writes[n:])
	var diffs []float64
	start := time.Now()
	for i := range reqOn {
		dOn, err := serveOne(on, dw, reqOn[i])
		if err != nil {
			return err
		}
		dOff, err := serveOne(off, dw, reqOff[i])
		if err != nil {
			return err
		}
		diffs = append(diffs, us(dOn-dOff))
		if time.Since(start) > 2*replayBudget {
			break
		}
	}
	rep.set("trace.overhead_us", "us", medianOf(diffs),
		fmt.Sprintf("median over %d replayed writes of ServeHTTP with the tracer minus without", len(diffs)))
	n, allocs, bytes, err = allocsPer(on, buildRequests(w.token, reads))
	if err != nil {
		return err
	}
	rep.set("server.read_allocs", "count", allocs, fmt.Sprintf("%d reads replayed sequentially", n))
	rep.set("server.read_bytes", "B", bytes, "")
	return nil
}

// ---- store: recovery and the replay slice ------------------------------

// recoverCheck times an in-process server.New on a crash image and
// checks that the recovered server serves what the live one did.
func recoverCheck(rep *report, w *workloadDef, sc scenario, crash string) error {
	cfg, err := inProcessConfig(w, crash)
	if err != nil {
		return err
	}
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("recovering the crash image: %w", err)
	}
	defer srv.Close()
	rep.set("store.recover_s", "s", time.Since(start).Seconds(), "in-process server.New on the crash image")
	if rc, ok := sc.(restartChecker); ok {
		c := &conn{hc: &http.Client{Transport: handlerTransport{srv}}, base: "http://recovered", token: w.token}
		if err := rc.recheck(c); err != nil {
			rep.fail("%v", err)
		}
	}
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// ---- Go runtime --------------------------------------------------------

// runtimeSampler tracks GC CPU share and peak heap over an interval.
type runtimeSampler struct {
	gc0, total0 float64
	peak        uint64
	stopc       chan struct{}
	done        chan struct{}
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	rs.gc0, rs.total0, rs.peak = readRuntime()
	go func() {
		defer close(rs.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stopc:
				return
			case <-tick.C:
				if _, _, h := readRuntime(); h > rs.peak {
					rs.peak = h
				}
			}
		}
	}()
	return rs
}

// stop ends sampling and returns the GC CPU fraction and peak heap MiB.
func (rs *runtimeSampler) stop() (gcFrac, heapMiB float64) {
	close(rs.stopc)
	<-rs.done
	gc, total, h := readRuntime()
	if h > rs.peak {
		rs.peak = h
	}
	return (gc - rs.gc0) / max(total-rs.total0, 1e-9), float64(rs.peak) / (1 << 20)
}
