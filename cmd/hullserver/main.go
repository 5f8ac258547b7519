// Command hullserver runs the HTTP stream-summary service: point sources
// POST their coordinates, the server keeps O(r)-size hull summaries per
// stream, and clients query diameters, extents, separation, containment
// and overlap at any time. See internal/server for the API.
//
// With -data the streams are durable: every ingest is written to a
// per-stream write-ahead log before it is acknowledged, summaries are
// checkpointed so logs stay O(r)-sized, and a restart (clean or not)
// recovers every stream. -fsync picks the durability/latency trade-off:
// "always" group-commits an fsync per batch, "interval" (default) syncs
// on a timer, "none" leaves syncing to the OS.
//
// -max-resident bounds how many stream summaries stay in memory: idle
// streams beyond the cap are evicted to their O(r) checkpoint and
// rehydrated transparently on the next touch, so a server can own
// vastly more streams than fit in RAM.
// -async-recovery answers probes immediately while startup recovery
// runs in the background (API requests get 503 with progress until it
// finishes). See docs/STORAGE.md.
//
// -default-spec is the spec JSON of every stream created without one:
// auto-created on first ingest, or created by a PUT with an empty body.
// It defaults to {"kind":"adaptive","r":32}; a sharded spec such as
// {"kind":"sharded","shards":8,"inner":{"kind":"adaptive","r":32}} deals
// ingest batches round-robin across independent sub-summaries (one lock
// each, so concurrent batches to one stream ingest in parallel) and
// merges the shard hulls on read.
//
// With -push-to the server additionally runs as a fan-in follower:
// every -push-every it snapshots each of its streams (O(r) bytes each)
// and pushes them to the same-named aggregate streams on the upstream
// server, tagged with -push-source and a wall-clock epoch — so the
// aggregator can drop a stale contribution when this follower restarts
// and re-syncs. The aggregate streams are created (kind "fanin") on
// first contact. After the first acked push each stream rides true
// delta frames — only the extrema that changed since the last acked
// epoch, a binary frame the aggregator can reject with a resync demand
// when it cannot anchor it, answered with a full snapshot. A delta is
// sent only when its frame is smaller than the full snapshot.
// -push-aggregates includes this server's own fan-in aggregates in the
// push set, so tiers cascade: leaf → region → global (see
// docs/FANIN.md and scripts/cascade_smoke.sh). -push-addr advertises a
// base URL the aggregator can pull this server's snapshots from, and
// -pull-after/-pull-token turn on the aggregator side of
// that: sources that advertised an address and have gone quiet longer
// than -pull-after get their snapshots fetched directly (the aggregator
// scans every half -pull-after, at least 100ms apart).
//
// With -auth-tokens the API requires a bearer token on every request;
// each token maps to a tenant (its own stream namespace) and a role set
// (read, write, push). -quota-streams/-quota-bytes/-quota-rate cap what
// each tenant may hold and how fast it may call. Unless -metrics=false,
// GET /metrics serves Prometheus-format counters, gauges and latency
// histograms (OpenMetrics with trace exemplars when the scraper asks
// for it), and /healthz + /readyz serve orchestrator probes (all three
// unauthenticated).
//
// Observability: every request is traced — stage-level spans for auth,
// rate limiting, stream-lock wait, batch prefilter, insert, WAL append,
// fsync, checkpointing and read-cache materialization — into a bounded
// in-memory ring served at GET /debug/traces (gated like the write
// routes; see docs/OBSERVABILITY.md). Traces slower than -trace-slow
// are logged with their stage breakdown. Logs are structured
// (log/slog); -log-json switches them from text to JSON. -debug-addr
// starts a second, ungated listener (bind it to localhost!) serving
// /debug/traces and the standard /debug/pprof profiling endpoints.
//
// Usage:
//
//	hullserver -addr :8080
//	hullserver -addr :8080 -default-spec '{"kind":"sharded","shards":8,"inner":{"kind":"adaptive","r":32}}'
//	hullserver -addr :8080 -data /var/lib/hullserver -fsync always
//	hullserver -addr :8080 -data /var/lib/hullserver -max-resident 10000
//	hullserver -addr :8081 -push-to http://agg:8080 -push-every 5s -push-source node1
//	hullserver -addr :8082 -push-to http://global:8080 -push-source region1 -push-aggregates -pull-after 30s
//	hullserver -addr :8080 -auth-tokens @/etc/hullserver/tokens -quota-rate 200
//	hullserver -addr :8080 -trace-slow 100ms -debug-addr 127.0.0.1:6060 -log-json
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/streamgeom/streamhull/internal/auth"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/trace"
	"github.com/streamgeom/streamhull/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		defSpec   = flag.String("default-spec", `{"kind":"adaptive","r":32}`, "spec JSON for auto-created and empty-body-created streams")
		maxS      = flag.Int("max-streams", 1024, "maximum number of live streams")
		sweep     = flag.Duration("sweep", 2*time.Second, "expiry sweep interval for time-windowed streams")
		data      = flag.String("data", "", "data directory for durable streams (empty = in-memory only)")
		maxRes    = flag.Int("max-resident", 0, "summaries kept in memory; idle streams beyond this evict to their O(r) checkpoint (0 = all resident)")
		asyncRec  = flag.Bool("async-recovery", false, "serve /readyz (503 with progress) immediately and recover streams in the background")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: always, interval, or none")
		fsyncInt  = flag.Duration("fsync-interval", 50*time.Millisecond, "fsync timer period for -fsync interval")
		ckpt      = flag.Int("checkpoint", 65536, "points ingested per stream between snapshot checkpoints")
		pushTo    = flag.String("push-to", "", "aggregator base URL: run as a fan-in follower pushing snapshot deltas upstream")
		pushInt   = flag.Duration("push-every", 5*time.Second, "push period for -push-to")
		pushSrc   = flag.String("push-source", "", "source name for -push-to (default hostname+addr)")
		pushTok   = flag.String("push-token", "", "bearer token the follower sends upstream (needs the push role there)")
		pushAddr  = flag.String("push-addr", "", "base URL the AGGREGATOR can reach this follower on, advertised with every push so lagging state can be pulled (empty = not pullable)")
		pushAggs  = flag.Bool("push-aggregates", false, "include this server's own fan-in aggregates in the push set — the middle tier of a leaf → region → global cascade")
		pullAfter = flag.Duration("pull-after", 0, "aggregator side: pull a fan-in source's snapshot from its advertised address when its last push is older than this (0 = never pull)")
		pullTok   = flag.String("pull-token", "", "bearer token the aggregator presents when pulling from followers (needs the read role there)")
		tokens    = flag.String("auth-tokens", "", "bearer tokens: \"tok=tenant:roles;...\" or @file (empty = open access)")
		metrics   = flag.Bool("metrics", true, "serve GET /metrics, /healthz and /readyz")
		qStreams  = flag.Int("quota-streams", 0, "max live streams per tenant (0 = unlimited)")
		qBytes    = flag.Int64("quota-bytes", 0, "max resident ingest bytes per tenant (0 = unlimited)")
		qRate     = flag.Float64("quota-rate", 0, "API requests per second per tenant (0 = unlimited)")
		qBurst    = flag.Int("quota-burst", 0, "rate-limit burst per tenant (0 = ceil of -quota-rate)")
		traceSlow = flag.Duration("trace-slow", 250*time.Millisecond, "log traces at least this slow with their stage breakdown (0 = never)")
		traceCap  = flag.Int("trace-buffer", 256, "completed traces kept for GET /debug/traces")
		debugAddr = flag.String("debug-addr", "", "extra ungated listener for /debug/traces and /debug/pprof (bind to localhost)")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	provider := auth.Provider(auth.None{})
	if *tokens != "" {
		p, err := auth.ParseStaticTokens(*tokens)
		if err != nil {
			fatal("-auth-tokens", "err", err)
		}
		provider = p
	}

	sync, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal("-fsync", "err", err)
	}
	tracer := trace.New(trace.Config{
		Capacity:      *traceCap,
		SlowThreshold: *traceSlow,
		Logger:        logger,
	})
	api, err := server.New(server.Config{
		DefaultSpec: *defSpec, MaxStreams: *maxS, SweepInterval: *sweep,
		DataDir: *data, MaxResident: *maxRes,
		AsyncRecovery: *asyncRec, Sync: sync, FsyncInterval: *fsyncInt,
		CheckpointEvery: *ckpt, Logger: logger, Tracer: tracer,
		Auth: provider,
		Quotas: auth.Quotas{
			MaxStreams: *qStreams, MaxBytes: *qBytes,
			RatePerSec: *qRate, Burst: *qBurst,
		},
		DisableObservability: !*metrics,
		PullAfter:            *pullAfter,
		PullToken:            *pullTok,
	})
	if err != nil {
		fatal("startup failed", "err", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// SIGTERM too, so container orchestrators get the same graceful,
	// WAL-flushing shutdown as a ^C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// A second, ungated debug listener: trace ring plus pprof with no
		// bearer token needed. Keep it on localhost — it leaks stream ids
		// and timings across tenants by design.
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           api.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutdownCtx)
		}()
	}

	if *pushTo != "" {
		source := *pushSrc
		if source == "" {
			// Stable across restarts (the epoch rules depend on that) and
			// unique per follower process on a shared host.
			hn, err := os.Hostname()
			if err != nil {
				hn = "follower"
			}
			source = hn + *addr
		}
		collect := api.StreamSnapshots
		if *pushAggs {
			collect = api.StreamSnapshotsCascade
		}
		pusher, err := fanin.NewPusher(fanin.PusherConfig{
			Target: *pushTo, Source: source, Interval: *pushInt,
			Collect: collect, Logger: logger, Token: *pushTok,
			Tracer: tracer, AdvertiseURL: *pushAddr,
		})
		if err != nil {
			fatal("-push-to", "err", err)
		}
		// The follower's own push health, scraped from the same /metrics
		// page as the API instruments.
		reg := api.Metrics()
		reg.NewGaugeFunc("streamhull_fanin_pusher_pushes_total",
			"stream pushes accepted upstream",
			func() float64 { return float64(pusher.Stats().Pushes) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_failures_total",
			"stream pushes abandoned after retries",
			func() float64 { return float64(pusher.Stats().Failures) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_retries_total",
			"individual push retry attempts",
			func() float64 { return float64(pusher.Stats().Retries) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_consecutive_failures",
			"abandoned pushes since the last success",
			func() float64 { return float64(pusher.Stats().ConsecutiveFailures) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_delta_pushes_total",
			"accepted pushes sent as epoch-ranged delta frames",
			func() float64 { return float64(pusher.Stats().DeltaPushes) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_resyncs_total",
			"delta pushes bounced upstream with resync_required",
			func() float64 { return float64(pusher.Stats().Resyncs) })
		reg.NewGaugeFunc("streamhull_fanin_pusher_bytes_total",
			"accepted push body bytes (the number delta mode shrinks)",
			func() float64 { return float64(pusher.Stats().BytesPushed) })
		go pusher.Run(ctx)
		logger.Info("fan-in follower: pushing snapshot deltas upstream",
			"target", *pushTo, "interval", *pushInt, "source", source)
	}

	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	if *data != "" {
		logger.Info("durable mode", "data", *data, "fsync", *fsync,
			"max_resident", *maxRes)
	}
	logger.Info("hullserver listening", "addr", *addr, "default_spec", *defSpec)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "err", err)
	}
	// Flush WALs after the listener drains so every acknowledged batch
	// is on disk before exit.
	if err := api.Close(); err != nil {
		fatal("closing stream store", "err", err)
	}
}
