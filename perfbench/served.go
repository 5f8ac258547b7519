package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// setupRuns is how many times a run starts a fresh server and creates
	// the workload's streams; setup_s is their median, and the last
	// server carries the measured traffic.
	setupRuns = 15
	// restarts is how many SIGKILL-and-restart cycles a durable run
	// times; recover_s is their median.
	restarts = 1
	// readyTimeout bounds a start or restart.
	readyTimeout = 60 * time.Second
)

// warmupFor is the unrecorded lead-in before the measured window.
func warmupFor(d time.Duration) time.Duration { return min(time.Second, d/5) }

// runDir makes the run's private scratch directory under workdir.
func runDir(o options, kind string) (string, error) {
	dir := filepath.Join(o.workdir, "runs", fmt.Sprintf("%s-%s-%d-%d", o.workload.name, kind, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runServed is the end-to-end run: the hullserver binary as its own
// process, driven over loopback TCP by two connections.
func runServed(o options) (*report, error) {
	w := o.workload
	dir, err := runDir(o, "served")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "hullserver.log")
	sc := w.build(o.seed)
	rep := newReport(w.name)

	// Set-up, several times over: exec → ready → streams created.
	var setups []float64
	var p *serverProc
	dataDir := filepath.Join(dir, "data")
	var setupConns [2]*conn
	for i := range setupRuns {
		if p != nil {
			p.kill()
			setupConns[0].close()
			setupConns[1].close()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		p, err = startServer(o.serverBin, w.serverArgs(dataDir), logPath)
		if err != nil {
			return nil, err
		}
		if _, err := p.waitReady(readyTimeout); err != nil {
			p.kill()
			return nil, err
		}
		setupConns = [2]*conn{newConn(p.base, w.token), newConn(p.base, w.token)}
		if err := sc.setup(setupConns); err != nil {
			p.kill()
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, time.Since(p.started).Seconds())
	}
	defer func() { p.kill() }()
	rep.set("setup_s", "s", medianOf(setups), fmt.Sprintf("median of %d set-ups", len(setups)))

	conns := [2]*conn{newConn(p.base, w.token), newConn(p.base, w.token)}
	defer conns[0].close()
	defer conns[1].close()
	begin := time.Now()
	warm := begin.Add(warmupFor(o.seconds))
	// The server's CPU time over the measured window: read once when
	// the warm-up ends and again when the traffic does.
	cpuAtWarm := make(chan error, 1)
	var cpu0 cpuTimes
	go func() {
		time.Sleep(time.Until(warm))
		var err error
		cpu0, err = p.cpuTime()
		cpuAtWarm <- err
	}()
	ts := sc.drive(conns, wallClock, begin, warm, warm.Add(o.seconds))
	cpu1, err := p.cpuTime()
	if err == nil {
		err = <-cpuAtWarm
	}
	if err != nil {
		return nil, fmt.Errorf("reading server CPU time: %w", err)
	}
	reportLoad(rep, ts)
	if ops := len(ts[0].writes) + len(ts[0].reads) + len(ts[1].writes) + len(ts[1].reads); ops > 0 {
		d := cpu1.sub(cpu0)
		perOp := func(name, what string, t time.Duration) {
			rep.set(name, "us", us(t)/float64(ops), fmt.Sprintf("server %s CPU %.2fs over %d answered operations", what, t.Seconds(), ops))
		}
		perOp("server_user_us_per_op", "user-mode", d.user)
		perOp("server_sys_us_per_op", "kernel", d.sys)
		perOp("server_cpu_us_per_op", "user+kernel", d.user+d.sys)
	}

	// Counters and memory first, so the checks below do not count.
	m, err := conns[0].metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	crossCheck(rep, m, setupConns[0].non2xx+setupConns[1].non2xx+conns[0].non2xx+conns[1].non2xx)
	reportCounters(rep, m)
	rss, err := p.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.set("rss_peak_mb", "MiB", rss, "server VmHWM at the end of the run")

	errRel, err := sc.verify(conns[0])
	if err != nil {
		rep.fail("%v", err)
	} else {
		rep.set("hull_err_rel", "1", errRel, "max over streams of the farthest sent point's distance to the served hull ÷ exact diameter")
	}

	if rc, ok := sc.(restartChecker); ok && rep.correct() {
		var recs []float64
		for i := range restarts {
			p.kill()
			p, err = startServer(o.serverBin, w.serverArgs(dataDir), logPath)
			if err != nil {
				return nil, err
			}
			d, err := p.waitReady(readyTimeout)
			if err != nil {
				return nil, fmt.Errorf("restart %d: %w", i, err)
			}
			recs = append(recs, d.Seconds())
		}
		rep.set("recover_s", "s", medianOf(recs), fmt.Sprintf("median of %d SIGKILL restarts until /readyz is 200", len(recs)))
		c := newConn(p.base, w.token)
		if err := rc.recheck(c); err != nil {
			rep.fail("%v", err)
		}
		c.close()
	}
	p.stop(10 * time.Second)
	return rep, nil
}

// reportLoad turns the connections' tallies into the throughput,
// latency and failure metrics. Rates are medians over time windows and
// latencies medians over chunks of the run (see windowRate,
// chunkedLatency), so a transient stall moves one window, not the run.
func reportLoad(rep *report, ts [2]*tally) {
	var all tally
	for _, t := range ts {
		all.merge(t)
	}
	rep.attempted, rep.failed = all.attempted, all.failed
	if all.firstErr != nil {
		rep.fail("first failed operation: %v", all.firstErr)
	}
	points := func(s sample) float64 { return float64(s.pts) }
	one := func(sample) float64 { return 1 }
	if len(all.writes) > 0 {
		rate, total, span := windowRate(all.writes, points)
		rep.set("ingest_pts_per_s", "pt/s", rate, fmt.Sprintf("median of %d windows; %.0f points in %.2fs", maxChunks, total, span.Seconds()))
		setLatency(rep, "write", all.writes)
	}
	if len(all.reads) > 0 {
		rate, total, span := windowRate(all.reads, one)
		rep.set("read_per_s", "1/s", rate, fmt.Sprintf("median of %d windows; %.0f reads in %.2fs", maxChunks, total, span.Seconds()))
		setLatency(rep, "read", all.reads)
	}
	frac := 0.0
	if all.attempted > 0 {
		frac = float64(all.failed) / float64(all.attempted)
	}
	rep.set("fail_frac", "1", frac, fmt.Sprintf("%d of %d operations", all.failed, all.attempted))
	if len(all.lateMS) > minBeyond {
		_, _, tail, _ := summarize(append([]float64(nil), all.lateMS...))
		rep.set("gen.late_p99_ms", "ms", tail.Value, fmt.Sprintf("p%.2f of %d sends", tail.Pct, tail.N))
	}
}

// setLatency records <kind>_p25_ms, <kind>_p50_ms and <kind>_p99_ms,
// the tail being the highest percentile with at least minBeyond samples
// beyond it.
func setLatency(rep *report, kind string, ss []sample) {
	q1, med, tail, chunks, err := chunkedLatency(ss)
	if err != nil {
		rep.fail("%s latency: %v", kind, err)
		return
	}
	rep.set(kind+"_p25_ms", "ms", q1.Value, fmt.Sprintf("median over %d chunks; %d samples", chunks, q1.N))
	rep.set(kind+"_p50_ms", "ms", med.Value, fmt.Sprintf("median over %d chunks; %d samples", chunks, med.N))
	rep.set(kind+"_p99_ms", "ms", tail.Value, fmt.Sprintf("p%.2f, median over %d chunks; %d samples", tail.Pct, chunks, tail.N))
}

// crossCheck compares the server's count of non-2xx answers with the
// client's: the two sides must agree on every refused operation.
func crossCheck(rep *report, m scrape, clientNon2xx int) {
	if got := int(m.non2xx()); got != clientNon2xx {
		rep.fail("server counted %d non-2xx answers, the clients saw %d", got, clientNon2xx)
	}
}

// reportCounters derives the ratios the server counts where the work
// happens.
func reportCounters(rep *report, m scrape) {
	reads, rebuilds := m.sum("streamhull_querycache_reads_total"), m.sum("streamhull_querycache_rebuilds_total")
	if reads > 0 {
		rep.set("readcache.hit_ratio", "1", 1-rebuilds/reads, fmt.Sprintf("%.0f reads, %.0f rebuilds", reads, rebuilds))
	}
	if ev := m.sum("streamhull_store_evictions_total"); ev > 0 {
		writes := m.sum("streamhull_http_requests_total", `endpoint="points"`, `code="200"`)
		reh := m.sum("streamhull_store_rehydrations_total")
		rep.set("store.rehydrate_frac", "1", reh/max(writes, 1),
			fmt.Sprintf("%.0f rehydrations, %.0f evictions, %.0f writes", reh, ev, writes))
	}
	if acc := m.sum("streamhull_fanin_pushes_accepted_total"); acc > 0 {
		deltas := m.sum("streamhull_fanin_push_deltas_total")
		rep.set("fanin.full_frac", "1", 1-deltas/acc,
			fmt.Sprintf("%.0f accepted pushes, %.0f deltas, %.0f resyncs", acc, deltas, m.sum("streamhull_fanin_push_resyncs_total")))
	}
}
