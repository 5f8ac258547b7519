// Command hullbench regenerates the evaluation of Hershberger–Suri
// "Adaptive Sampling for Geometric Problems over Data Streams": Table 1
// (all four sections), the §5.4 lower-bound experiment (Fig. 9), the
// error-vs-r scaling of Theorem 5.4, the diameter approximation of
// Lemma 3.1, and the per-point processing-cost comparison of §3.1/§5.3.
//
// Usage:
//
//	hullbench -all                # everything, paper-scale (n = 100000)
//	hullbench -table1 -n 20000    # just Table 1, smaller stream
//	hullbench -sweep -lowerbound -diameter -timing
//	hullbench -windowed           # sliding-window cost/fidelity sweep
//	hullbench -durable            # WAL ingest overhead vs in-memory
//	hullbench -batch              # InsertBatch (hull-prefiltered) vs Insert
//	hullbench -serve              # sharded + cached serving under mixed load
//	hullbench -fanin              # multi-node fan-in error vs push interval
//
// The serve, batch, durable and fanin experiments double as committable
// performance baselines: -json DIR writes one BENCH_<experiment>.json
// per experiment run (scripts/bench_baseline.sh regenerates the set at
// the repo root), and -compare DIR re-checks fresh rows against those
// files, exiting nonzero when a throughput metric regresses by more
// than 25% (scripts/bench_compare.sh). Fan-in rows carry fidelity and
// wire-cost numbers (bytes/push, delta frames vs full snapshots) but no
// throughput metric, so -compare skips them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/experiments"
	"github.com/streamgeom/streamhull/internal/workload"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		table1     = flag.Bool("table1", false, "reproduce Table 1 (§7)")
		sweep      = flag.Bool("sweep", false, "error vs r sweep (Theorem 5.4)")
		lowerBound = flag.Bool("lowerbound", false, "circle lower bound (§5.4, Fig. 9)")
		diameter   = flag.Bool("diameter", false, "diameter approximation (Lemma 3.1)")
		timing     = flag.Bool("timing", false, "per-point processing cost (§3.1/§5.3)")
		windowed   = flag.Bool("windowed", false, "sliding-window cost and fidelity on a drift-burst stream")
		durable    = flag.Bool("durable", false, "durable-ingest overhead: WAL append + insert vs in-memory insert")
		batch      = flag.Bool("batch", false, "batch-first ingest: hull-prefiltered InsertBatch vs per-point Insert")
		serve      = flag.Bool("serve", false, "mixed read/write serving: sharded ingest + epoch-cached queries over the HTTP handler")
		faninF     = flag.Bool("fanin", false, "continuous multi-node fan-in: aggregate error vs push interval and source count")
		storeF     = flag.Bool("store", false, "cold-tier storage: many streams, few resident, O(r)-checkpoint memory bound")
		storeBk    = flag.String("store-backend", "memory", "backend for -store: memory or fswal")
		storeN     = flag.Int("store-streams", 1_000_000, "streams created by -store")
		storeHot   = flag.Int("store-hot", 10_000, "MaxResident cap (hot set) for -store")
		storePts   = flag.Int("store-points", 64, "points ingested per stream for -store")
		n          = flag.Int("n", 100000, "stream length per experiment")
		r          = flag.Int("r", 16, "adaptive sample parameter (uniform uses 2r)")
		seed       = flag.Int64("seed", 1, "workload seed")
		serveDur   = flag.Duration("serve-dur", 2*time.Second, "measurement window per shard count for -serve")
		jsonDir    = flag.String("json", "", "write a committable BENCH_<experiment>.json baseline into this directory for each of -serve/-batch/-durable/-fanin run")
		compareDir = flag.String("compare", "", "check fresh -serve/-batch/-durable rows against the BENCH_*.json baselines in this directory; exit 1 on a >25% throughput regression")
	)
	flag.Parse()

	if !*all && !*table1 && !*sweep && !*lowerBound && !*diameter && !*timing && !*windowed && !*durable && !*batch && !*serve && !*faninF && !*storeF {
		flag.Usage()
		os.Exit(2)
	}

	// writeBench emits one committable baseline file per experiment;
	// regressions accumulates -compare failures so every experiment
	// reports before the process exits nonzero.
	writeBench := func(experiment string, doc map[string]any) {
		if *jsonDir == "" {
			return
		}
		doc["experiment"] = experiment
		doc["n"] = *n
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "encoding -json:", err)
			os.Exit(1)
		}
		path := filepath.Join(*jsonDir, "BENCH_"+experiment+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "writing -json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s rows to %s\n", experiment, path)
	}
	var regressions []string

	diskGen := func(s int64) workload.Generator { return workload.Disk(s, geom.Point{}, 1) }
	ellipseGen := func(s int64) workload.Generator {
		return workload.Ellipse(s, 1, 1.0/float64(*r), geom.TwoPi/float64(4**r))
	}

	if *all || *table1 {
		fmt.Println("=== Table 1 (§7) ===")
		secs := experiments.RunTable1(experiments.Table1Config{N: *n, R: *r, Seed: *seed})
		fmt.Print(experiments.FormatTable1(secs))
	}
	if *all || *sweep {
		fmt.Println("=== Error vs r (Theorem 5.4: adaptive O(D/r²) vs uniform Θ(D/r)) ===")
		rs := []int{8, 16, 32, 64, 128}
		fmt.Print(experiments.FormatSweep("uniform-in-disk stream", experiments.ErrorSweep(diskGen, *n, rs, *seed)))
		fmt.Println()
		fmt.Print(experiments.FormatSweep("rotated thin-ellipse stream", experiments.ErrorSweep(ellipseGen, *n, rs, *seed)))
		fmt.Println()
		// The true Θ(D/r) uniform regime: eccentricity tied to r, as in
		// the paper's aspect-ratio-r ellipse.
		scaled := func(s int64, r int) workload.Generator {
			return workload.Ellipse(s, 1, 1.0/float64(r), geom.TwoPi/float64(4*r))
		}
		fmt.Print(experiments.FormatSweep("ellipse with aspect ratio r (paper's regime)",
			experiments.ErrorSweepScaled(scaled, *n, rs, *seed)))
		fmt.Println()
	}
	if *all || *lowerBound {
		fmt.Println("=== Lower bound (§5.4 / Fig. 9) ===")
		fmt.Print(experiments.FormatLowerBound(experiments.LowerBound([]int{8, 16, 32, 64, 128, 256}, *seed)))
		fmt.Println()
	}
	if *all || *diameter {
		fmt.Println("=== Diameter approximation (Lemma 3.1) ===")
		fmt.Print(experiments.FormatDiameter(experiments.DiameterSweep(diskGen, *n, []int{8, 16, 32, 64, 128}, *seed)))
		fmt.Println()
	}
	if *all || *timing {
		fmt.Println("=== Per-point processing cost (§3.1/§5.3) ===")
		fmt.Print(experiments.FormatTiming(experiments.TimeSweep(diskGen, *n, []int{16, 32, 64, 128, 256, 512}, *seed)))
		fmt.Println()
	}
	if *all || *windowed {
		fmt.Println("=== Sliding-window summaries (count windows over a drift-burst stream) ===")
		burstGen := func(s int64) workload.Generator {
			return workload.DriftBurst(s, 1, geom.Pt(0.001, 0), *n/10, *n/200, 25)
		}
		windows := []int{max(1, *n/100), max(1, *n/20), max(1, *n/4)}
		fmt.Print(experiments.FormatWindowed(experiments.WindowedSweep(burstGen, *n, windows, *r, *seed)))
		fmt.Println()
	}
	if *all || *durable {
		fmt.Println("=== Durable ingest (WAL overhead vs in-memory insert) ===")
		rows, err := experiments.DurableSweep(diskGen, *n, []int{64, 256, 1024, 4096}, *r, *seed, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "durable sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatDurable(rows))
		fmt.Println()
		writeBench("durable", map[string]any{"rows": rows})
		if *compareDir != "" {
			regressions = append(regressions, compareDurable(*compareDir, rows)...)
		}
	}
	if *all || *batch {
		fmt.Println("=== Batch ingest (InsertBatch vs Insert, clustered Gaussian stream) ===")
		gaussGen := func(s int64) workload.Generator { return workload.Gaussian(s, geom.Point{}, 1) }
		rows, err := experiments.BatchSweep(gaussGen, *n, []int{64, 256, 1024, 4096}, *r, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "batch sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatBatch(rows))
		fmt.Println()
		writeBench("batch", map[string]any{"rows": rows})
		if *compareDir != "" {
			regressions = append(regressions, compareBatch(*compareDir, rows)...)
		}
	}
	if *all || *serve {
		fmt.Println("=== Serving under mixed load (sharded ingest + epoch-cached queries) ===")
		gaussGen := func(s int64) workload.Generator { return workload.Gaussian(s, geom.Point{}, 1) }
		rows, err := experiments.ServeSweep(gaussGen, *n, []int{1, 2, 4, 8}, 32, 256, 4, 4, *serveDur, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatServe(rows))
		fmt.Println()
		writeBench("serve", map[string]any{"duration": serveDur.String(), "rows": rows})
		if *compareDir != "" {
			regressions = append(regressions, compareServe(*compareDir, rows)...)
		}
	}
	if *all || *faninF {
		fmt.Println("=== Continuous fan-in (aggregate error vs push interval and source count) ===")
		// A pure drift stream (no bursts), so the newest points are always
		// the extreme ones: the stale aggregate lags the drift by however
		// many points each source holds back, which is exactly what the
		// push interval trades away.
		driftGen := func(s int64) workload.Generator {
			return workload.DriftBurst(s, 1, geom.Pt(0.001, 0), *n, 0, 0)
		}
		rows, err := experiments.FanInSweep(driftGen, *n,
			[]int{2, 4, 8}, []int{512, 2048, 8192}, *r, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fanin sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatFanIn(rows))
		fmt.Println()
		// Fidelity-only rows: committed for reviewable error diffs, but
		// -compare has no throughput metric to check here.
		writeBench("fanin", map[string]any{"rows": rows})
	}

	// -store is deliberately not part of -all: at its default scale
	// (a million streams) it dominates the whole run's wall clock.
	if *storeF {
		fmt.Printf("=== Cold-tier storage (%d streams, %d hot, %s backend) ===\n",
			*storeN, *storeHot, *storeBk)
		row, err := experiments.StoreSweep(*storeBk, *storeN, *storeHot, *storePts, *r, *seed, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "store sweep:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.StoreHeader)
		fmt.Println(row.String())
		fmt.Println()
		writeBench("store", map[string]any{"rows": []*experiments.StorePoint{row}})
		if *compareDir != "" {
			regressions = append(regressions, compareStore(*compareDir, row)...)
		}
	}

	if *compareDir != "" {
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "PERF REGRESSION vs baselines in %s:\n", *compareDir)
			for _, reg := range regressions {
				fmt.Fprintln(os.Stderr, "  "+reg)
			}
			os.Exit(1)
		}
		fmt.Println("no throughput regression vs baselines in", *compareDir)
	}
}

// regressFactor is the tolerated throughput slack vs a committed
// baseline: a fresh run may be up to 25% worse before -compare fails.
// Wide on purpose — these are wall-clock numbers on shared machines, and
// the gate exists to catch real regressions (a lock held across an
// fsync, an O(n) scan on the hot path), not scheduler noise.
const regressFactor = 1.25

// appendRegression compares one metric against its baseline and appends
// a failure line when it lands outside the tolerance. higherBetter
// distinguishes throughput (pt/s, query/s) from cost (ns/pt) metrics.
func appendRegression(regs []string, label string, base, fresh float64, higherBetter bool) []string {
	if base <= 0 {
		return regs
	}
	ratio := fresh / base
	if higherBetter && ratio*regressFactor < 1 {
		return append(regs, fmt.Sprintf("%s: %.4g -> %.4g (%.0f%% of baseline)", label, base, fresh, ratio*100))
	}
	if !higherBetter && ratio > regressFactor {
		return append(regs, fmt.Sprintf("%s: %.4g -> %.4g (%.0f%% of baseline)", label, base, fresh, ratio*100))
	}
	return regs
}

// loadBaseline reads BENCH_<experiment>.json from dir and returns its
// rows, decoded into the experiment's own row type.
func loadBaseline[T any](dir, experiment string) ([]T, error) {
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows []T `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Rows, nil
}

// compareServe checks fresh serving throughput per shard count: both
// the ingest and query rates are higher-is-better.
func compareServe(dir string, fresh []experiments.ServePoint) []string {
	base, err := loadBaseline[experiments.ServePoint](dir, "serve")
	if err != nil {
		return []string{fmt.Sprintf("serve baseline: %v", err)}
	}
	byShards := make(map[int]experiments.ServePoint, len(base))
	for _, b := range base {
		byShards[b.Shards] = b
	}
	var regs []string
	for _, f := range fresh {
		b, ok := byShards[f.Shards]
		if !ok {
			continue
		}
		regs = appendRegression(regs, fmt.Sprintf("serve shards=%d ingest pt/s", f.Shards), b.IngestPtSec, f.IngestPtSec, true)
		regs = appendRegression(regs, fmt.Sprintf("serve shards=%d query/s", f.Shards), b.QueryPerSec, f.QueryPerSec, true)
	}
	return regs
}

// compareBatch checks the batched-ingest cost per batch size: ns/point
// is lower-is-better.
func compareBatch(dir string, fresh []experiments.BatchPoint) []string {
	base, err := loadBaseline[experiments.BatchPoint](dir, "batch")
	if err != nil {
		return []string{fmt.Sprintf("batch baseline: %v", err)}
	}
	byBatch := make(map[int]experiments.BatchPoint, len(base))
	for _, b := range base {
		byBatch[b.Batch] = b
	}
	var regs []string
	for _, f := range fresh {
		b, ok := byBatch[f.Batch]
		if !ok {
			continue
		}
		regs = appendRegression(regs, fmt.Sprintf("batch batch=%d InsertBatch ns/pt", f.Batch), b.BatchNsPt, f.BatchNsPt, false)
	}
	return regs
}

// compareDurable checks WAL-backed ingest cost per (batch size, fsync
// policy) cell: ns/point is lower-is-better.
func compareDurable(dir string, fresh []experiments.DurablePoint) []string {
	base, err := loadBaseline[experiments.DurablePoint](dir, "durable")
	if err != nil {
		return []string{fmt.Sprintf("durable baseline: %v", err)}
	}
	type cell struct {
		batch  int
		policy string
	}
	byCell := make(map[cell]experiments.DurablePoint, len(base))
	for _, b := range base {
		byCell[cell{b.Batch, b.Policy}] = b
	}
	var regs []string
	for _, f := range fresh {
		b, ok := byCell[cell{f.Batch, f.Policy}]
		if !ok {
			continue
		}
		regs = appendRegression(regs, fmt.Sprintf("durable batch=%d fsync=%s WAL ns/pt", f.Batch, f.Policy), b.WalNsPt, f.WalNsPt, false)
	}
	return regs
}

// compareStore checks the cold-tier sweep: throughputs are
// higher-is-better, the per-cold-stream heap footprint lower-is-better.
// Only a baseline row with the same shape (backend, streams, hot,
// points) is comparable.
func compareStore(dir string, fresh *experiments.StorePoint) []string {
	base, err := loadBaseline[experiments.StorePoint](dir, "store")
	if err != nil {
		return []string{fmt.Sprintf("store baseline: %v", err)}
	}
	var regs []string
	for _, b := range base {
		if b.Backend != fresh.Backend || b.Streams != fresh.Streams ||
			b.Hot != fresh.Hot || b.PointsPer != fresh.PointsPer {
			continue
		}
		regs = appendRegression(regs, "store create/s", b.CreatePerSec, fresh.CreatePerSec, true)
		regs = appendRegression(regs, "store hot-point/s", b.HotPtSec, fresh.HotPtSec, true)
		regs = appendRegression(regs, "store B/cold-stream", b.HeapPerCold, fresh.HeapPerCold, false)
	}
	return regs
}
