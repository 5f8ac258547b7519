package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/streamgeom/streamhull/geom"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		ok      bool
	}{
		{10, 0, false},
		{11, 0, true},   // the only rank with 10 beyond
		{100, 89, true}, // p90: p99 would leave 1 beyond
		{1000, 989, true},
		{1100, 1088, true},    // p99 itself, 11 beyond
		{100000, 98999, true}, // p99
	} {
		rank, ok := tailRank(tc.n)
		if ok != tc.ok || (ok && rank != tc.rank) {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", tc.n, rank, ok, tc.rank, tc.ok)
		}
		if ok && tc.n-1-rank < minBeyond {
			t.Errorf("tailRank(%d) = %d leaves %d samples beyond", tc.n, rank, tc.n-1-rank)
		}
	}
	samples := make([]float64, 200)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i)
	}
	q1, med, tail, err := summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Value != 49 || med.Value != 99 || tail.Value != 189 || tail.Pct != 95 {
		t.Errorf("summarize(0..199) = quartile %v, median %v, tail %v at p%v; want 49, 99, 189 at p95", q1.Value, med.Value, tail.Value, tail.Pct)
	}
}

// fakeClock advances only when the code under test sleeps or an
// operation spends time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: func(d time.Duration) { f.t = f.t.Add(d) }}
}

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	begin := fc.t
	const interval = 10 * time.Millisecond
	// Operation 0 stalls for 35ms; every later one takes 1ms.
	cost := func(i int) time.Duration {
		if i == 0 {
			return 35 * time.Millisecond
		}
		return time.Millisecond
	}
	var tl tally
	openLoop(fc.clock(), begin, begin, begin.Add(60*time.Millisecond), interval, &tl, func(i int) (opKind, int, error) {
		fc.t = fc.t.Add(cost(i))
		return opWrite, 1, nil
	})
	if len(tl.writes) != 6 {
		t.Fatalf("sent %d operations, want 6 (one per 10ms slot in 60ms)", len(tl.writes))
	}
	// Op 1 was due at 10ms but could only go at 35ms: its latency runs
	// from 10ms, so it carries the stall it waited behind.
	wantLat := []float64{35, 26, 17, 8, 1, 1}
	wantLate := []float64{0, 25, 16, 7, 0, 0}
	for i, s := range tl.writes {
		if got := s.ms(); math.Abs(got-wantLat[i]) > 1e-9 {
			t.Errorf("op %d latency %vms, want %vms", i, got, wantLat[i])
		}
		if math.Abs(tl.lateMS[i]-wantLate[i]) > 1e-9 {
			t.Errorf("op %d late %vms, want %vms", i, tl.lateMS[i], wantLate[i])
		}
		if want := begin.Add(time.Duration(i) * interval); !s.start.Equal(want) {
			t.Errorf("op %d timed from %v, want its scheduled %v", i, s.start.Sub(begin), want.Sub(begin))
		}
	}
}

func TestClosedLoopSkipsWarmupAndCountsFailures(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	begin := fc.t
	var tl tally
	closedLoop(fc.clock(), begin.Add(20*time.Millisecond), begin.Add(100*time.Millisecond), &tl, func(i int) (opKind, int, error) {
		fc.t = fc.t.Add(10 * time.Millisecond)
		if i == 5 {
			return opWrite, 0, os.ErrDeadlineExceeded
		}
		return opWrite, 4, nil
	})
	// Ten 10ms operations fit; the first two are warm-up.
	if tl.attempted != 8 || tl.failed != 1 || len(tl.writes) != 7 {
		t.Fatalf("attempted %d, failed %d, recorded %d; want 8, 1, 7", tl.attempted, tl.failed, len(tl.writes))
	}
	if tl.firstErr == nil {
		t.Error("the failure was not kept")
	}
}

func TestChunkedFiguresIgnoreOneStall(t *testing.T) {
	base := time.Unix(1000, 0)
	var ss []sample
	for i := range 10 * chunkMin {
		lat := time.Millisecond
		if i < chunkMin && i%50 == 0 {
			lat = time.Second // a stall confined to the first chunk
		}
		start := base.Add(time.Duration(i) * time.Millisecond)
		ss = append(ss, sample{start: start, done: start.Add(lat), pts: 2})
	}
	p25, p50, tail, chunks, err := chunkedLatency(ss)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != maxChunks || p25.Value != 1 || p50.Value != 1 || tail.Value != 1 {
		t.Errorf("chunks %d, p25 %vms, p50 %vms, tail %vms; want %d, 1, 1, 1", chunks, p25.Value, p50.Value, tail.Value, maxChunks)
	}
	rate, total, _ := windowRate(ss, func(s sample) float64 { return float64(s.pts) })
	if total != float64(2*len(ss)) || math.Abs(rate-2000) > 50 {
		t.Errorf("rate %v pt/s over %v points; want about 2000", rate, total)
	}
}

func TestZipfPickerIsSeededSkewedAndOwned(t *testing.T) {
	owned := []int{1, 3, 5, 7, 9, 11, 13, 15}
	a, b := newZipfPicker(7, owned, durableZipfS, 1), newZipfPicker(7, owned, durableZipfS, 1)
	counts := map[int]int{}
	for range 20000 {
		x := a.next()
		if y := b.next(); x != y {
			t.Fatal("the same seed chose different streams")
		}
		if !slices.Contains(owned, x) {
			t.Fatalf("chose stream %d, which the connection does not own", x)
		}
		counts[x]++
	}
	top, bottom := counts[a.order[0]], counts[a.order[len(owned)-1]]
	if top < 4*bottom {
		t.Errorf("most popular stream chosen %d times, least %d: not skewed", top, bottom)
	}
	c := newZipfPicker(8, owned, durableZipfS, 1)
	if slices.Equal(a.order, c.order) {
		t.Error("another seed ranked the streams identically")
	}
}

func TestPointsJSONRoundTripsExactly(t *testing.T) {
	pts := []geom.Point{{X: 0.1, Y: -1e-300}, {X: math.Pi * 1e10, Y: 1.0 / 3}, {X: -0, Y: 5e-324}}
	var body struct{ Points [][2]float64 }
	if err := json.Unmarshal(appendPointsJSON(nil, pts), &body); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if body.Points[i] != [2]float64{p.X, p.Y} {
			t.Errorf("point %d decoded as %v, sent %v", i, body.Points[i], p)
		}
	}
}

func TestScrapeParsing(t *testing.T) {
	m, err := parseMetrics([]byte(`# HELP x
streamhull_http_requests_total{endpoint="points",code="200"} 7
streamhull_http_requests_total{endpoint="points",code="409"} 2
streamhull_http_requests_total{endpoint="hull",code="404"} 1
streamhull_querycache_reads_total 30
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.non2xx(); got != 3 {
		t.Errorf("non2xx = %v, want 3", got)
	}
	if got := m.sum("streamhull_http_requests_total", `endpoint="points"`); got != 9 {
		t.Errorf("points requests = %v, want 9", got)
	}
	if got := m.sum("streamhull_querycache_reads_total"); got != 30 {
		t.Errorf("reads = %v, want 30", got)
	}
}

func TestStatCPUParsing(t *testing.T) {
	// A command name with a space and a parenthesis, utime 250 and stime
	// 37 ticks.
	line := "4242 (hull server) x) S 1 4242 4242 0 -1 4194560 812 0 0 0 250 37 0 0 20 0 7 0 1234 0 0\n"
	got, err := statCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{user: 2500 * time.Millisecond, sys: 370 * time.Millisecond}); got != want {
		t.Errorf("statCPU = %+v, want %+v", got, want)
	}
	if _, err := statCPU([]byte("4242 (short) S 1 2 3")); err == nil {
		t.Error("statCPU accepted a truncated line")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step, and checks that every listed workload exists.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not run", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, code []metricDef) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(code))
			return
		}
		for i, m := range listed {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}

// TestWorkloadsSmoke runs every workload briefly, end to end against a
// freshly built hullserver and traced in-process, and checks that each
// run is correct and reports every contract metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hullserver and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hullserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hullserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hullserver: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w, seed: 3, seconds: 500 * time.Millisecond, serverBin: bin, workdir: dir}
			for _, traced := range []bool{false, true} {
				run, want := runServed, e2eMetrics
				if traced {
					run, want = runTraced, layerMetrics
				}
				rep, err := run(o)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.correct() {
					t.Fatalf("traced=%v: incorrect: %v", traced, rep.problems)
				}
				for _, m := range want {
					if _, ok := rep.values[m.name]; !ok {
						t.Errorf("traced=%v: no %s", traced, m.name)
					}
				}
			}
		})
	}
}
