package streamhull_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// batches cuts a stream into fixed-size batches.
func batches(pts []geom.Point, size int) [][]geom.Point {
	var out [][]geom.Point
	for i := 0; i < len(pts); i += size {
		out = append(out, pts[i:min(i+size, len(pts))])
	}
	return out
}

// TestInsertBatchMatchesInsert: for every kind, batch ingest must agree
// with per-point ingest on N and produce a hull within the summary's
// error guarantee of the per-point hull (adaptive prefiltering may pick
// a different — equally valid — sample; uniform and exact must agree
// exactly).
func TestInsertBatchMatchesInsert(t *testing.T) {
	pts := workload.Take(workload.Ellipse(11, 1, 0.25, 0.3), 20000)
	specs := []streamhull.Spec{
		{Kind: streamhull.KindAdaptive, R: 16},
		{Kind: streamhull.KindUniform, R: 16},
		{Kind: streamhull.KindExact},
		{Kind: streamhull.KindPartial, R: 8, TrainN: 5000},
		{Kind: streamhull.KindWindowed, R: 8, Window: "4000"},
		{Kind: streamhull.KindPartitioned, R: 8,
			Grid: &streamhull.GridSpec{Cols: 2, Rows: 2, MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}},
	}
	for _, spec := range specs {
		t.Run(string(spec.Kind), func(t *testing.T) {
			one, err := streamhull.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := streamhull.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if err := one.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range batches(pts, 256) {
				if n, err := bat.InsertBatch(b); err != nil || n != len(b) {
					t.Fatalf("InsertBatch = (%d, %v)", n, err)
				}
			}
			if one.N() != bat.N() {
				t.Fatalf("N: per-point %d vs batch %d", one.N(), bat.N())
			}
			hOne, hBat := one.Hull(), bat.Hull()
			switch spec.Kind {
			case streamhull.KindUniform, streamhull.KindExact:
				// Running extrema / exact hulls cannot depend on batching.
				a, b := hOne.Vertices(), hBat.Vertices()
				if len(a) != len(b) {
					t.Fatalf("hull sizes %d vs %d", len(a), len(b))
				}
				for i := range a {
					if !a[i].Eq(b[i]) {
						t.Fatalf("vertex %d: %v vs %v", i, a[i], b[i])
					}
				}
			default:
				// Sampled hulls: both must cover each other within the
				// shared error budget (generous envelope).
				d, _ := hOne.Diameter()
				tol := 16 * d / float64(max(spec.R, 4))
				for _, v := range hOne.Vertices() {
					if dist := hBat.DistToPoint(v); dist > tol {
						t.Fatalf("batch hull misses per-point vertex %v by %g (tol %g)", v, dist, tol)
					}
				}
				for _, v := range hBat.Vertices() {
					if dist := hOne.DistToPoint(v); dist > tol {
						t.Fatalf("per-point hull misses batch vertex %v by %g (tol %g)", v, dist, tol)
					}
				}
			}
		})
	}
}

// TestInsertBatchDeterministic: identical batch sequences must produce
// bit-identical summaries — the property WAL replay recovery rests on.
func TestInsertBatchDeterministic(t *testing.T) {
	pts := workload.Take(workload.DriftBurst(13, 1, geom.Pt(0.001, 0), 5000, 250, 10), 30000)
	for _, spec := range []streamhull.Spec{
		{Kind: streamhull.KindAdaptive, R: 16},
		{Kind: streamhull.KindWindowed, R: 8, Window: "2000"},
		{Kind: streamhull.KindPartitioned, R: 8,
			Grid: &streamhull.GridSpec{Cols: 3, Rows: 1, MinX: -5, MinY: -5, MaxX: 40, MaxY: 5}},
	} {
		a, err := streamhull.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := streamhull.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches(pts, 777) {
			if _, err := a.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := b.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		va, vb := a.Hull().Vertices(), b.Hull().Vertices()
		if len(va) != len(vb) {
			t.Fatalf("%s: hull sizes %d vs %d", spec.Kind, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: vertex %d differs: %v vs %v", spec.Kind, i, va[i], vb[i])
			}
		}
	}
}

// TestInsertBatchAtomic: a batch containing one bad point must change
// nothing — not even the stream count.
func TestInsertBatchAtomic(t *testing.T) {
	for _, spec := range []streamhull.Spec{
		{Kind: streamhull.KindAdaptive, R: 16},
		{Kind: streamhull.KindUniform, R: 16},
		{Kind: streamhull.KindExact},
		{Kind: streamhull.KindPartial, R: 8, TrainN: 10},
		{Kind: streamhull.KindWindowed, R: 8, Window: "100"},
		{Kind: streamhull.KindPartitioned, R: 8,
			Grid: &streamhull.GridSpec{Cols: 2, Rows: 2, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
	} {
		sum, err := streamhull.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sum.InsertBatch([]geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.2)}); err != nil {
			t.Fatal(err)
		}
		before := sum.N()
		bad := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(math.NaN(), 0), geom.Pt(0.2, 0.8)}
		if n, err := sum.InsertBatch(bad); err == nil || n != 0 {
			t.Fatalf("%s: bad batch accepted (%d, %v)", spec.Kind, n, err)
		}
		if sum.N() != before {
			t.Fatalf("%s: N moved %d → %d on a rejected batch", spec.Kind, before, sum.N())
		}
		if n, err := sum.InsertBatch(nil); err != nil || n != 0 {
			t.Fatalf("%s: empty batch = (%d, %v)", spec.Kind, n, err)
		}
	}
}

// TestPartitionedConcurrentInsertBatch drives parallel batch ingest into
// a grid-partitioned summary from many goroutines (run under -race):
// per-region locks must keep every point and region hull consistent.
func TestPartitionedConcurrentInsertBatch(t *testing.T) {
	spec := streamhull.Spec{Kind: streamhull.KindPartitioned, R: 8,
		Grid: &streamhull.GridSpec{Cols: 4, Rows: 1, MinX: 0, MinY: 0, MaxX: 4, MaxY: 1}}
	sum, err := streamhull.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	part := sum.(*streamhull.Partitioned)

	const (
		workers   = 8
		perWorker = 4000
		batchSize = 250
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker streams into its own column region (w mod 4),
			// plus a shared spill into region 0 to force lock contention.
			cx := float64(w%4) + 0.5
			pts := workload.Take(workload.Disk(int64(100+w), geom.Pt(cx, 0.5), 0.4), perWorker)
			for _, b := range batches(pts, batchSize) {
				if _, err := part.InsertBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := part.N(), workers*perWorker; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	total := 0
	for i := 0; i < part.Regions(); i++ {
		total += part.RegionN(i)
		if part.RegionN(i) > 0 && part.RegionHull(i).IsEmpty() {
			t.Fatalf("region %d has %d points but an empty hull", i, part.RegionN(i))
		}
	}
	if total != workers*perWorker {
		t.Fatalf("region Ns sum to %d, want %d", total, workers*perWorker)
	}
	if part.Hull().IsEmpty() {
		t.Fatal("empty global hull")
	}
}

// BenchmarkInsertBatch is the acceptance benchmark of the v2 API:
// hull-prefiltered InsertBatch against per-point Insert at the server's
// typical 256-point batch shape, on a clustered (Gaussian) workload
// where most of every batch is interior.
func BenchmarkInsertBatch(b *testing.B) {
	const batchSize = 256
	pts := workload.Take(workload.Gaussian(17, geom.Point{}, 1), 100000)
	bs := batches(pts, batchSize)

	for _, r := range []int{16, 64} {
		b.Run(fmt.Sprintf("PerPoint/r=%d", r), func(b *testing.B) {
			s := streamhull.NewAdaptive(r)
			b.SetBytes(batchSize * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range bs[i%len(bs)] {
					_ = s.Insert(p)
				}
			}
		})
		b.Run(fmt.Sprintf("Batch/r=%d", r), func(b *testing.B) {
			s := streamhull.NewAdaptive(r)
			b.SetBytes(batchSize * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = s.InsertBatch(bs[i%len(bs)])
			}
		})
	}
	b.Run("Windowed/PerPoint", func(b *testing.B) {
		s := streamhull.NewWindowedByCount(16, 10000)
		b.SetBytes(batchSize * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range bs[i%len(bs)] {
				_ = s.Insert(p)
			}
		}
	})
	b.Run("Windowed/Batch", func(b *testing.B) {
		s := streamhull.NewWindowedByCount(16, 10000)
		b.SetBytes(batchSize * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = s.InsertBatch(bs[i%len(bs)])
		}
	})
}

// TestObservedBatchBitExact pins the contract of the traced batch path:
// the observer sees only timings, so a batch inserted with a recording
// observer leaves the summary bit-identical to the same batch inserted
// untraced — the property WAL replay of traced ingest depends on — and
// each batch reports exactly one prefilter and one insert stage.
func TestObservedBatchBitExact(t *testing.T) {
	pts := workload.Take(workload.Ellipse(7, 1, 0.5, 0.2), 4000)
	plain := streamhull.NewAdaptive(16)
	observed := streamhull.NewAdaptive(16)
	stages := map[string]int{}
	record := func(stage string, d time.Duration) {
		stages[stage]++
		if d < 0 {
			t.Errorf("stage %q: negative duration %v", stage, d)
		}
	}
	bs := batches(pts, 500)
	for _, b := range bs {
		if _, err := plain.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := observed.InsertBatchObserved(b, record); err != nil {
			t.Fatal(err)
		}
	}
	if len(stages) != 2 || stages["prefilter"] != len(bs) || stages["insert"] != len(bs) {
		t.Errorf("stage observations = %v, want %d prefilter and %d insert", stages, len(bs), len(bs))
	}
	if got, want := observed.N(), plain.N(); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	a, err := plain.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := observed.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("traced and untraced batches produced different snapshots")
	}
}
