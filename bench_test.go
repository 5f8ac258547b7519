// Benchmarks regenerating the paper's evaluation artifacts. Each
// Benchmark maps to a table or figure of Hershberger–Suri (see DESIGN.md
// §3 for the index):
//
//   - BenchmarkTable1/...       — insertion throughput on the Table 1
//     workloads for each compared summary (disk, rotated square, rotated
//     ellipse, changing ellipse × uniform/adaptive/partial);
//   - BenchmarkPerPoint/...     — the §3.1/§5.3 per-point cost as r grows
//     (naive Θ(r) scan vs O(log r) summaries);
//   - BenchmarkErrorAtR/...     — Theorem 5.4's error scaling: the
//     err·r²/D metric is reported per r (flat for adaptive, growing
//     linearly with r for uniform);
//   - BenchmarkLowerBound       — the §5.4 circle construction (Fig. 9);
//   - BenchmarkQueries/...      — the §6 query costs on a summary hull.
//
// Run: go test -bench=. -benchmem
package streamhull_test

import (
	"fmt"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/experiments"
	"github.com/streamgeom/streamhull/internal/wal"
	"github.com/streamgeom/streamhull/internal/workload"
)

const benchR = 16

func benchWorkloads() map[string][]geom.Point {
	theta0 := geom.TwoPi / benchR
	n := 100000
	return map[string][]geom.Point{
		"Disk":     workload.Take(workload.Disk(1, geom.Point{}, 1), n),
		"Square":   workload.Take(workload.Square(2, 1, theta0/4), n),
		"Ellipse":  workload.Take(workload.Ellipse(3, 1, 1.0/benchR, theta0/4), n),
		"Changing": workload.Take(workload.ChangingEllipse(4, n, theta0/4), n),
	}
}

// BenchmarkTable1 measures insertion throughput for every Table 1 cell.
func BenchmarkTable1(b *testing.B) {
	for name, pts := range benchWorkloads() {
		pts := pts
		b.Run(name+"/Uniform", func(b *testing.B) {
			s := streamhull.NewUniform(2 * benchR)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
		b.Run(name+"/Adaptive", func(b *testing.B) {
			s, err := streamhull.New(streamhull.Spec{Kind: streamhull.KindAdaptive, R: benchR, FixedBudget: 2 * benchR})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
		b.Run(name+"/Partial", func(b *testing.B) {
			s := streamhull.NewPartial(benchR, len(pts)/2, 2*benchR)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkPerPoint sweeps r to expose the per-point cost growth of
// §3.1/§5.3: the naive uniform scan is Θ(r) per point while the summaries
// stay near O(log r).
func BenchmarkPerPoint(b *testing.B) {
	pts := workload.Take(workload.Disk(5, geom.Point{}, 1), 100000)
	for _, r := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("Uniform/r=%d", r), func(b *testing.B) {
			s := streamhull.NewUniform(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
		b.Run(fmt.Sprintf("Adaptive/r=%d", r), func(b *testing.B) {
			s := streamhull.NewAdaptive(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkErrorAtR reports the error constant err·r²/D for each r
// (custom metrics, not time): adaptive stays flat (Theorem 5.4) while
// uniform grows linearly in r (Lemma 3.2).
func BenchmarkErrorAtR(b *testing.B) {
	theta0 := geom.TwoPi / benchR
	pts := workload.Take(workload.Ellipse(6, 1, 1.0/benchR, theta0/4), 50000)
	d := 2.0 // stream diameter scale
	for _, r := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var u, a experiments.Metrics
			for i := 0; i < b.N; i++ {
				u = experiments.MeasureUniform(pts, 2*r)
				a = experiments.MeasureAdaptive(pts, r, 2*r)
			}
			rr := float64(r * r)
			b.ReportMetric(u.MaxDistOutside*rr/d, "uniform-err·r²/D")
			b.ReportMetric(a.MaxDistOutside*rr/d, "adaptive-err·r²/D")
		})
	}
}

// BenchmarkLowerBound reproduces the §5.4 construction and reports the
// measured error constant.
func BenchmarkLowerBound(b *testing.B) {
	for _, r := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var pts []experiments.LowerBoundPoint
			for i := 0; i < b.N; i++ {
				pts = experiments.LowerBound([]int{r}, 7)
			}
			b.ReportMetric(pts[0].ErrOverDByR2, "err·r²/D")
		})
	}
}

// BenchmarkQueries measures the §6 query costs on a populated summary.
func BenchmarkQueries(b *testing.B) {
	pts := workload.Take(workload.Ellipse(8, 1, 0.1, 0.3), 100000)
	s := streamhull.NewAdaptive(64)
	for _, p := range pts {
		_ = s.Insert(p)
	}
	other := streamhull.NewAdaptive(64)
	for _, p := range workload.Take(workload.Disk(9, geom.Pt(4, 0), 1), 100000) {
		_ = other.Insert(p)
	}
	hull := s.Hull()
	otherHull := other.Hull()

	b.Run("Hull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Hull()
		}
	})
	b.Run("Diameter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hull.Diameter()
		}
	})
	b.Run("Width", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hull.Width()
		}
	})
	b.Run("Extent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hull.Extent(float64(i))
		}
	})
	b.Run("Contains", func(b *testing.B) {
		q := geom.Pt(0.1, 0.01)
		for i := 0; i < b.N; i++ {
			hull.Contains(q)
		}
	})
	b.Run("MinDistance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			streamhull.MinDistance(hull, otherHull)
		}
	})
	b.Run("SeparatingLine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			streamhull.SeparatingLine(hull, otherHull)
		}
	})
	b.Run("OverlapArea", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			streamhull.OverlapArea(hull, otherHull)
		}
	})
	b.Run("EnclosingCircle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hull.EnclosingCircle()
		}
	})
}

// BenchmarkSnapshot measures snapshot capture and merge (the sensor
// aggregation path).
func BenchmarkSnapshot(b *testing.B) {
	s := streamhull.NewAdaptive(32)
	for _, p := range workload.Take(workload.Gaussian(10, geom.Point{}, 1), 50000) {
		_ = s.Insert(p)
	}
	b.Run("Capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Snapshot()
		}
	})
	snap := s.Snapshot()
	b.Run("Merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = streamhull.MergeSnapshots(32, snap, snap)
		}
	})
}

// BenchmarkWindowed measures the sliding-window subsystem: amortized
// insert cost of count- and time-windowed summaries against the lifetime
// adaptive baseline (the acceptance bar is ~3× on insert), and query
// cost on the folded window hull. The drift-burst workload is the
// windowed stress case: transient bursts a lifetime hull keeps forever.
func BenchmarkWindowed(b *testing.B) {
	pts := workload.Take(workload.DriftBurst(21, 1, geom.Pt(0.001, 0), 10000, 500, 25), 100000)

	b.Run("Insert/Adaptive", func(b *testing.B) {
		s := streamhull.NewAdaptive(benchR)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Insert(pts[i%len(pts)])
		}
	})
	for _, win := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("Insert/Windowed-%d", win), func(b *testing.B) {
			s := streamhull.NewWindowedByCount(benchR, win)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Insert(pts[i%len(pts)])
			}
		})
	}
	b.Run("Insert/WindowedByTime", func(b *testing.B) {
		s := streamhull.NewWindowedByTime(benchR, time.Minute, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Insert(pts[i%len(pts)])
		}
	})

	b.Run("Query/Diameter", func(b *testing.B) {
		s := streamhull.NewWindowedByCount(benchR, 10000)
		for _, p := range pts {
			_ = s.Insert(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = s.Hull().Diameter()
		}
	})
	b.Run("Query/HullAfterInsert", func(b *testing.B) {
		// Worst case: every query re-folds because an insert invalidated
		// the cached hull.
		s := streamhull.NewWindowedByCount(benchR, 10000)
		for _, p := range pts {
			_ = s.Insert(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Insert(pts[i%len(pts)])
			_ = s.Hull()
		}
	})
}

// BenchmarkShardedIngest measures the parallel-ingest fan-out: many
// goroutines pushing clustered 256-point batches into one logical
// stream, at increasing shard counts. Shards=1 is a plain adaptive
// summary (the single-mutex baseline every batch serializes on); wider
// fan-outs deal concurrent batches round-robin across per-shard locks.
// The acceptance bar is ≥2× aggregate throughput at 4 shards.
func BenchmarkShardedIngest(b *testing.B) {
	const batchSize = 256
	pts := workload.Take(workload.Gaussian(30, geom.Point{}, 1), 100000)
	batches := make([][]geom.Point, 0, len(pts)/batchSize)
	for i := 0; i+batchSize <= len(pts); i += batchSize {
		batches = append(batches, pts[i:i+batchSize])
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var s streamhull.Summary
			if shards == 1 {
				s = streamhull.NewAdaptive(32)
			} else {
				var err error
				s, err = streamhull.NewSharded(shards, streamhull.Spec{Kind: streamhull.KindAdaptive, R: 32})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(batchSize * 16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := s.InsertBatch(batches[i%len(batches)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkCachedQuery measures the epoch-cached read path the server
// serves queries from: repeated same-epoch diameter queries against the
// uncached fold-and-calipers the old handler ran per GET. The
// acceptance bar is ≥10× for repeat queries between mutations.
func BenchmarkCachedQuery(b *testing.B) {
	s := streamhull.NewAdaptive(64)
	if _, err := s.InsertBatch(workload.Take(workload.Ellipse(31, 1, 0.2, 0.3), 100000)); err != nil {
		b.Fatal(err)
	}
	b.Run("Uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = s.Hull().Diameter()
		}
	})
	b.Run("Cached", func(b *testing.B) {
		qc := streamhull.NewQueryCache(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = qc.Diameter()
		}
	})
	b.Run("Cached/Invalidated", func(b *testing.B) {
		// Worst case: every query re-materializes because an insert moved
		// the epoch.
		qc := streamhull.NewQueryCache(s)
		pts := workload.Take(workload.Gaussian(32, geom.Point{}, 1), 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Insert(pts[i%len(pts)])
			_, _ = qc.Diameter()
		}
	})
}

// BenchmarkDurableIngest quantifies the WAL overhead of durable ingest
// against the pure in-memory insert path, at the server's default batch
// shape (256-point batches, adaptive r = 32). "WAL/sync=none" and
// "WAL/sync=interval" cost one unsynced write syscall per batch —
// the acceptance bar is ≤ ~2× in-memory; "WAL/sync=always" adds a
// group-commit fsync per batch and is the durability ceiling.
func BenchmarkDurableIngest(b *testing.B) {
	const batchSize = 256
	pts := workload.Take(workload.Gaussian(20, geom.Point{}, 1), 100000)
	batches := make([][]geom.Point, 0, len(pts)/batchSize)
	for i := 0; i+batchSize <= len(pts); i += batchSize {
		batches = append(batches, pts[i:i+batchSize])
	}

	ingest := func(b *testing.B, log *wal.Log) {
		b.Helper()
		s := streamhull.NewAdaptive(32)
		b.SetBytes(batchSize * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := batches[i%len(batches)]
			if log != nil {
				if err := log.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range batch {
				_ = s.Insert(p)
			}
		}
	}

	b.Run("Memory", func(b *testing.B) { ingest(b, nil) })
	for name, sync := range map[string]wal.SyncPolicy{
		"sync=none": wal.SyncNone, "sync=interval": wal.SyncInterval, "sync=always": wal.SyncAlways,
	} {
		b.Run("WAL/"+name, func(b *testing.B) {
			log, err := wal.Open(b.TempDir(), wal.Options{Sync: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			ingest(b, log)
		})
	}
}
