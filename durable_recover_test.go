package streamhull_test

import (
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/wal"
	"github.com/streamgeom/streamhull/internal/workload"
)

// writeStreamDir builds a durable stream directory by hand — spec meta
// plus logged batches — and returns the reference summary fed the same
// way.
func writeStreamDir(t *testing.T, dir string, spec streamhull.Spec, pts []geom.Point, batch int) streamhull.Summary {
	t.Helper()
	meta, err := store.MetaForSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := streamhull.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i += batch {
		b := pts[i:min(i+batch, len(pts))]
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestRecoverFromWALAllKinds: with the spec in the WAL meta, every
// summary kind recovers, and batch-deterministic kinds recover
// bit-exactly.
func TestRecoverFromWALAllKinds(t *testing.T) {
	pts := workload.Take(workload.Ellipse(31, 1, 0.3, 0.7), 4000)
	specs := []streamhull.Spec{
		{Kind: streamhull.KindAdaptive, R: 16, HeightLimit: 3},
		{Kind: streamhull.KindUniform, R: 12},
		{Kind: streamhull.KindExact},
		{Kind: streamhull.KindPartial, R: 8, TrainN: 1000},
		{Kind: streamhull.KindWindowed, R: 8, Window: "800"},
		{Kind: streamhull.KindPartitioned, R: 8,
			Grid: &streamhull.GridSpec{Cols: 2, Rows: 2, MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}},
		{Kind: streamhull.KindSharded, Shards: 4,
			Inner: &streamhull.Spec{Kind: streamhull.KindAdaptive, R: 16}},
		{Kind: streamhull.KindSharded, Shards: 3,
			Inner: &streamhull.Spec{Kind: streamhull.KindExact}},
	}
	for _, spec := range specs {
		t.Run(string(spec.Kind), func(t *testing.T) {
			dir := t.TempDir()
			ref := writeStreamDir(t, dir, spec, pts, 250)
			rec, err := store.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Spec.Kind != spec.Kind || rec.Points != len(pts) {
				t.Fatalf("recovery = %+v", rec)
			}
			if got := rec.Summary.Spec(); got.Kind != spec.Kind {
				t.Fatalf("recovered summary reports spec %s", got)
			}
			if rec.Summary.N() != ref.N() {
				t.Fatalf("recovered n = %d, want %d", rec.Summary.N(), ref.N())
			}
			got, want := rec.Summary.Hull().Vertices(), ref.Hull().Vertices()
			if len(got) != len(want) {
				t.Fatalf("recovered hull has %d vertices, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("vertex %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWindowedStateRoundTrip: MarshalState → NewWindowedFromState must
// reproduce a count window bit-exactly, including its future behavior
// (more inserts land identically).
func TestWindowedStateRoundTrip(t *testing.T) {
	spec := streamhull.Spec{Kind: streamhull.KindWindowed, R: 8, Window: "500"}
	sum, err := streamhull.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := sum.(*streamhull.WindowedHull)
	pts := workload.Take(workload.DriftBurst(37, 1, geom.Pt(0.005, 0), 400, 50, 8), 3000)
	for i := 0; i < 2000; i += 125 {
		if _, err := w.InsertBatch(pts[i : i+125]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := streamhull.NewWindowedFromState(spec, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != w.N() || back.WindowCount() != w.WindowCount() || back.Buckets() != w.Buckets() {
		t.Fatalf("restored n=%d wc=%d buckets=%d, want n=%d wc=%d buckets=%d",
			back.N(), back.WindowCount(), back.Buckets(), w.N(), w.WindowCount(), w.Buckets())
	}
	if back.SampleSize() != w.SampleSize() {
		t.Fatalf("restored SampleSize = %d, want %d", back.SampleSize(), w.SampleSize())
	}
	// Keep streaming into both: the restored window must stay in
	// lockstep through seals, merges and expiry.
	for i := 2000; i < 3000; i += 125 {
		if _, err := w.InsertBatch(pts[i : i+125]); err != nil {
			t.Fatal(err)
		}
		if _, err := back.InsertBatch(pts[i : i+125]); err != nil {
			t.Fatal(err)
		}
	}
	got, want := back.Hull().Vertices(), w.Hull().Vertices()
	if len(got) != len(want) {
		t.Fatalf("hulls diverged: %d vs %d vertices", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d = %v, want %v", i, got[i], want[i])
		}
	}
	if back.WindowCount() != w.WindowCount() {
		t.Fatalf("coverage diverged: %d vs %d", back.WindowCount(), w.WindowCount())
	}
}

// TestWindowedStateRejectsGarbage: state restore must error, not panic,
// on corrupt payloads and mismatched specs.
func TestWindowedStateRejectsGarbage(t *testing.T) {
	spec := streamhull.Spec{Kind: streamhull.KindWindowed, R: 8, Window: "100"}
	w := streamhull.NewWindowedByCount(8, 100)
	for i := 0; i < 300; i++ {
		_ = w.Insert(geom.Pt(float64(i), float64(i%7)))
	}
	data, err := w.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamhull.NewWindowedFromState(spec, []byte(`{"format":"nope"}`), nil); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := streamhull.NewWindowedFromState(spec, []byte("not json"), nil); err == nil {
		t.Error("non-JSON accepted")
	}
	if _, err := streamhull.NewWindowedFromState(
		streamhull.Spec{Kind: streamhull.KindAdaptive, R: 8}, data, nil); err == nil {
		t.Error("non-windowed spec accepted")
	}
	// Truncated/corrupted bucket structure.
	corrupt := []byte(`{"format":"streamhull-windowed-state-v1","state":{"n":-5,"buckets":[]}}`)
	if _, err := streamhull.NewWindowedFromState(spec, corrupt, nil); err == nil {
		t.Error("negative counters accepted")
	}
}

// TestTimeWindowedStatePreservesTimestamps: a restored time window keeps
// its buckets' original arrival times, so age-out after recovery is
// correct.
func TestTimeWindowedStatePreservesTimestamps(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	w := streamhull.NewWindowedByTime(8, time.Minute, clock)
	for i := 0; i < 200; i++ {
		_ = w.Insert(geom.Pt(float64(i%13), float64(i%7)))
		now = now.Add(100 * time.Millisecond)
	}
	data, err := w.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := streamhull.NewWindowedFromState(w.Spec(), data, clock)
	if err != nil {
		t.Fatal(err)
	}
	if back.WindowCount() != w.WindowCount() {
		t.Fatalf("restored coverage %d, want %d", back.WindowCount(), w.WindowCount())
	}
	// Advance past the window: everything must age out of the restored
	// copy exactly as it would have from the original.
	now = now.Add(2 * time.Minute)
	if got := back.WindowCount(); got != 0 {
		t.Fatalf("after window elapsed, restored coverage = %d, want 0", got)
	}
}
