package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

func adaptiveSpec(r int) streamhull.Spec {
	return streamhull.Spec{Kind: streamhull.KindAdaptive, R: r}
}

// ringPoints puts n points on a circle, deterministic and hull-rich.
func ringPoints(n int, scale float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(scale*math.Cos(a), scale*math.Sin(a))
	}
	return pts
}

// sameState compares two summaries by served answers: point count and
// hull vertices, which is what "bit-exact recovery" means to a client.
func sameState(t *testing.T, got, want streamhull.Summary) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	g, w := got.Hull().Vertices(), want.Hull().Vertices()
	if len(g) != len(w) {
		t.Fatalf("hull has %d vertices, want %d\n got: %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("hull vertex %d = %v, want %v", i, g[i], w[i])
		}
	}
}

// replayClean builds the expected summary the same way the store
// should: straight InsertBatch of every batch in order.
func replayClean(t *testing.T, spec streamhull.Spec, batches ...[]geom.Point) streamhull.Summary {
	t.Helper()
	sum, err := streamhull.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, b := range batches {
		if _, err := sum.InsertBatch(b); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
	return sum
}

// mustOpen opens the durable store at dir without background fsyncs.
func mustOpen(t *testing.T, dir string) Store {
	t.Helper()
	s, err := Open("", dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestBackendRoundTrip drives the full lifecycle through both stores:
// create, append, load, checkpoint, append a tail, close the appender
// (eviction), reopen, append more, delete.
func TestBackendRoundTrip(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"fswal", func(t *testing.T) Store { return mustOpen(t, t.TempDir()) }},
		{"memory", func(*testing.T) Store { return NewMemory() }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.open(t)
			defer s.Close()

			spec := adaptiveSpec(16)
			const key = "acme/ring"
			b1, b2, b3 := ringPoints(100, 1), ringPoints(50, 2), ringPoints(25, 3)

			app, err := s.Create(key, spec)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if _, err := s.Create(key, spec); err == nil {
				t.Fatal("Create of an existing key succeeded")
			}
			if err := app.Append(b1); err != nil {
				t.Fatalf("Append: %v", err)
			}

			rec, err := s.Load(key)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			sameState(t, rec.Summary, replayClean(t, spec, b1))
			if rec.HasCheckpoint || rec.Points != 100 {
				t.Fatalf("Load = {ckpt:%v points:%d}, want {false 100}", rec.HasCheckpoint, rec.Points)
			}

			// Checkpoint at the served state, then append a tail.
			sn := rec.Summary.(streamhull.Snapshotter).Snapshot()
			data, err := sn.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			if err := app.Checkpoint(data); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if err := app.Append(b2); err != nil {
				t.Fatalf("Append: %v", err)
			}
			rec, err = s.Load(key)
			if err != nil {
				t.Fatalf("Load after checkpoint: %v", err)
			}
			if !rec.HasCheckpoint || rec.Points != 50 {
				t.Fatalf("Load = {ckpt:%v points:%d}, want {true 50}", rec.HasCheckpoint, rec.Points)
			}
			base, err := streamhull.SummaryFromCheckpoint(spec, data)
			if err != nil {
				t.Fatalf("SummaryFromCheckpoint: %v", err)
			}
			if _, err := base.InsertBatch(b2); err != nil {
				t.Fatal(err)
			}
			sameState(t, rec.Summary, base)

			// Evict: close the appender, reopen, keep appending.
			if err := app.Close(); err != nil {
				t.Fatalf("appender Close: %v", err)
			}
			app, err = s.Open(key)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := app.Append(b3); err != nil {
				t.Fatalf("Append after reopen: %v", err)
			}
			rec, err = s.Load(key)
			if err != nil {
				t.Fatalf("Load after reopen: %v", err)
			}
			if rec.Points != 75 {
				t.Fatalf("replayed %d points, want 75", rec.Points)
			}

			entries, err := s.List()
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if len(entries) != 1 || entries[0].Key != key || entries[0].Tenant != "acme" {
				t.Fatalf("List = %+v", entries)
			}
			if entries[0].Spec.Kind != streamhull.KindAdaptive || entries[0].Spec.R != 16 {
				t.Fatalf("listed spec = %+v", entries[0].Spec)
			}

			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(key); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := s.Load(key); err == nil {
				t.Fatal("Load after Delete succeeded")
			}
			if err := s.Delete(key); err == nil {
				t.Fatal("second Delete succeeded")
			}
		})
	}
}

// TestBackendReopen closes the durable store and reopens it: the
// directory scan must find every stream and rebuild identical state.
// The memory store has nothing to reopen.
func TestBackendReopen(t *testing.T) {
	t.Run("fswal", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		spec := adaptiveSpec(16)

		want := make(map[string]streamhull.Summary)
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("t%d/s-%d", i%2, i)
			app, err := s.Create(key, spec)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			b1, b2 := ringPoints(40+i, float64(i+1)), ringPoints(30, float64(i+2))
			if err := app.Append(b1); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 { // checkpoint some, not others
				rec, err := s.Load(key)
				if err != nil {
					t.Fatal(err)
				}
				data, err := rec.Summary.(streamhull.Snapshotter).Snapshot().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := app.Checkpoint(data); err != nil {
					t.Fatal(err)
				}
			}
			if err := app.Append(b2); err != nil {
				t.Fatal(err)
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := s.Load(key)
			if err != nil {
				t.Fatal(err)
			}
			want[key] = rec.Summary
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s2 := mustOpen(t, dir)
		defer s2.Close()
		entries, err := s2.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(want) {
			t.Fatalf("List found %d streams, want %d", len(entries), len(want))
		}
		for _, e := range entries {
			rec, err := s2.Load(e.Key)
			if err != nil {
				t.Fatalf("Load(%s): %v", e.Key, err)
			}
			sameState(t, rec.Summary, want[e.Key])
		}
	})
}

// TestFSWALOpensLegacyLayout builds a stream directory exactly the way
// the pre-store server did — wal.SaveMeta + wal.Open in a
// EncodeDir-named subdirectory — and checks the fswal backend serves
// it unchanged.
func TestFSWALOpensLegacyLayout(t *testing.T) {
	root := t.TempDir()
	spec := adaptiveSpec(16)
	meta, err := streamhull.MetaForSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := "tenant a/legacy stream"
	dir := filepath.Join(root, EncodeDir(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	pts := ringPoints(120, 3)
	if err := l.Append(pts); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, root)
	defer s.Close()
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != key || entries[0].Tenant != "tenant a" {
		t.Fatalf("List = %+v", entries)
	}
	rec, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, rec.Summary, replayClean(t, spec, pts))
}

// TestBackendMarkers plants the marker the removed muxwal backend
// left in its data directories: Open must refuse the directory and
// name muxwal, rather than serve it as an empty store.
// Unknown backend names are refused too.
func TestBackendMarkers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, muxMarker), []byte("SHMUXDIR1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("", dir, Options{}); err == nil || !strings.Contains(err.Error(), "muxwal") {
		t.Fatalf("opened a muxwal dir: %v", err)
	}
	for _, backend := range []string{"muxwal", "memory", "bogus"} {
		if _, err := Open(backend, t.TempDir(), Options{}); err == nil {
			t.Fatalf("Open accepted backend %q", backend)
		}
	}
}

func TestEncodeDirRoundTrip(t *testing.T) {
	for _, key := range []string{
		"plain", "t1/with space", "a.b..", "%", "ünïcode/☃", "",
		"..", ".hidden", "a/b", "hé%llo", "%41", "sp ace",
	} {
		enc := EncodeDir(key)
		if strings.ContainsAny(enc, "/\\. ") {
			t.Fatalf("EncodeDir(%q) = %q contains unsafe characters", key, enc)
		}
		dec, ok := DecodeDir(enc)
		if !ok || dec != key {
			t.Fatalf("DecodeDir(EncodeDir(%q)) = %q, %v", key, dec, ok)
		}
	}
	if _, ok := DecodeDir("has space"); ok {
		t.Fatal("DecodeDir accepted a name this package never writes")
	}
	if _, ok := DecodeDir("bad%zz"); ok {
		t.Fatal("DecodeDir accepted an invalid escape")
	}
}
