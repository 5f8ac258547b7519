package main

import (
	"flag"
	"io"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

func TestParsePoint(t *testing.T) {
	cases := []struct {
		in   string
		want geom.Point
		ok   bool
	}{
		{"1,2", geom.Pt(1, 2), true},
		{" 1.5 , -2.25 ", geom.Pt(1.5, -2.25), true},
		{"1e3,-1e-3", geom.Pt(1000, -0.001), true},
		{"1", geom.Point{}, false},
		{"1,2,3", geom.Point{}, false},
		{"a,2", geom.Point{}, false},
		{"1,b", geom.Point{}, false},
		{"", geom.Point{}, false},
	}
	for _, c := range cases {
		got, err := parsePoint(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parsePoint(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !got.Eq(c.want) {
			t.Errorf("parsePoint(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestReplaySummary writes a checkpoint + tail through the wal package
// and checks the replay subcommand's core rebuilds the same stream.
func TestReplaySummary(t *testing.T) {
	dir := t.TempDir()
	if err := wal.SaveMeta(dir, wal.Meta{Algo: "adaptive", R: 16}); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ref := streamhull.NewAdaptive(16)
	batch := func(start int) []geom.Point {
		pts := make([]geom.Point, 100)
		for i := range pts {
			x := float64(start+i) / 50
			pts[i] = geom.Pt(x, x*x-3*x)
		}
		return pts
	}
	for b := 0; b < 5; b++ {
		pts := batch(b * 100)
		if err := l.Append(pts); err != nil {
			t.Fatal(err)
		}
		// Mirror recovery's batch-at-a-time replay so the reference state
		// matches bit-for-bit.
		if _, err := ref.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint mid-stream, exactly as the server does: seal the
	// snapshot and re-base the reference on it.
	snap := ref.Snapshot()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	restored, err := streamhull.SummaryFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	ref = restored.(*streamhull.AdaptiveHull)
	tail := batch(500)
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InsertBatch(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := replaySummary(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasCheckpoint || rec.Points != 100 || rec.Torn {
		t.Fatalf("replay info = %+v, want checkpoint + 100 tail points", rec)
	}
	sum := rec.Summary
	if sum.N() != ref.N() {
		t.Fatalf("replayed n = %d, want %d", sum.N(), ref.N())
	}
	got, want := sum.Hull().Vertices(), ref.Hull().Vertices()
	if len(got) != len(want) {
		t.Fatalf("replayed hull has %d vertices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReplaySummaryRejectsNonStreamDir(t *testing.T) {
	if _, err := replaySummary(t.TempDir()); err == nil {
		t.Fatal("replay of an empty directory should fail (no meta)")
	}
}

// TestNewSummary: -spec is the one way to name the summary. Absent, it
// is the adaptive r=32 default; present, it must parse and validate as
// a spec, and every accepted spec builds.
func TestNewSummary(t *testing.T) {
	cases := []struct {
		args []string
		want string // the resulting spec; "" = the command line is rejected
	}{
		{nil, `{"kind":"adaptive","r":32}`},
		{[]string{"-spec", `{"kind":"uniform","r":16}`}, `{"kind":"uniform","r":16}`},
		{[]string{"-spec", `{"kind":"exact"}`}, `{"kind":"exact"}`},
		{[]string{"-spec", `{"kind":"windowed","r":8,"window":"100"}`}, `{"kind":"windowed","r":8,"window":"100"}`},
		{[]string{"-spec", `{"kind":"windowed","r":8,"window":"30s"}`}, `{"kind":"windowed","r":8,"window":"30s"}`},
		{[]string{"-spec", `{"kind":"partial","r":8,"train_n":50}`}, `{"kind":"partial","r":8,"train_n":50}`},
		{[]string{"-spec", `{"kind":"partitioned","r":8,"grid":{"cols":2,"rows":2,"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`},
			`{"kind":"partitioned","r":8,"grid":{"cols":2,"rows":2,"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`},
		{[]string{"-spec", `{"kind":"sharded","shards":4,"inner":{"kind":"adaptive","r":16}}`},
			`{"kind":"sharded","shards":4,"inner":{"kind":"adaptive","r":16}}`},
		// Fan-in aggregates are constructible (to inspect their merge
		// behavior offline) but reject stdin ingest.
		{[]string{"-spec", `{"kind":"fanin","r":16}`}, `{"kind":"fanin","r":16}`},
		{[]string{"-spec", `{"kind":"adaptive"}`}, ""},
		{[]string{"-spec", `{"kind":"windowed","r":8,"window":"0"}`}, ""},
		{[]string{"-spec", `{"kind":"windowed","r":8,"window":"soon"}`}, ""},
		{[]string{"-spec", `{"kind":"uniform","r":16,"window":"1000"}`}, ""},
		{[]string{"-spec", `{"kind":"sharded","shards":4,"inner":{"kind":"windowed","r":8,"window":"100"}}`}, ""},
		{[]string{"-spec", `{"kind":"nope","r":8}`}, ""},
		{[]string{"-spec", `not json`}, ""},
		{[]string{"-spec", ``}, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("hullcli", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec := defaultSpec()
		fs.Var(spec, "spec", "")
		err := fs.Parse(c.args)
		if (err == nil) != (c.want != "") {
			t.Errorf("%q: parse error = %v, want ok=%v", c.args, err, c.want != "")
			continue
		}
		if err != nil {
			continue
		}
		if got := spec.String(); got != c.want {
			t.Errorf("%q: spec = %s, want %s", c.args, got, c.want)
		}
		if sum := spec.summary(); sum.Spec().String() != c.want {
			t.Errorf("%q: built summary reports %s", c.args, sum.Spec())
		}
	}
}
