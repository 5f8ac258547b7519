package streamhull

import (
	"strings"
	"testing"
	"time"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// validSpecs is one constructible Spec per kind, shared by the
// construction, round-trip and fuzz-seed tests.
func validSpecs() []Spec {
	return []Spec{
		{Kind: KindAdaptive, R: 16},
		{Kind: KindAdaptive, R: 16, HeightLimit: 2, FixedBudget: 32, BoundedWork: 4},
		{Kind: KindUniform, R: 12},
		{Kind: KindExact},
		{Kind: KindPartial, R: 8, TrainN: 100, FixedBudget: 16},
		{Kind: KindWindowed, R: 8, Window: "500"},
		{Kind: KindWindowed, R: 8, Window: "30s"},
		{Kind: KindPartitioned, R: 8,
			Grid: &GridSpec{Cols: 2, Rows: 3, MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}},
		{Kind: KindSharded, Shards: 4, Inner: &Spec{Kind: KindAdaptive, R: 16}},
		{Kind: KindSharded, Shards: 2, Inner: &Spec{Kind: KindExact}},
		{Kind: KindFanIn, R: 16},
	}
}

// feedSummary ingests pts through the interface: fan-in aggregates are
// fed by snapshot pushes (direct ingest is an error by design), every
// other kind through InsertBatch.
func feedSummary(t *testing.T, sum Summary, pts []geom.Point) {
	t.Helper()
	if agg, ok := sum.(*FanInHull); ok {
		if _, err := sum.InsertBatch(pts); err != ErrFanInIngest {
			t.Fatalf("fanin: InsertBatch error = %v, want ErrFanInIngest", err)
		}
		donor := NewAdaptive(agg.Spec().R)
		if _, err := donor.InsertBatch(pts); err != nil {
			t.Fatalf("fanin: donor ingest: %v", err)
		}
		if err := agg.Push("spec-test", 1, donor.Snapshot()); err != nil {
			t.Fatalf("fanin: push: %v", err)
		}
		return
	}
	if n, err := sum.InsertBatch(pts); err != nil || n != len(pts) {
		t.Fatalf("%s: InsertBatch = (%d, %v)", sum.Spec().Kind, n, err)
	}
}

// TestNewConstructsAllKinds: New builds every kind, the summary reports
// the spec it was built from, and the spec round-trips through JSON.
func TestNewConstructsAllKinds(t *testing.T) {
	kinds := map[Kind]bool{}
	for _, spec := range validSpecs() {
		sum, err := New(spec)
		if err != nil {
			t.Fatalf("New(%s): %v", spec, err)
		}
		kinds[spec.Kind] = true
		if got := sum.Spec(); !equalSpec(got, spec) {
			t.Errorf("New(%s).Spec() = %s", spec, got)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", spec, err)
		}
		if !equalSpec(back, spec) {
			t.Errorf("round trip %s → %s", spec, back)
		}
		// Every kind must ingest and answer queries through the interface
		// (fan-in aggregates via snapshot push, their only write path).
		pts := workload.Take(workload.Disk(9, geom.Pt(0.5, 0.5), 0.4), 200)
		feedSummary(t, sum, pts)
		if sum.N() != 200 {
			t.Errorf("%s: N = %d after 200 points", spec.Kind, sum.N())
		}
		if sum.Hull().IsEmpty() {
			t.Errorf("%s: empty hull after 200 points", spec.Kind)
		}
		if sum.SampleSize() <= 0 {
			t.Errorf("%s: sample size %d", spec.Kind, sum.SampleSize())
		}
	}
	if len(kinds) != len(Kinds()) {
		t.Errorf("constructed %d kinds, want %d", len(kinds), len(Kinds()))
	}
}

// TestSpecValidationErrors: malformed kinds, bad parameters and
// conflicting cross-kind fields must all error (and never panic).
func TestSpecValidationErrors(t *testing.T) {
	grid := &GridSpec{Cols: 2, Rows: 2, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no kind", Spec{R: 16}},
		{"unknown kind", Spec{Kind: "wizard", R: 16}},
		{"adaptive r too small", Spec{Kind: KindAdaptive, R: 3}},
		{"adaptive negative r", Spec{Kind: KindAdaptive, R: -16}},
		{"uniform r too small", Spec{Kind: KindUniform, R: 2}},
		{"exact with r", Spec{Kind: KindExact, R: 16}},
		{"negative height", Spec{Kind: KindAdaptive, R: 16, HeightLimit: -1}},
		{"budget below r", Spec{Kind: KindAdaptive, R: 16, FixedBudget: 8}},
		{"negative bounded work", Spec{Kind: KindAdaptive, R: 16, BoundedWork: -2}},
		{"height on uniform", Spec{Kind: KindUniform, R: 12, HeightLimit: 2}},
		{"budget on windowed", Spec{Kind: KindWindowed, R: 8, Window: "10", FixedBudget: 16}},
		{"train_n on adaptive", Spec{Kind: KindAdaptive, R: 16, TrainN: 10}},
		{"partial without train_n", Spec{Kind: KindPartial, R: 8}},
		{"windowed without window", Spec{Kind: KindWindowed, R: 8}},
		{"windowed bad window", Spec{Kind: KindWindowed, R: 8, Window: "soon"}},
		{"windowed zero window", Spec{Kind: KindWindowed, R: 8, Window: "0"}},
		{"windowed negative duration", Spec{Kind: KindWindowed, R: 8, Window: "-5s"}},
		{"window on adaptive", Spec{Kind: KindAdaptive, R: 16, Window: "100"}},
		{"window and grid conflict", Spec{Kind: KindWindowed, R: 8, Window: "100", Grid: grid}},
		{"grid on windowed kindless window", Spec{Kind: KindPartitioned, R: 8, Window: "100", Grid: grid}},
		{"partitioned without grid", Spec{Kind: KindPartitioned, R: 8}},
		{"empty grid", Spec{Kind: KindPartitioned, R: 8,
			Grid: &GridSpec{Cols: 2, Rows: 2, MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}},
		{"zero grid cells", Spec{Kind: KindPartitioned, R: 8,
			Grid: &GridSpec{Cols: 0, Rows: 2, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}},
		{"sharded without inner", Spec{Kind: KindSharded, Shards: 4}},
		{"sharded without shards", Spec{Kind: KindSharded, Inner: &Spec{Kind: KindAdaptive, R: 16}}},
		{"sharded with own r", Spec{Kind: KindSharded, R: 16, Shards: 4, Inner: &Spec{Kind: KindAdaptive, R: 16}}},
		{"sharded too wide", Spec{Kind: KindSharded, Shards: MaxShards + 1, Inner: &Spec{Kind: KindAdaptive, R: 16}}},
		{"sharded windowed inner", Spec{Kind: KindSharded, Shards: 4, Inner: &Spec{Kind: KindWindowed, R: 8, Window: "100"}}},
		{"sharded nested sharded", Spec{Kind: KindSharded, Shards: 2,
			Inner: &Spec{Kind: KindSharded, Shards: 2, Inner: &Spec{Kind: KindAdaptive, R: 16}}}},
		{"sharded invalid inner", Spec{Kind: KindSharded, Shards: 4, Inner: &Spec{Kind: KindAdaptive, R: 2}}},
		{"shards on adaptive", Spec{Kind: KindAdaptive, R: 16, Shards: 4}},
		{"inner on adaptive", Spec{Kind: KindAdaptive, R: 16, Inner: &Spec{Kind: KindAdaptive, R: 16}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %s", c.name, c.spec)
		}
		if _, err := New(c.spec); err == nil {
			t.Errorf("%s: New accepted %s", c.name, c.spec)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"", "null", "42", `"adaptive"`, "[]", "not json",
		`{"kind":"adaptive","r":16} trailing`,
		`{"kind":"adaptive","r":16,"bogus":1}`, // unknown field
		`{"kind":"adaptive","r":1e300}`,        // overflowing int
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestSpecFor pins the spec form of every algo/r/window triple the
// retired flag bridge handled: each is accepted or rejected by ParseSpec
// exactly as the bridge did. (Pre-spec WAL metas, the one place a bare
// algo/r pair still appears, are covered by internal/store.)
func TestSpecFor(t *testing.T) {
	cases := []struct {
		triple string // the bridge's algo/r/window input
		json   string // the equivalent spec document
		ok     bool
	}{
		{`"" 32 ""`, `{"kind":"adaptive","r":32}`, true},
		{`adaptive 16 ""`, `{"kind":"adaptive","r":16}`, true},
		{`uniform 16 ""`, `{"kind":"uniform","r":16}`, true},
		{`fanin 16 ""`, `{"kind":"fanin","r":16}`, true},
		// The bridge dropped r for exact; the spec form must drop it too.
		{`exact 32 ""`, `{"kind":"exact"}`, true},
		{`exact 32 "" (r kept)`, `{"kind":"exact","r":32}`, false},
		// A window selected the windowed kind with adaptive buckets.
		{`adaptive 16 30s`, `{"kind":"windowed","r":16,"window":"30s"}`, true},
		{`"" 16 1000`, `{"kind":"windowed","r":16,"window":"1000"}`, true},
		{`uniform 16 100`, `{"kind":"uniform","r":16,"window":"100"}`, false},
		{`exact 16 100`, `{"kind":"exact","window":"100"}`, false},
		{`windowed 16 ""`, `{"kind":"windowed","r":16}`, false},
		{`wizard 16 ""`, `{"kind":"wizard","r":16}`, false},
		{`adaptive 2 ""`, `{"kind":"adaptive","r":2}`, false},
		{`adaptive 16 0`, `{"kind":"windowed","r":16,"window":"0"}`, false},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.json)
		if (err == nil) != c.ok {
			t.Errorf("%s → ParseSpec(%s) error = %v, want ok=%v", c.triple, c.json, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: parsed spec %s fails Validate: %v", c.triple, spec, err)
		}
		if _, err := New(spec); err != nil {
			t.Errorf("%s: New(%s): %v", c.triple, spec, err)
		}
	}
}

// TestConstructorsAreSpecWrappers: the v1 constructors produce summaries
// whose Spec round-trips through New.
func TestConstructorsAreSpecWrappers(t *testing.T) {
	sums := []Summary{
		NewAdaptive(16),
		mustAdaptive(t, Spec{Kind: KindAdaptive, R: 16, HeightLimit: 3, FixedBudget: 32}),
		NewUniform(12),
		NewExact(),
		NewPartial(8, 50, 16),
		NewWindowedByCount(8, 500),
		NewWindowedByTime(8, 90*time.Minute, nil),
	}
	for _, sum := range sums {
		spec := sum.Spec()
		rebuilt, err := New(spec)
		if err != nil {
			t.Fatalf("New(%s): %v", spec, err)
		}
		if !equalSpec(rebuilt.Spec(), spec) {
			t.Errorf("rebuild of %s reports %s", spec, rebuilt.Spec())
		}
	}
	// A custom RegionFunc has no spec representation; its gridless spec
	// must be rejected by New, not silently misbuilt.
	p := NewPartitioned(4, func(geom.Point) int { return 0 }, 8)
	if _, err := New(p.Spec()); err == nil {
		t.Error("New accepted the gridless spec of a custom-RegionFunc partition")
	}
}

// TestSnapshotRestoreRejectsOversizedR: snapshots are untrusted input
// (HTTP restore, on-disk checkpoints); an absurd r must error, never
// panic the constructors' validation.
func TestSnapshotRestoreRejectsOversizedR(t *testing.T) {
	for _, snap := range []Snapshot{
		{Kind: "adaptive", R: MaxR + 1},
		{Kind: "uniform", R: MaxR + 1},
	} {
		if _, err := SummaryFromSnapshot(snap); err == nil {
			t.Errorf("%s snapshot with r = %d accepted", snap.Kind, snap.R)
		}
	}
	// The v1 binary path carries r as a raw uint32 with no range check;
	// the restore layer must still reject it gracefully.
	data, err := Snapshot{Kind: "uniform", R: 1 << 24}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if _, err := SummaryFromSnapshot(back); err == nil {
		t.Error("binary snapshot with oversized r accepted")
	}
}

// TestCheckpointKindMismatchFailsLoudly: a checkpoint whose kind
// disagrees with the stream meta must abort recovery, not silently
// build the wrong summary.
func TestCheckpointKindMismatchFailsLoudly(t *testing.T) {
	u := NewUniform(8)
	_ = u.Insert(geom.Pt(1, 2))
	data, err := u.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SummaryFromCheckpoint(Spec{Kind: KindAdaptive, R: 8}, data); err == nil {
		t.Error("uniform checkpoint accepted for an adaptive stream")
	}
}

// FuzzParseSpec: any input either errors or yields a spec that is
// constructible, re-serializable, and stable across one round trip.
// Never panics.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range validSpecs() {
		f.Add(spec.String())
	}
	f.Add(`{"kind":"wizard","r":16}`)
	f.Add(`{"kind":"adaptive","r":-4}`)
	f.Add(`{"kind":"windowed","r":8,"window":"100","grid":{"cols":1,"rows":1,"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`)
	f.Add(`{"kind":"partitioned","r":8,"window":"100"}`)
	f.Add(`{"kind":"windowed","r":8,"window":"9999999999999999999999"}`)
	f.Add(`{"kind":"exact","height_limit":1}`)
	f.Add("{")
	f.Add(strings.Repeat("[", 64))
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		sum, err := New(spec)
		if err != nil {
			t.Fatalf("validated spec %s failed to construct: %v", spec, err)
		}
		if !equalSpec(sum.Spec(), spec) {
			t.Fatalf("summary reports %s for spec %s", sum.Spec(), spec)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse of %s: %v", spec, err)
		}
		if !equalSpec(back, spec) {
			t.Fatalf("round trip %s → %s", spec, back)
		}
	})
}
