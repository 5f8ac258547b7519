package streamhull

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Spec is a flat, JSON-serializable description of any summary this
// package can build — the single constructor input of the v2 API. A Spec
// round-trips through JSON (ParseSpec ∘ String is the identity on valid
// specs), so it is the unit of configuration everywhere a summary
// crosses a process boundary: the HTTP server's create endpoint, WAL
// metadata (so crash recovery can rebuild any stream kind), snapshots,
// and the CLIs' -spec flags.
//
// Exactly the fields meaningful for the Kind may be set; Validate
// rejects conflicting combinations (a window on a partitioned summary, a
// grid on a windowed one, …) so that a Spec accepted anywhere is
// constructible everywhere.
type Spec struct {
	// Kind selects the summary algorithm.
	Kind Kind `json:"kind"`
	// R is the sample parameter: ≥ 4 for adaptive, partial, windowed and
	// partitioned summaries, ≥ 3 for uniform, and 0 for exact (which has
	// no sampling parameter).
	R int `json:"r,omitempty"`

	// HeightLimit is the adaptive refinement-tree height limit k (§5.1);
	// 0 selects the paper's recommended k = ⌊log2 r⌋. Adaptive only.
	HeightLimit int `json:"height_limit,omitempty"`
	// FixedBudget switches the adaptive summary to the fixed-budget
	// variant of §7 with this many total directions (must be ≥ R when
	// set). Adaptive and partial (the training phase) only.
	FixedBudget int `json:"fixed_budget,omitempty"`
	// BoundedWork bounds unrefinement steps per insert (§5.3 end);
	// 0 means unbounded (amortized variant). Adaptive only.
	BoundedWork int `json:"bounded_work,omitempty"`

	// TrainN is the partial summary's training-prefix length (§7).
	// Required for (and exclusive to) partial summaries.
	TrainN int `json:"train_n,omitempty"`

	// Window is the sliding-window bound: a point count like "5000" or a
	// Go duration like "30s". Required for (and exclusive to) windowed
	// summaries.
	Window string `json:"window,omitempty"`

	// Grid is the spatial partition of the plane. Required for (and
	// exclusive to) partitioned summaries.
	Grid *GridSpec `json:"grid,omitempty"`

	// Shards is the parallel-ingest fan-out: the stream is dealt
	// round-robin across this many independent sub-summaries, each with
	// its own lock, and reads merge the shard hulls. Required for (and
	// exclusive to) sharded summaries.
	Shards int `json:"shards,omitempty"`
	// Inner describes each shard's sub-summary. Required for (and
	// exclusive to) sharded summaries; the inner kind must be adaptive,
	// uniform, or exact (the mergeable lifetime kinds).
	Inner *Spec `json:"inner,omitempty"`
}

// Kind names a summary algorithm.
type Kind string

// The eight summary kinds.
const (
	KindAdaptive    Kind = "adaptive"    // §4–§5 adaptive sampling, the flagship
	KindUniform     Kind = "uniform"     // §3 uniformly sampled baseline
	KindExact       Kind = "exact"       // exact hull, Θ(hull size) storage
	KindPartial     Kind = "partial"     // §7 train-then-freeze comparator
	KindWindowed    Kind = "windowed"    // sliding-window EH of adaptive buckets
	KindPartitioned Kind = "partitioned" // §8 per-region adaptive hulls
	KindSharded     Kind = "sharded"     // round-robin fan-out over mergeable sub-summaries
	KindFanIn       Kind = "fanin"       // multi-node aggregate fed by source-tagged snapshot pushes
)

// Kinds lists every valid summary kind.
func Kinds() []Kind {
	return []Kind{KindAdaptive, KindUniform, KindExact, KindPartial, KindWindowed, KindPartitioned, KindSharded, KindFanIn}
}

// GridSpec is a uniform cols×rows partition of the rectangle
// [MinX,MaxX]×[MinY,MaxY]; points outside clamp to the nearest cell
// (see GridRegions).
type GridSpec struct {
	Cols int     `json:"cols"`
	Rows int     `json:"rows"`
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Resource caps: Validate == nil means New is safe to call on
// untrusted input (the HTTP server does), so a spec cannot demand an
// absurd allocation.
const (
	// MaxR is the largest accepted sample parameter. The paper's r is
	// tens to hundreds; 2²⁰ directions is already far past any accuracy
	// a float64 hull can express.
	MaxR = 1 << 20
	// MaxGridCells is the largest accepted cols×rows product for a
	// partitioned summary (each cell owns an O(r) adaptive summary).
	MaxGridCells = 1 << 16
	// MaxShards is the largest accepted fan-out for a sharded summary
	// (each shard owns an O(r) sub-summary and its own lock; far past
	// any core count, lock contention is long gone).
	MaxShards = 1 << 10
)

func (g *GridSpec) validate() error {
	if g.Cols < 1 || g.Rows < 1 {
		return fmt.Errorf("streamhull: grid must have ≥ 1 column and row, got %d×%d", g.Cols, g.Rows)
	}
	// Overflow-safe product check (Cols*Rows can wrap on 32-bit ints).
	if g.Cols > MaxGridCells || g.Rows > MaxGridCells/g.Cols {
		return fmt.Errorf("streamhull: grid %d×%d exceeds %d cells", g.Cols, g.Rows, MaxGridCells)
	}
	for _, v := range []float64{g.MinX, g.MinY, g.MaxX, g.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("streamhull: grid bounds must be finite")
		}
	}
	if g.MaxX <= g.MinX || g.MaxY <= g.MinY {
		return fmt.Errorf("streamhull: grid rectangle [%g,%g]×[%g,%g] is empty",
			g.MinX, g.MaxX, g.MinY, g.MaxY)
	}
	return nil
}

// parseWindow interprets a window spec string: a point count like "5000"
// (count > 0, duration 0) or a Go duration like "30s" (count 0,
// duration > 0).
func parseWindow(spec string) (count int, dur time.Duration, err error) {
	if n, aerr := strconv.Atoi(spec); aerr == nil {
		if n < 1 {
			return 0, 0, fmt.Errorf("streamhull: window count must be ≥ 1, got %d", n)
		}
		return n, 0, nil
	}
	d, derr := time.ParseDuration(spec)
	if derr != nil {
		return 0, 0, fmt.Errorf("streamhull: window %q is neither a point count nor a duration", spec)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("streamhull: window duration must be positive, got %v", d)
	}
	return 0, d, nil
}

// Validate reports whether the Spec describes a constructible summary.
// It never panics; every field combination New would reject is caught
// here, so Validate == nil implies New succeeds.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindAdaptive, KindUniform, KindExact, KindPartial, KindWindowed, KindPartitioned, KindSharded, KindFanIn:
	case "":
		return fmt.Errorf("streamhull: spec has no kind")
	default:
		return fmt.Errorf("streamhull: unknown summary kind %q", s.Kind)
	}

	// Sample parameter per kind. A fan-in aggregate's r sizes its
	// adaptive merge, so it obeys the adaptive minimum.
	switch s.Kind {
	case KindAdaptive, KindPartial, KindWindowed, KindPartitioned, KindFanIn:
		if s.R < 4 {
			return fmt.Errorf("streamhull: %s summary requires r ≥ 4, got %d", s.Kind, s.R)
		}
	case KindUniform:
		if s.R < 3 {
			return fmt.Errorf("streamhull: uniform summary requires r ≥ 3, got %d", s.R)
		}
	case KindExact:
		if s.R != 0 {
			return fmt.Errorf("streamhull: exact summary has no sample parameter (r = %d)", s.R)
		}
	case KindSharded:
		if s.R != 0 {
			return fmt.Errorf("streamhull: sharded summary has no sample parameter of its own (r = %d belongs in the inner spec)", s.R)
		}
	}
	if s.R > MaxR {
		return fmt.Errorf("streamhull: r = %d exceeds %d", s.R, MaxR)
	}
	if s.FixedBudget > MaxR {
		return fmt.Errorf("streamhull: fixed_budget = %d exceeds %d", s.FixedBudget, MaxR)
	}

	// Kind-exclusive fields: any cross-kind combination is a conflict.
	if s.HeightLimit != 0 && s.Kind != KindAdaptive {
		return fmt.Errorf("streamhull: height_limit applies only to adaptive summaries, not %s", s.Kind)
	}
	if s.HeightLimit < 0 {
		return fmt.Errorf("streamhull: height_limit must be ≥ 0, got %d", s.HeightLimit)
	}
	if s.BoundedWork != 0 && s.Kind != KindAdaptive {
		return fmt.Errorf("streamhull: bounded_work applies only to adaptive summaries, not %s", s.Kind)
	}
	if s.BoundedWork < 0 {
		return fmt.Errorf("streamhull: bounded_work must be ≥ 0, got %d", s.BoundedWork)
	}
	if s.FixedBudget != 0 {
		if s.Kind != KindAdaptive && s.Kind != KindPartial {
			return fmt.Errorf("streamhull: fixed_budget applies only to adaptive and partial summaries, not %s", s.Kind)
		}
		if s.FixedBudget < s.R {
			return fmt.Errorf("streamhull: fixed_budget %d < r %d", s.FixedBudget, s.R)
		}
	}
	if s.TrainN != 0 && s.Kind != KindPartial {
		return fmt.Errorf("streamhull: train_n applies only to partial summaries, not %s", s.Kind)
	}
	if s.Kind == KindPartial && s.TrainN < 1 {
		return fmt.Errorf("streamhull: partial summary requires train_n ≥ 1, got %d", s.TrainN)
	}
	if s.Window != "" && s.Kind != KindWindowed {
		return fmt.Errorf("streamhull: window applies only to windowed summaries, not %s", s.Kind)
	}
	if s.Kind == KindWindowed {
		if s.Window == "" {
			return fmt.Errorf("streamhull: windowed summary requires a window (a count or a duration)")
		}
		if _, _, err := parseWindow(s.Window); err != nil {
			return err
		}
	}
	if s.Grid != nil && s.Kind != KindPartitioned {
		return fmt.Errorf("streamhull: grid applies only to partitioned summaries, not %s", s.Kind)
	}
	if s.Kind == KindPartitioned {
		if s.Grid == nil {
			return fmt.Errorf("streamhull: partitioned spec requires a grid (summaries built " +
				"with a custom RegionFunc cannot be described by a Spec)")
		}
		if err := s.Grid.validate(); err != nil {
			return err
		}
	}
	if s.Shards != 0 && s.Kind != KindSharded {
		return fmt.Errorf("streamhull: shards applies only to sharded summaries, not %s", s.Kind)
	}
	if s.Inner != nil && s.Kind != KindSharded {
		return fmt.Errorf("streamhull: inner applies only to sharded summaries, not %s", s.Kind)
	}
	if s.Kind == KindSharded {
		if s.Shards < 1 {
			return fmt.Errorf("streamhull: sharded summary requires shards ≥ 1, got %d", s.Shards)
		}
		if s.Shards > MaxShards {
			return fmt.Errorf("streamhull: shards = %d exceeds %d", s.Shards, MaxShards)
		}
		if s.Inner == nil {
			return fmt.Errorf("streamhull: sharded spec requires an inner spec for its sub-summaries")
		}
		switch s.Inner.Kind {
		case KindAdaptive, KindUniform, KindExact:
		default:
			return fmt.Errorf("streamhull: sharded inner kind must be adaptive, uniform, or exact, got %q", s.Inner.Kind)
		}
		if err := s.Inner.Validate(); err != nil {
			return fmt.Errorf("streamhull: sharded inner spec: %w", err)
		}
	}
	return nil
}

// String returns the canonical JSON encoding of the Spec. For a valid
// Spec, ParseSpec(s.String()) reproduces s exactly.
func (s Spec) String() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec has no marshal-failing field types; keep String total anyway.
		return fmt.Sprintf(`{"kind":%q}`, string(s.Kind))
	}
	return string(data)
}

// ParseSpec decodes and validates a spec JSON document. Unknown fields,
// trailing data, malformed kinds, negative parameters and conflicting
// field combinations are all errors; ParseSpec never panics.
func ParseSpec(data string) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("streamhull: decoding spec: %w", err)
	}
	// Reject trailing garbage after the spec object.
	if dec.More() {
		return Spec{}, fmt.Errorf("streamhull: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// New builds the summary a Spec describes — the one constructor of the
// v2 API. Every summary it returns reports the same Spec back through
// its Spec method, so a running stream is self-describing: persist the
// Spec (the WAL does), and New(spec) rebuilds a summary the stream's
// log can be replayed into.
func New(spec Spec) (Summary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindAdaptive:
		return buildAdaptive(spec), nil
	case KindUniform:
		return buildUniform(spec), nil
	case KindExact:
		return buildExact(), nil
	case KindPartial:
		return buildPartial(spec), nil
	case KindWindowed:
		return buildWindowed(spec, nil)
	case KindPartitioned:
		return buildPartitioned(spec), nil
	case KindSharded:
		return buildSharded(spec)
	case KindFanIn:
		return buildFanIn(spec), nil
	default:
		// Unreachable after Validate.
		return nil, fmt.Errorf("streamhull: unknown summary kind %q", spec.Kind)
	}
}

// equalSpec reports whether two specs describe the same summary
// (comparing Grid and Inner by value, not pointer).
func equalSpec(a, b Spec) bool {
	ga, gb := a.Grid, b.Grid
	ia, ib := a.Inner, b.Inner
	a.Grid, b.Grid = nil, nil
	a.Inner, b.Inner = nil, nil
	if a != b {
		return false
	}
	if (ga == nil) != (gb == nil) || (ia == nil) != (ib == nil) {
		return false
	}
	if ga != nil && *ga != *gb {
		return false
	}
	return ia == nil || equalSpec(*ia, *ib)
}

// specJSONPrefix reports whether data plausibly starts a JSON object —
// used to tell spec/state payloads apart from binary snapshot payloads.
func specJSONPrefix(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}
