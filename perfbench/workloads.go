package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/workload"
)

// scenario is one workload run: inputs fixed by the seed, the streams
// they go to, and the traffic that sends them.
type scenario interface {
	// setup creates the workload's streams on a freshly started server,
	// over at most two connections.
	setup(cs [2]*conn) error
	// drive runs the traffic on two connections. Operations scheduled
	// before warm are sent but not recorded; nothing is sent after end.
	drive(conns [2]*conn, clk clock, begin, warm, end time.Time) [2]*tally
	// verify checks every served answer against a local reference fed
	// the same batches in the same order, and returns hull_err_rel.
	verify(c *conn) (float64, error)
	// written lists the streams the workload wrote, for replay slices.
	written() []*stream
}

// restartChecker is a scenario whose served state must survive a
// SIGKILL: recheck compares what the restarted server serves with the
// capture verify took before the kill.
type restartChecker interface {
	recheck(c *conn) error
}

// workloadDef names a workload and the hullserver flags it changes from
// the defaults.
type workloadDef struct {
	name    string
	token   string   // bearer token every connection presents ("" = none)
	durable bool     // the server gets -data and the run ends with SIGKILL and a timed restart
	flags   []string // hullserver flags beyond -addr and -data
	build   func(seed int64) scenario
}

// serverArgs is the hullserver command line beyond -addr.
func (d *workloadDef) serverArgs(dataDir string) []string {
	args := append([]string(nil), d.flags...)
	if d.durable {
		args = append(args, "-data", dataDir)
	}
	return args
}

const benchToken = "bench-token"

var workloads = []*workloadDef{
	{
		name:  "ingest-clustered",
		token: benchToken,
		flags: []string{"-auth-tokens", benchToken + "=bench:read+write"},
		build: newIngestScenario,
	},
	{
		name:    "durable-zipf",
		durable: true,
		flags: []string{
			"-max-streams", strconv.Itoa(durableStreams),
			"-max-resident", strconv.Itoa(durableResident),
			"-checkpoint", strconv.Itoa(durableBurst * durableBatch),
		},
		build: newDurableScenario,
	},
	{name: "read-mixed", build: newReadScenario},
	{name: "fanin-push", build: newFaninScenario},
}

func findWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// bothConns runs one function per connection concurrently and waits.
func bothConns(fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range 2 {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// postBatch sends one point batch to s and records the acknowledgement.
func postBatch(c *conn, s *stream) (opKind, int, error) {
	b := s.next()
	body := appendPointsJSON(make([]byte, 0, 48*len(b)), b)
	if _, err := c.do(http.MethodPost, "/v1/streams/"+s.id+"/points", "application/json", body); err != nil {
		s.lost = true
		return opWrite, 0, err
	}
	s.acked++
	return opWrite, len(b), nil
}

// ---- ingest-clustered ------------------------------------------------

const ingestBatch = 256

// ingestScenario: two connections, each posting 256-point Gaussian
// batches to its own adaptive stream as fast as the server answers.
type ingestScenario struct{ streams [2]*stream }

func newIngestScenario(seed int64) scenario {
	sc := &ingestScenario{}
	for c := range sc.streams {
		gs := subSeed(seed, "gaussian", c)
		center := geom.Pt(float64(c)*1000, 0)
		sc.streams[c] = newStream(fmt.Sprintf("c%d", c), adaptiveSpec, ingestBatch,
			func() workload.Generator { return workload.Gaussian(gs, center, 100) })
	}
	return sc
}

func (sc *ingestScenario) setup(cs [2]*conn) error {
	for _, s := range sc.streams {
		if err := cs[0].create(s.id, s.spec.String()); err != nil {
			return err
		}
	}
	return nil
}

func (sc *ingestScenario) drive(conns [2]*conn, clk clock, begin, warm, end time.Time) [2]*tally {
	ts := [2]*tally{{}, {}}
	bothConns(func(i int) {
		closedLoop(clk, warm, end, ts[i], func(int) (opKind, int, error) {
			return postBatch(conns[i], sc.streams[i])
		})
	})
	return ts
}

func (sc *ingestScenario) verify(c *conn) (float64, error) {
	var errs errTally
	for _, s := range sc.streams {
		if _, _, err := checkStream(c, s, 0, &errs); err != nil {
			return 0, err
		}
	}
	return errs.worst, nil
}

func (sc *ingestScenario) written() []*stream { return sc.streams[:] }

// ---- durable-zipf ----------------------------------------------------

const (
	durableStreams  = 2048
	durableResident = 256
	durableBatch    = 64
	durableBurst    = 8 // batches per pick, = the checkpoint interval
	durableZipfS    = 1.1
	durableZipfV    = 16 // flattens the head: the top 16 streams take about a quarter of the picks
)

// durableScenario: a few thousand durable streams over a capped
// resident set; each connection owns half of them and picks the next
// stream to write by a seeded Zipf law, then writes it a burst of
// durableBurst batches. The server checkpoints every burst's worth of
// points, so a stream is only ever checkpointed at a burst's end: an
// eviction never seals a partial burst (the stream being written is
// always among the most recently touched), and each stream's served
// state is a deterministic function of its batches however evictions
// interleave.
type durableScenario struct {
	streams []*stream
	pickers [2]*zipfPicker
	capture [][]byte // raw /hull bodies verify saw before the kill
}

func newDurableScenario(seed int64) scenario {
	sc := &durableScenario{streams: make([]*stream, durableStreams)}
	rng := rand.New(rand.NewSource(subSeed(seed, "velocity", 0)))
	var owned [2][]int
	for i := range sc.streams {
		gs := subSeed(seed, "drift", i)
		vel := geom.Unit(rng.Float64() * geom.TwoPi).Scale(0.01)
		sc.streams[i] = newStream(fmt.Sprintf("z%04d", i), adaptiveSpec, durableBatch,
			func() workload.Generator { return workload.Drift(gs, 10, vel) })
		owned[i%2] = append(owned[i%2], i)
	}
	for c := range sc.pickers {
		sc.pickers[c] = newZipfPicker(subSeed(seed, "zipf", c), owned[c], durableZipfS, durableZipfV)
	}
	return sc
}

func (sc *durableScenario) setup(cs [2]*conn) error {
	spec := adaptiveSpec.String()
	var errs [2]error
	bothConns(func(c int) {
		for i := c; i < len(sc.streams) && errs[c] == nil; i += 2 {
			errs[c] = cs[c].create(sc.streams[i].id, spec)
		}
	})
	return errors.Join(errs[0], errs[1])
}

func (sc *durableScenario) drive(conns [2]*conn, clk clock, begin, warm, end time.Time) [2]*tally {
	ts := [2]*tally{{}, {}}
	bothConns(func(i int) {
		cur, left := 0, 0
		write := func(int) (opKind, int, error) {
			if left == 0 {
				cur, left = sc.pickers[i].next(), durableBurst
			}
			left--
			return postBatch(conns[i], sc.streams[cur])
		}
		closedLoop(clk, warm, end, ts[i], write)
		// Finish the open burst, unrecorded, so no stream is left
		// between checkpoints.
		for left > 0 {
			if _, _, err := write(0); err != nil {
				ts[i].attempted++
				ts[i].failed++
				break
			}
		}
	})
	return ts
}

func (sc *durableScenario) verify(c *conn) (float64, error) {
	var errs errTally
	sc.capture = make([][]byte, len(sc.streams))
	for i, s := range sc.streams {
		_, raw, err := checkStream(c, s, durableBurst, &errs)
		if err != nil {
			return 0, err
		}
		sc.capture[i] = raw
	}
	return errs.worst, nil
}

func (sc *durableScenario) recheck(c *conn) error {
	for i, s := range sc.streams {
		_, raw, err := c.hull(s.id)
		if err != nil {
			return err
		}
		if string(raw) != string(sc.capture[i]) {
			return fmt.Errorf("stream %s: hull after restart differs from the capture before the kill:\nbefore %s\nafter  %s",
				s.id, sc.capture[i], raw)
		}
	}
	return nil
}

func (sc *durableScenario) written() []*stream { return sc.streams }

// ---- read-mixed ------------------------------------------------------

const (
	readBatch     = 64
	readWriteRate = 200 // writer batches per second, open loop
)

var shardedSpec = streamhull.Spec{Kind: streamhull.KindSharded, Shards: 2, Inner: &adaptiveSpec}

// readQueries is the reader's cycle.
var readQueries = []string{"query?type=diameter", "query?type=width", "query?type=circle", "hull"}

// readScenario: one open-loop writer at a fixed rate into a 2-shard
// stream, one closed-loop reader cycling the read endpoints.
type readScenario struct{ s *stream }

func newReadScenario(seed int64) scenario {
	gs := subSeed(seed, "drift", 0)
	return &readScenario{s: newStream("s", shardedSpec, readBatch,
		func() workload.Generator { return workload.Drift(gs, 50, geom.Pt(0.02, 0.01)) })}
}

func (sc *readScenario) setup(cs [2]*conn) error { return cs[0].create(sc.s.id, sc.s.spec.String()) }

func (sc *readScenario) drive(conns [2]*conn, clk clock, begin, warm, end time.Time) [2]*tally {
	ts := [2]*tally{{}, {}}
	bothConns(func(i int) {
		if i == 0 {
			openLoop(clk, begin, warm, end, time.Second/readWriteRate, ts[0], func(int) (opKind, int, error) {
				return postBatch(conns[0], sc.s)
			})
			return
		}
		closedLoop(clk, warm, end, ts[1], func(k int) (opKind, int, error) {
			_, err := conns[1].do(http.MethodGet, "/v1/streams/"+sc.s.id+"/"+readQueries[k%len(readQueries)], "", nil)
			return opRead, 0, err
		})
	})
	return ts
}

func (sc *readScenario) verify(c *conn) (float64, error) {
	var errs errTally
	ref, _, err := checkStream(c, sc.s, 0, &errs)
	if err != nil {
		return 0, err
	}
	if err := checkQueries(c, sc.s.id, ref); err != nil {
		return 0, err
	}
	return errs.worst, nil
}

// checkQueries compares the served diameter, width and enclosing circle
// with the reference summary's, bit for bit.
func checkQueries(c *conn, id string, ref streamhull.Summary) error {
	qc := streamhull.NewQueryCache(ref)
	var got struct {
		Diameter float64       `json:"diameter"`
		Pair     [2][2]float64 `json:"pair"`
		Width    float64       `json:"width"`
		Angle    float64       `json:"angle"`
		Center   [2]float64    `json:"center"`
		Radius   float64       `json:"radius"`
	}
	for _, q := range []string{"diameter", "width", "circle"} {
		raw, err := c.do(http.MethodGet, "/v1/streams/"+id+"/query?type="+q, "", nil)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("query %s: %w", q, err)
		}
	}
	d, pair := qc.Diameter()
	w, ang := qc.Width()
	ctr, rad := qc.EnclosingCircle()
	want := [...]float64{d, pair[0].X, pair[0].Y, pair[1].X, pair[1].Y, w, ang, ctr.X, ctr.Y, rad}
	have := [...]float64{got.Diameter, got.Pair[0][0], got.Pair[0][1], got.Pair[1][0], got.Pair[1][1],
		got.Width, got.Angle, got.Center[0], got.Center[1], got.Radius}
	if want != have {
		return fmt.Errorf("stream %s: served queries %v, reference %v", id, have, want)
	}
	return nil
}

func (sc *readScenario) written() []*stream { return []*stream{sc.s} }

// ---- fanin-push ------------------------------------------------------

const (
	faninSources = 32
	faninBatch   = 64
	faninRate    = 200 // pushes per second, open loop, round-robin over sources
	faninStream  = "agg"
)

var faninSpec = streamhull.Spec{Kind: streamhull.KindFanIn, R: r}

// source is one simulated fan-in follower: a local adaptive summary fed
// by its own stream, and the push it last got acknowledged.
type source struct {
	*stream
	sum      streamhull.Summary
	epoch    uint64               // last epoch sent
	ackEpoch uint64               // epoch the aggregator acknowledged
	ackSnap  *streamhull.Snapshot // snapshot that epoch carried (nil before first contact)
	pending  int                  // points inserted since the last acknowledged push
}

// faninScenario: 32 simulated sources push to one aggregate, one push
// at a time round-robin on an open-loop schedule; a second connection
// reads the aggregate's diameter in a closed loop.
type faninScenario struct{ sources []*source }

func newFaninScenario(seed int64) scenario {
	sc := &faninScenario{}
	for i := range faninSources {
		gs := subSeed(seed, "source", i)
		vel := geom.Unit(geom.TwoPi * float64(i) / faninSources).Scale(0.02)
		s := newStream(fmt.Sprintf("src%02d", i), adaptiveSpec, faninBatch,
			func() workload.Generator { return workload.Drift(gs, 5, vel) })
		sum, _ := streamhull.New(adaptiveSpec)
		sc.sources = append(sc.sources, &source{stream: s, sum: sum})
	}
	return sc
}

func (sc *faninScenario) setup(cs [2]*conn) error {
	return cs[0].create(faninStream, faninSpec.String())
}

// pushAck is the body of an accepted push.
type pushAck struct {
	AckedEpoch uint64 `json:"acked_epoch"`
}

// push inserts the source's next batch locally and sends the aggregator
// a delta against the acknowledged snapshot, or a full snapshot on first
// contact, when the delta would not be smaller, or when the aggregator
// answers resync_required — the follower protocol of fanin.Pusher.
func (s *source) push(c *conn) (opKind, int, error) {
	b := s.next()
	if _, err := s.sum.InsertBatch(b); err != nil {
		return opWrite, 0, err
	}
	s.pending += len(b)
	s.epoch++
	snap := s.sum.(streamhull.Snapshotter).Snapshot()
	full, err := snap.Encode()
	if err != nil {
		return opWrite, 0, err
	}
	path := "/v1/streams/" + faninStream + "/snapshot?source=" + s.id
	var raw []byte
	sent := false
	if s.ackSnap != nil {
		frame := fanin.EncodeDelta(fanin.ComputeDelta(s.ackEpoch, s.epoch, snap.N, s.ackSnap.Points, snap.Points))
		if len(frame) < len(full) {
			raw, err = c.do(http.MethodPost, path, fanin.DeltaContentType, frame)
			var he *httpStatusError
			switch {
			case err == nil:
				sent = true
			case errors.As(err, &he) && he.Status == http.StatusConflict:
				// resync_required: fall through to a full snapshot.
			default:
				s.lost = true
				return opWrite, 0, err
			}
		}
	}
	if !sent {
		raw, err = c.do(http.MethodPost, path+"&epoch="+strconv.FormatUint(s.epoch, 10), "application/json", full)
		if err != nil {
			s.lost = true
			return opWrite, 0, err
		}
	}
	var ack pushAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return opWrite, 0, fmt.Errorf("push ack: %w", err)
	}
	s.ackEpoch, s.ackSnap = ack.AckedEpoch, &snap
	s.acked++
	covered := s.pending
	s.pending = 0
	return opWrite, covered, nil
}

func (sc *faninScenario) drive(conns [2]*conn, clk clock, begin, warm, end time.Time) [2]*tally {
	ts := [2]*tally{{}, {}}
	bothConns(func(i int) {
		if i == 0 {
			openLoop(clk, begin, warm, end, time.Second/faninRate, ts[0], func(k int) (opKind, int, error) {
				return sc.sources[k%len(sc.sources)].push(conns[0])
			})
			return
		}
		closedLoop(clk, warm, end, ts[1], func(int) (opKind, int, error) {
			_, err := conns[1].do(http.MethodGet, "/v1/streams/"+faninStream+"/query?type=diameter", "", nil)
			return opRead, 0, err
		})
	})
	return ts
}

// verify checks the aggregate against MergeSnapshots of every source's
// last acknowledged snapshot in source-name order, and measures its
// error against every point the sources covered.
func (sc *faninScenario) verify(c *conn) (float64, error) {
	srcs := append([]*source(nil), sc.sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].id < srcs[j].id })
	var snaps []streamhull.Snapshot
	n := 0
	var ex exactHull
	for _, s := range srcs {
		if s.lost {
			return 0, fmt.Errorf("source %s: a push failed, so the aggregate cannot be checked", s.id)
		}
		if s.ackSnap == nil {
			continue
		}
		snaps = append(snaps, *s.ackSnap)
		n += s.ackSnap.N
		s.replay(ex.add)
	}
	ref, err := streamhull.MergeSnapshots(r, snaps...)
	if err != nil {
		return 0, err
	}
	got, _, err := c.hull(faninStream)
	if err != nil {
		return 0, err
	}
	if err := sameHull(faninStream, got, ref.Hull(), n); err != nil {
		return 0, err
	}
	var errs errTally
	errs.add(hullError(ex.vs, got.Vertices))
	return errs.worst, nil
}

func (sc *faninScenario) written() []*stream {
	out := make([]*stream, len(sc.sources))
	for i, s := range sc.sources {
		out[i] = s.stream
	}
	return out
}
