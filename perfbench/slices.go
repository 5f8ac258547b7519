package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/convex"
	"github.com/streamgeom/streamhull/internal/core"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/workload"
)

const (
	// replayLimit caps the batches one replay slice feeds a layer.
	replayLimit = 4000
	// sliceSources caps how many of a workload's streams the fan-in and
	// store slices treat as sources.
	sliceSources = 32
	// maxMerges caps how many aggregate merges the fan-in slice times.
	maxMerges = 200
)

// replayBatches regenerates the acknowledged batches of the workload's
// streams, in stream order, at most replayLimit in all and an even share
// per written stream.
func replayBatches(streams []*stream, limit int) [][][]geom.Point {
	var active []*stream
	for _, s := range streams {
		if s.acked > 0 {
			active = append(active, s)
		}
	}
	if len(active) == 0 {
		return nil
	}
	per := max(1, limit/len(active))
	var out [][][]geom.Point
	total := 0
	for _, s := range active {
		if total >= limit {
			break
		}
		g := s.newGen()
		var bs [][]geom.Point
		for range min(s.acked, per) {
			bs = append(bs, workload.Take(g, s.batch))
		}
		out = append(out, bs)
		total += len(bs)
	}
	return out
}

// libSlices times the library layers on the workload's own batches:
// the root Summary, the core, a 2-shard summary, the query cache and the
// fan-in delta path.
func libSlices(rep *report, streams [][][]geom.Point) {
	var sumT, coreT, shardT, mergeT, missT, hitT time.Duration
	var pts, kept, batches int
	for _, bs := range streams {
		sum, _ := streamhull.New(adaptiveSpec)
		h := core.New(core.Config{R: r})
		sh, _ := streamhull.NewSharded(2, adaptiveSpec)
		cached, _ := streamhull.New(adaptiveSpec)
		qc := streamhull.NewQueryCache(cached)
		for _, b := range bs {
			pts += len(b)
			batches++
			kept += len(convex.ExtremeCandidates(b))

			t := time.Now()
			_, _ = sum.InsertBatch(b)
			sumT += time.Since(t)

			t = time.Now()
			h.InsertBatch(b)
			coreT += time.Since(t)

			t = time.Now()
			_, _ = sh.InsertBatch(b)
			shardT += time.Since(t)
			t = time.Now()
			_ = sh.Hull()
			mergeT += time.Since(t)

			_, _ = cached.InsertBatch(b)
			t = time.Now()
			_, _ = qc.Diameter()
			missT += time.Since(t)
			t = time.Now()
			_, _ = qc.Diameter()
			hitT += time.Since(t)
		}
	}
	note := fmt.Sprintf("%d batches, %d points replayed", batches, pts)
	perPt := func(d time.Duration) float64 { return float64(d) / float64(max(pts, 1)) }
	perBatch := func(d time.Duration) float64 { return us(d) / float64(max(batches, 1)) }
	rep.set("summary.insert_ns_per_pt", "ns", perPt(sumT), note+" through Summary.InsertBatch")
	rep.set("summary.kept_frac", "1", float64(kept)/float64(max(pts, 1)), "points convex.ExtremeCandidates keeps ÷ points in")
	rep.set("core.insert_ns_per_pt", "ns", perPt(coreT), "core.Hull.InsertBatch")
	rep.set("shard.insert_ns_per_pt", "ns", perPt(shardT), "2-shard ShardedHull.InsertBatch")
	rep.set("shard.merge_us", "us", perBatch(mergeT), "ShardedHull.Hull after each batch")
	rep.set("readcache.miss_us", "us", perBatch(missT), "QueryCache.Diameter after an insert")
	rep.set("readcache.hit_us", "us", perBatch(hitT), "QueryCache.Diameter repeated")
	faninSlice(rep, streams)
}

// faninSlice treats up to sliceSources of the workload's streams as
// fan-in sources pushing round-robin after every batch, as fanin-push's
// followers do: full snapshot on first contact or when the delta is not
// smaller, otherwise ComputeDelta/EncodeDelta → DecodeDelta →
// FanInHull.PushDelta. It times the apply and the lazy re-merge on read.
func faninSlice(rep *report, streams [][][]geom.Point) {
	srcs := streams[:min(len(streams), sliceSources)]
	agg, _ := streamhull.NewFanIn(r)
	type state struct {
		sum      streamhull.Summary
		ackEpoch uint64
		ack      []geom.Point
	}
	st := make([]state, len(srcs))
	rounds := 0
	for i, bs := range srcs {
		st[i].sum, _ = streamhull.New(adaptiveSpec)
		rounds = max(rounds, len(bs))
	}
	total := 0
	for _, bs := range srcs {
		total += len(bs)
	}
	mergeEvery := max(1, total/maxMerges)
	var applyT, mergeT time.Duration
	var pushes, fulls, deltaBytes, deltas, merges int
	for j := range rounds {
		for i, bs := range srcs {
			if j >= len(bs) {
				continue
			}
			s := &st[i]
			_, _ = s.sum.InsertBatch(bs[j])
			snap := s.sum.(streamhull.Snapshotter).Snapshot()
			full, _ := snap.Encode()
			name := fmt.Sprintf("src%02d", i)
			epoch := uint64(j + 1)
			var frame []byte
			if s.ack != nil {
				frame = fanin.EncodeDelta(fanin.ComputeDelta(s.ackEpoch, epoch, snap.N, s.ack, snap.Points))
			}
			var err error
			if frame != nil && len(frame) < len(full) {
				d, derr := fanin.DecodeDelta(frame)
				if derr != nil {
					rep.fail("fan-in slice: decoding a delta: %v", derr)
					return
				}
				t := time.Now()
				err = agg.PushDelta(name, d)
				applyT += time.Since(t)
				deltas++
				deltaBytes += len(frame)
			} else {
				t := time.Now()
				err = agg.Push(name, epoch, snap)
				applyT += time.Since(t)
				fulls++
			}
			if err != nil {
				rep.fail("fan-in slice: push: %v", err)
				return
			}
			s.ackEpoch, s.ack = epoch, snap.Points
			pushes++
			if pushes%mergeEvery == 0 {
				t := time.Now()
				_ = agg.Hull()
				mergeT += time.Since(t)
				merges++
			}
		}
	}
	rep.set("fanin.delta_bytes", "B", float64(deltaBytes)/float64(max(deltas, 1)), fmt.Sprintf("%d deltas", deltas))
	rep.set("fanin.full_frac", "1", float64(fulls)/float64(max(pushes, 1)), fmt.Sprintf("%d full of %d pushes from %d sources", fulls, pushes, len(srcs)))
	rep.set("fanin.apply_us", "us", us(applyT)/float64(max(pushes, 1)), "FanInHull.PushDelta or Push")
	rep.set("fanin.merge_us", "us", us(mergeT)/float64(max(merges, 1)), fmt.Sprintf("FanInHull.Hull re-merge, %d timed", merges))
}

// storeSlice replays the workload's batches through the storage engine
// the way a durable server would (create, append, a checkpoint every
// -checkpoint points and a final one on close, reopen, load), for
// workloads whose live server keeps no store; it then times an
// in-process server.New on the crash image taken before the closes.
func storeSlice(rep *report, w *workloadDef, streams [][][]geom.Point, dir string) error {
	cfg, err := inProcessConfig(w, "")
	if err != nil {
		return err
	}
	live := filepath.Join(dir, "live")
	st, err := store.Open("", live, store.Options{Sync: cfg.Sync, Interval: cfg.FsyncInterval, Logger: cfg.Logger})
	if err != nil {
		return err
	}
	defer st.Close()
	var createT, appendT, ckptT, openT, loadT time.Duration
	var appends, ckpts int
	srcs := streams[:min(len(streams), sliceSources)]
	apps := make([]store.Appender, len(srcs))
	sums := make([]streamhull.Summary, len(srcs))
	for i, bs := range srcs {
		key := fmt.Sprintf("s%02d", i)
		t := time.Now()
		app, err := st.Create(key, adaptiveSpec)
		createT += time.Since(t)
		if err != nil {
			return err
		}
		apps[i] = app
		sums[i], _ = streamhull.New(adaptiveSpec)
		since := 0
		for _, b := range bs {
			t := time.Now()
			err := app.Append(b)
			appendT += time.Since(t)
			if err != nil {
				return err
			}
			appends++
			_, _ = sums[i].InsertBatch(b)
			if since += len(b); since >= cfg.CheckpointEvery {
				d, err := checkpoint(app, sums[i])
				ckptT += d
				if err != nil {
					return err
				}
				ckpts++
				since = 0
			}
		}
	}
	crash := filepath.Join(dir, "crash")
	if err := copyDir(live, crash); err != nil {
		return err
	}
	for i, app := range apps {
		d, err := checkpoint(app, sums[i])
		ckptT += d
		if err != nil {
			return err
		}
		ckpts++
		if err := app.Close(); err != nil {
			return err
		}
	}
	for i := range srcs {
		key := fmt.Sprintf("s%02d", i)
		t := time.Now()
		app, err := st.Open(key)
		openT += time.Since(t)
		if err != nil {
			return err
		}
		if err := app.Close(); err != nil {
			return err
		}
		t = time.Now()
		_, err = st.Load(key)
		loadT += time.Since(t)
		if err != nil {
			return err
		}
	}
	n := float64(len(srcs))
	rep.set("store.create_us", "us", us(createT)/n, fmt.Sprintf("replay of %d streams into an fswal store", len(srcs)))
	rep.set("store.append_us", "us", us(appendT)/float64(max(appends, 1)), fmt.Sprintf("%d appends", appends))
	rep.set("store.checkpoint_us", "us", us(ckptT)/float64(max(ckpts, 1)), fmt.Sprintf("%d checkpoints", ckpts))
	rep.set("store.open_us", "us", us(openT)/n, "")
	rep.set("store.load_us", "us", us(loadT)/n, "")

	cfg.DataDir = crash
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("recovering the store slice's crash image: %w", err)
	}
	rep.set("store.recover_s", "s", time.Since(start).Seconds(), "in-process server.New on the replay's crash image")
	if err := srv.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// checkpoint seals sum's snapshot into app, as the server's checkpoint
// does, and returns the time the store took.
func checkpoint(app store.Appender, sum streamhull.Summary) (time.Duration, error) {
	data, err := sum.(streamhull.Snapshotter).Snapshot().MarshalBinary()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	err = app.Checkpoint(data)
	return time.Since(t), err
}
