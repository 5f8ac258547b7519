package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"github.com/streamgeom/streamhull/internal/server"
	"github.com/streamgeom/streamhull/internal/store"
	"github.com/streamgeom/streamhull/internal/wal"
	"github.com/streamgeom/streamhull/internal/workload"
)

// StorePoint is one row of the cold-tier storage experiment: a server
// owning far more streams than its residency cap, with memory and
// latency accounted per tier.
type StorePoint struct {
	Backend      string  // fswal or memory
	Streams      int     // streams created
	Hot          int     // MaxResident cap
	PointsPer    int     // points ingested per stream
	CreatePerSec float64 // stream create+ingest rate during fill, streams/s
	HotPtSec     float64 // steady-state ingest rate over the hot set, points/s
	HeapMB       float64 // heap growth owning all streams, MiB (RSS proxy)
	HeapPerCold  float64 // bytes of heap per stream beyond the hot set
	Resident     int     // summaries actually warm at the end
	RehydrateUs  float64 // mean cold-touch rehydration latency, µs
	EvictTotal   float64 // lifetime evictions
}

// StoreSweep builds a server with a MaxResident cap far below the
// stream count, fills it with streams (each ingesting pointsPer points
// through the real HTTP handler), then hammers a hot subset while the
// rest sit cold. It demonstrates the cold tier's claim: resident memory
// is O(hot·summary + streams·r_bytes) — the paper's O(r) checkpoint is
// what makes the per-cold-stream term a few hundred bytes — rather than
// O(streams·summary).
//
// backend chooses the storage engine: "memory" (default; the whole
// experiment in RAM, so heap growth IS the storage cost), or "fswal"
// rooted in a throwaway directory under dir.
func StoreSweep(backend string, streams, hot, pointsPer, r int, seed int64, dir string) (*StorePoint, error) {
	cfg := server.Config{
		DefaultR:    r,
		MaxStreams:  streams + 8,
		MaxResident: hot,
		Sync:        wal.SyncNone,
	}
	switch backend {
	case "", "memory":
		backend = "memory"
		cfg.Store = store.NewMemory()
	case "fswal":
		tmp, err := os.MkdirTemp(dir, "store-sweep-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		cfg.DataDir = tmp
	default:
		return nil, fmt.Errorf("store sweep: unknown backend %q", backend)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// One shared ingest body: per-stream point identity is irrelevant to
	// a memory/throughput experiment, and encoding once keeps the fill
	// phase measuring the server, not the client.
	pts := workload.Take(workload.Ellipse(seed, 1, 0.6, 0.3), pointsPer)
	body := struct {
		Points [][2]float64 `json:"points"`
	}{Points: make([][2]float64, len(pts))}
	for i, p := range pts {
		body.Points[i] = [2]float64{p.X, p.Y}
	}
	ingestBody, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	post := func(id string) error {
		req := httptest.NewRequest("POST", "/v1/streams/"+id+"/points",
			bytes.NewReader(ingestBody))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			return fmt.Errorf("ingest %s: %d %s", id, w.Code, w.Body.String())
		}
		return nil
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	fillStart := time.Now()
	for i := 0; i < streams; i++ {
		if err := post(fmt.Sprintf("s%07d", i)); err != nil {
			return nil, err
		}
	}
	fillDur := time.Since(fillStart)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)

	// Steady state: every ingest lands inside the hot set, so after the
	// first round it measures warm-path throughput under the cap.
	hotStart := time.Now()
	hotPts := 0
	rounds := 3
	for round := 0; round < rounds; round++ {
		for i := 0; i < hot; i++ {
			if err := post(fmt.Sprintf("s%07d", i)); err != nil {
				return nil, err
			}
			hotPts += pointsPer
		}
	}
	hotDur := time.Since(hotStart)

	// Rehydration latency: touch streams guaranteed cold (just beyond
	// the hot set — untouched since the fill).
	sample := min(64, streams-hot)
	rehydrate := time.Duration(0)
	for i := 0; i < sample; i++ {
		id := fmt.Sprintf("s%07d", hot+i)
		t0 := time.Now()
		req := httptest.NewRequest("GET", "/v1/streams/"+id+"/hull", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			return nil, fmt.Errorf("rehydrating %s: %d %s", id, w.Code, w.Body.String())
		}
		rehydrate += time.Since(t0)
	}

	p := &StorePoint{
		Backend:      backend,
		Streams:      streams,
		Hot:          hot,
		PointsPer:    pointsPer,
		CreatePerSec: float64(streams) / fillDur.Seconds(),
		HotPtSec:     float64(hotPts) / hotDur.Seconds(),
		HeapMB:       heap / (1 << 20),
		Resident:     srv.ResidentStreams(),
		EvictTotal:   srv.Evictions(),
	}
	if cold := streams - hot; cold > 0 {
		p.HeapPerCold = heap / float64(cold)
	}
	if sample > 0 {
		p.RehydrateUs = float64(rehydrate.Microseconds()) / float64(sample)
	}
	return p, nil
}

// FprintStore renders the row the way the hullbench tables do.
func (p *StorePoint) String() string {
	return fmt.Sprintf("%-7s %9d %7d %5d %10.0f %12.0f %9.1f %11.0f %9d %9.0f %9.0f",
		p.Backend, p.Streams, p.Hot, p.PointsPer, p.CreatePerSec, p.HotPtSec,
		p.HeapMB, p.HeapPerCold, p.Resident, p.RehydrateUs, p.EvictTotal)
}

// StoreHeader is the column header matching StorePoint.String.
const StoreHeader = "backend  streams     hot   pts  create/s  hot-point/s   heap-MB  B/cold-str  resident  rehyd-µs    evicts"
