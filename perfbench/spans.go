package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the request id that ties a client span to the
// server span of the same request.
const reqHeader = "X-Perfbench-Req"

// maxSpans bounds the spans one traced run keeps in memory; later ones
// are not recorded.
const maxSpans = 1 << 20

// span is one timed call across a layer boundary.
type span struct {
	Layer string `json:"layer"`
	Req   uint64 `json:"req,omitempty"` // shared by the client and server spans of one request (0 = not tied to one)
	Start int64  `json:"start_ns"`      // since the recorder's origin
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory; write saves them
// when the run ends.
type recorder struct {
	origin  time.Time
	nextReq atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// record adds a span that started at start and ends now.
func (r *recorder) record(layer string, req uint64, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Layer: layer, Req: req,
			Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
	}
	r.mu.Unlock()
}

// newReq returns a fresh request id.
func (r *recorder) newReq() uint64 { return r.nextReq.Add(1) }

// byLayer groups the recorded spans' durations.
func (r *recorder) byLayer() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]span{}
	for _, s := range r.spans {
		out[s.Layer] = append(out[s.Layer], s)
	}
	return out
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanUS is the mean span duration in microseconds (0 for none).
func meanUS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range spans {
		total += s.dur()
	}
	return us(total) / float64(len(spans))
}

// parseReq reads a request id header (0 when absent).
func parseReq(h string) uint64 {
	id, _ := strconv.ParseUint(h, 10, 64)
	return id
}
