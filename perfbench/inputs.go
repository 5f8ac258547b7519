package main

import (
	"fmt"
	"math/rand"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

// r is the sample parameter of every stream the benchmark creates.
const r = 32

var adaptiveSpec = streamhull.Spec{Kind: streamhull.KindAdaptive, R: r}

// stream is one written stream: its deterministic point source and how
// many of its batches the server acknowledged. Exactly one connection
// writes a stream, so its batch order is the order the server applied.
type stream struct {
	id     string
	spec   streamhull.Spec
	batch  int
	newGen func() workload.Generator
	gen    workload.Generator // the generator the load loop draws from
	acked  int                // batches acknowledged, in order
	lost   bool               // a write failed, so the server's state is unknown
}

func newStream(id string, spec streamhull.Spec, batch int, newGen func() workload.Generator) *stream {
	return &stream{id: id, spec: spec, batch: batch, newGen: newGen, gen: newGen()}
}

// next draws the stream's next batch.
func (s *stream) next() []geom.Point { return workload.Take(s.gen, s.batch) }

// replay regenerates the acknowledged batches in order.
func (s *stream) replay(fn func(batch []geom.Point)) {
	g := s.newGen()
	for range s.acked {
		fn(workload.Take(g, s.batch))
	}
}

// subSeed derives an independent generator seed for part i of a run.
func subSeed(seed int64, part string, i int) int64 {
	h := int64(1469598103934665603)
	for _, c := range fmt.Sprintf("%d/%s/%d", seed, part, i) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

// zipfPicker chooses among a connection's streams with a seeded Zipf
// law: a few streams take most writes, the long tail stays cold. Which
// streams are popular is itself a seeded shuffle, so popularity does not
// follow stream ids.
type zipfPicker struct {
	z     *rand.Zipf
	order []int // order[k] is the stream of popularity rank k
}

// newZipfPicker ranks owned (stream indices) for one connection; rank k
// is chosen with probability proportional to (v+k)^-s.
func newZipfPicker(seed int64, owned []int, s, v float64) *zipfPicker {
	rng := rand.New(rand.NewSource(seed))
	order := append([]int(nil), owned...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &zipfPicker{z: rand.NewZipf(rng, s, v, uint64(len(order)-1)), order: order}
}

func (p *zipfPicker) next() int { return p.order[p.z.Uint64()] }
