package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: the tail figure is the highest percentile (capped at the
// 99th) that still has at least this many samples beyond it, so a short
// run reports a lower percentile instead of its single worst sample.
const minBeyond = 10

// quantile is one reported order statistic.
type quantile struct {
	Pct   float64 // the percentile actually reported, in (0, 100)
	Value float64 // the sample at that rank
	N     int     // samples it was taken from
}

// medianRank returns the 0-based rank of the median of n sorted samples.
func medianRank(n int) int { return int(math.Ceil(0.5*float64(n))) - 1 }

// quartileRank returns the 0-based rank of the lower quartile of n
// sorted samples.
func quartileRank(n int) int { return max(0, int(math.Ceil(0.25*float64(n)))-1) }

// tailRank returns the 0-based rank of the highest percentile, at most
// the 99th, with at least minBeyond samples above it. ok is false when n
// is too small for any such rank.
func tailRank(n int) (rank int, ok bool) {
	if n < minBeyond+1 {
		return 0, false
	}
	rank = int(math.Ceil(0.99*float64(n))) - 1
	if limit := n - 1 - minBeyond; rank > limit {
		rank = limit
	}
	return rank, true
}

// summarize sorts samples in place and returns their lower quartile,
// median and tail quantile under the minBeyond rule.
func summarize(samples []float64) (q1, median, tail quantile, err error) {
	n := len(samples)
	r, ok := tailRank(n)
	if !ok {
		return quantile{}, quantile{}, quantile{}, fmt.Errorf("%d samples: need at least %d for a tail percentile", n, minBeyond+1)
	}
	sort.Float64s(samples)
	at := func(rank int) quantile {
		return quantile{Pct: 100 * float64(rank+1) / float64(n), Value: samples[rank], N: n}
	}
	return at(quartileRank(n)), at(medianRank(n)), at(r), nil
}

// medianOf returns the median of xs without reordering the caller's
// slice.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[medianRank(len(s))]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const (
	// chunkMin is the smallest chunk the latency figures are taken over:
	// enough samples for a 99th percentile with minBeyond beyond it.
	chunkMin = 1100
	// maxChunks bounds how many chunks (and rate windows) a run is cut
	// into.
	maxChunks = 10
)

// chunkedLatency cuts the samples, in send order, into as many equal
// chunks of at least chunkMin as fit (at most maxChunks; one chunk when
// there are fewer samples), takes the lower quartile, median and tail of
// each, and returns the median of each over the chunks. A stall confined
// to one chunk moves that chunk's tail, not the reported one.
func chunkedLatency(ss []sample) (p25, p50, tail quantile, chunks int, err error) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
	chunks = max(1, min(maxChunks, len(ss)/chunkMin))
	var q1s, meds, tails []float64
	for c := range chunks {
		part := ss[c*len(ss)/chunks : (c+1)*len(ss)/chunks]
		lat := make([]float64, len(part))
		for i, s := range part {
			lat[i] = s.ms()
		}
		q, m, t, err := summarize(lat)
		if err != nil {
			return quantile{}, quantile{}, quantile{}, 0, err
		}
		q1s, meds, tails = append(q1s, q.Value), append(meds, m.Value), append(tails, t.Value)
		p25, p50, tail = q, m, t
	}
	p25.Value, p50.Value, tail.Value = medianOf(q1s), medianOf(meds), medianOf(tails)
	p25.N, p50.N, tail.N = len(ss), len(ss), len(ss)
	return p25, p50, tail, chunks, nil
}

// windowRate cuts the measured span (first send to last completion)
// into maxChunks equal windows, sums weight over the operations that
// completed in each, and returns the median per-second rate over the
// windows, with the plain total and span for reference.
func windowRate(ss []sample, weight func(sample) float64) (perSec, total float64, span time.Duration) {
	if len(ss) == 0 {
		return 0, 0, 0
	}
	first, last := ss[0].start, ss[0].done
	for _, s := range ss {
		if s.start.Before(first) {
			first = s.start
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	span = last.Sub(first)
	win := make([]float64, maxChunks)
	for _, s := range ss {
		i := min(maxChunks-1, int(int64(s.done.Sub(first))*maxChunks/int64(max(span, 1))))
		w := weight(s)
		win[i] += w
		total += w
	}
	for i := range win {
		win[i] /= span.Seconds() / maxChunks
	}
	return medianOf(win), total, span
}
