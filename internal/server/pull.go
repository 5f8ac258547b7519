package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/trace"
)

// Aggregator-initiated pulls.
//
// The push loop's failure mode is silence: a wedged follower (deadlock,
// partition, a push loop that died while the server lived) simply stops
// pushing, and its last contribution goes stale with nothing on the
// aggregator's side but a growing lag_ms. When Config.PullAfter is set,
// the aggregator stops waiting: a background loop scans every fan-in
// aggregate's sources, and any source whose last accepted push is older
// than the threshold — and which advertised a pull-back URL on its
// pushes (?addr=, hullserver's -push-addr) — gets its snapshot FETCHED
// by the aggregator itself: GET {addr}/v1/streams/{id}/snapshot,
// authenticated with Config.PullToken, traced as a "fanin.pull" root
// span, and applied as a normal full push stamped with the pull's
// wall-clock epoch.
//
// That epoch stamp matters twice over. It supersedes the source's stale
// contribution exactly like the follower's own next push would, and —
// because it moves the source's epoch underneath the follower — the
// follower's next delta push no longer anchors and is bounced with
// resync_required, which the pusher answers with a full snapshot. A
// pull therefore never splits the two sides' view of the base; it
// forces the next exchange to re-establish it.
//
// Failures back off per source (doubling from the scan interval up to a
// minute) so one dead follower costs one request a minute, not one per
// scan. Successes and failures are streamhull_fanin_pulls_total and
// streamhull_fanin_pull_errors_total; per-source pull state also rides
// the stream detail response.

// pullState is one source's pull bookkeeping.
type pullState struct {
	pulls    uint64    // successful pulls applied
	failures uint64    // consecutive failures (resets on success)
	lastPull time.Time // when the last successful pull landed
	nextTry  time.Time // backoff gate for the next attempt
}

// puller is the background pull loop's state.
type puller struct {
	s      *Server
	client *http.Client

	mu    sync.Mutex
	state map[string]*pullState // keyed stream-key + "\x00" + source
}

// pullKey joins the aggregate's internal key and a source name.
func pullKey(streamKey, source string) string { return streamKey + "\x00" + source }

// newPuller wires the loop; the caller starts run() when PullAfter > 0.
func newPuller(s *Server) *puller {
	client := s.cfg.PullClient
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &puller{s: s, client: client, state: make(map[string]*pullState)}
}

// interval is the scan period: half the lag threshold, floored so a
// tiny threshold cannot spin the loop.
func (p *puller) interval() time.Duration {
	iv := p.s.cfg.PullAfter / 2
	if iv < 100*time.Millisecond {
		iv = 100 * time.Millisecond
	}
	return iv
}

// run scans until the server closes (the sweepStop channel doubles as
// the server-wide background-loop stop signal).
func (p *puller) run() {
	t := time.NewTicker(p.interval())
	defer t.Stop()
	for {
		select {
		case <-p.s.sweepStop:
			return
		case <-t.C:
			p.scan()
		}
	}
}

// scan walks every fan-in aggregate and pulls each lagging, pullable,
// not-backing-off source once.
func (p *puller) scan() {
	type target struct {
		key    string
		id     string // tenant-local id, the path segment on the follower
		agg    *streamhull.FanInHull
		source string
		addr   string
	}
	now := time.Now()
	var targets []target
	p.s.mu.RLock()
	for key, st := range p.s.streams {
		agg, ok := st.summary().(*streamhull.FanInHull)
		if !ok {
			continue
		}
		_, id := splitTenant(key)
		for _, src := range agg.Sources() {
			if src.Addr == "" || now.Sub(src.LastPush) < p.s.cfg.PullAfter {
				continue
			}
			targets = append(targets, target{key: key, id: id, agg: agg, source: src.Name, addr: src.Addr})
		}
	}
	p.s.mu.RUnlock()
	for _, t := range targets {
		if !p.due(pullKey(t.key, t.source), now) {
			continue
		}
		p.pullOne(t.key, t.id, t.agg, t.source, t.addr)
	}
}

// due consults the backoff gate for one source without mutating it.
func (p *puller) due(key string, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[key]
	return !ok || !now.Before(st.nextTry)
}

// pullOne fetches one source's snapshot from its advertised address and
// applies it as a wall-clock-stamped full push.
func (p *puller) pullOne(key, id string, agg *streamhull.FanInHull, source, addr string) {
	sp := p.s.tracer.StartSpan("fanin.pull", "")
	sp.SetAttr("stream", id)
	sp.SetAttr("source", source)
	err := p.fetchAndApply(sp, id, agg, source, addr)
	if err != nil {
		sp.SetAttr("status", "error")
		sp.End()
		p.s.met.pullErrors.Inc()
		backoff := p.recordFailure(pullKey(key, source))
		p.s.logger.Warn("fanin: pull from lagging source failed",
			"stream", id, "source", source, "addr", addr,
			"backoff", backoff.Round(time.Millisecond), "err", err)
		return
	}
	sp.SetAttr("status", "ok")
	sp.End()
	p.s.met.pullsTotal.Inc()
	p.recordSuccess(pullKey(key, source))
	p.s.logger.Info("fanin: pulled lagging source",
		"stream", id, "source", source, "addr", addr)
}

func (p *puller) fetchAndApply(sp *trace.Span, id string, agg *streamhull.FanInHull, source, addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/v1/streams/%s/snapshot", addr, url.PathEscape(id))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if tok := p.s.cfg.PullToken; tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	if tp := sp.Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, p.s.cfg.MaxBodyBytes))
	if err != nil {
		return err
	}
	snap, err := streamhull.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	// The wall-clock stamp supersedes the source's stale contribution and
	// deliberately moves its epoch, forcing the follower's next delta to
	// resync (see the package comment above).
	return agg.Push(source, uint64(time.Now().UnixNano()), snap)
}

// recordFailure doubles the source's backoff (starting from the scan
// interval, capped at a minute) and returns the wait.
func (p *puller) recordFailure(key string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[key]
	if !ok {
		st = &pullState{}
		p.state[key] = st
	}
	st.failures++
	backoff := p.interval() << min(st.failures, 8)
	if backoff > time.Minute {
		backoff = time.Minute
	}
	st.nextTry = time.Now().Add(backoff)
	return backoff
}

func (p *puller) recordSuccess(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[key]
	if !ok {
		st = &pullState{}
		p.state[key] = st
	}
	st.pulls++
	st.failures = 0
	st.lastPull = time.Now()
	st.nextTry = time.Time{}
}

// sourcePulls reports one source's pull bookkeeping for the stream
// detail response (zeroes when the source was never pulled).
func (p *puller) sourcePulls(streamKey, source string) (pulls uint64, last time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.state[pullKey(streamKey, source)]; ok {
		return st.pulls, st.lastPull
	}
	return 0, time.Time{}
}
