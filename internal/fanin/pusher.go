package fanin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/trace"
)

// StreamSnapshot is one follower stream's push payload: an
// already-encoded JSON snapshot plus the head fields the pusher needs.
// Snapshots stay opaque bytes here so the package sits below the root
// streamhull package in the import graph (the root FanInHull wraps
// Table).
type StreamSnapshot struct {
	Stream string // stream id, same on follower and aggregator
	R      int    // sample parameter, used to size the aggregate on create
	Data   []byte // JSON-encoded streamhull.Snapshot
	// N and Points expose the snapshot's head count and sample slots so
	// the pusher can diff against the last acked push and send a delta
	// frame instead of Data. Nil Points (an embedder that only fills
	// Data) disables delta mode for the stream — every push is full.
	N      int
	Points []geom.Point
}

// PusherConfig parameterizes a follower push loop.
type PusherConfig struct {
	// Target is the aggregator's base URL (e.g. "http://agg:8080").
	Target string
	// Source is this follower's name; the aggregator keys contributions
	// by it, so it must be stable across restarts and unique per
	// follower.
	Source string
	// Interval is the push period (0 = 5s).
	Interval time.Duration
	// Collect returns the current snapshots to push — one per local
	// stream (the server's StreamSnapshots method).
	Collect func() []StreamSnapshot
	// Client is the HTTP client to push with (nil = 10s-timeout client).
	Client *http.Client
	// Logger receives structured push-failure logs with stream/target/
	// trace-id fields; nil discards them. Failures never stop the loop —
	// a follower keeps retrying on its interval, which is what re-syncs
	// it after the aggregator restarts.
	Logger *slog.Logger
	// Tracer, when set, starts a "fanin.push" root span per stream push
	// and propagates its W3C traceparent on the HTTP requests, so the
	// follower's push and the aggregator's handling of it are one
	// distributed trace (the aggregator's record is marked remote).
	Tracer *trace.Tracer
	// Epoch stamps each push. The default — wall-clock nanoseconds — is
	// monotone across follower restarts, so a restarted follower's first
	// push supersedes everything its previous incarnation sent. Override
	// only in tests.
	Epoch func() uint64
	// Token is the bearer token sent with every request when the
	// aggregator runs with authentication ("" = no Authorization header).
	// It must carry the push role for the tenant whose namespace the
	// aggregates live in.
	Token string
	// AdvertiseURL, when set, rides every push as the follower's own
	// base URL, letting the aggregator pull this follower's snapshot
	// itself when its pushes lag (see the server's PullAfter). It must
	// be a URL the AGGREGATOR can reach this process on.
	AdvertiseURL string
	// MaxRetries bounds in-tick retries of one stream's push after a
	// transient failure — a network error, 5xx, 429 (whose Retry-After is
	// honored) or 401 (a token being rolled on the aggregator). 0 = 4;
	// negative disables retrying. Non-transient rejections (403, 409
	// stale epoch, 400) never retry: backing off cannot fix them.
	MaxRetries int
	// Backoff is the first retry delay; later retries double it up to
	// 32x, each with ±25% jitter so a fleet of followers that failed
	// together does not retry together (0 = 200ms).
	Backoff time.Duration
}

// PusherStats is a point-in-time snapshot of a pusher's counters.
type PusherStats struct {
	// Pushes counts stream pushes accepted by the aggregator.
	Pushes uint64
	// Failures counts stream pushes abandoned after retries ran out (the
	// next interval tick tries again from scratch).
	Failures uint64
	// Retries counts individual retry attempts across all pushes.
	Retries uint64
	// ConsecutiveFailures counts abandoned pushes since the last success;
	// a growing value means the aggregator has been unreachable for that
	// many attempts (exported as a staleness alarm on /metrics).
	ConsecutiveFailures uint64
	// DeltaPushes / FullPushes split Pushes by wire mode.
	DeltaPushes uint64
	FullPushes  uint64
	// Resyncs counts delta pushes the aggregator bounced with a resync
	// rejection (answered with a full snapshot in the same attempt). A
	// steadily growing value means the two sides keep losing their
	// shared base — an aggregator restarting, or pulls racing pushes.
	Resyncs uint64
	// BytesPushed sums the accepted pushes' body bytes — the number the
	// delta encoding exists to shrink (hullbench -fanin reports it per
	// push for both modes).
	BytesPushed uint64
}

// pusherCounters is the atomic backing for PusherStats; Run's loop and
// Stats() race benignly across goroutines.
type pusherCounters struct {
	pushes, failures, retries, consec  atomic.Uint64
	deltas, fulls, resyncs, bytesAccum atomic.Uint64
}

// HTTPError is a non-2xx aggregator response, carrying what retry logic
// needs: the status code, the error envelope's machine code, and any
// Retry-After hint.
type HTTPError struct {
	StatusCode int
	Code       string        // error envelope "code" field ("" when absent)
	RetryAfter time.Duration // parsed Retry-After (0 = none)
	Msg        string        // status line + response body excerpt
}

func (e *HTTPError) Error() string { return e.Msg }

// Transient reports whether backing off and retrying can help: rate
// limiting (429), server trouble (5xx), or a 401 from a token rolling
// over on the aggregator. Role and state rejections (403, 404, 409) are
// deterministic and never retried.
func (e *HTTPError) Transient() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusUnauthorized ||
		e.StatusCode >= 500
}

// httpError builds an HTTPError from a non-2xx response, consuming (a
// bounded prefix of) its body.
func httpError(context string, resp *http.Response) *HTTPError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	he := &HTTPError{
		StatusCode: resp.StatusCode,
		Msg:        fmt.Sprintf("%s: %s: %s", context, resp.Status, bytes.TrimSpace(body)),
	}
	var envelope struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &envelope) == nil {
		he.Code = envelope.Code
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		he.RetryAfter = time.Duration(secs) * time.Second
	}
	return he
}

// Pusher runs the follower side of continuous fan-in: every Interval it
// collects local stream snapshots and pushes each to the same-named
// aggregate stream on Target, creating the aggregate on first contact.
type Pusher struct {
	cfg     PusherConfig
	created map[string]bool // aggregate streams known to exist
	// acked remembers, per stream, the last push the aggregator
	// acknowledged — the shared base the next delta builds on. Only the
	// push loop's goroutine touches it.
	acked map[string]ackState
	stats pusherCounters
}

// ackState is the pusher's copy of what the aggregator last accepted
// for one stream.
type ackState struct {
	epoch  uint64
	n      int
	points []geom.Point
}

// NewPusher validates the config and returns a ready pusher.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("fanin: pusher requires a target URL")
	}
	if _, err := url.Parse(cfg.Target); err != nil {
		return nil, fmt.Errorf("fanin: target URL: %w", err)
	}
	if cfg.Source == "" {
		return nil, fmt.Errorf("fanin: pusher requires a source name")
	}
	if cfg.Collect == nil {
		return nil, fmt.Errorf("fanin: pusher requires a collect function")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Epoch == nil {
		cfg.Epoch = func() uint64 { return uint64(time.Now().UnixNano()) }
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Pusher{cfg: cfg, created: make(map[string]bool), acked: make(map[string]ackState)}, nil
}

// Stats returns a snapshot of the pusher's counters; safe to call from
// any goroutine while Run is looping (hullserver exports them on
// /metrics).
func (p *Pusher) Stats() PusherStats {
	return PusherStats{
		Pushes:              p.stats.pushes.Load(),
		Failures:            p.stats.failures.Load(),
		Retries:             p.stats.retries.Load(),
		ConsecutiveFailures: p.stats.consec.Load(),
		DeltaPushes:         p.stats.deltas.Load(),
		FullPushes:          p.stats.fulls.Load(),
		Resyncs:             p.stats.resyncs.Load(),
		BytesPushed:         p.stats.bytesAccum.Load(),
	}
}

// Run pushes once immediately, then on every interval tick until ctx is
// done. Push failures are logged and retried next tick.
func (p *Pusher) Run(ctx context.Context) {
	p.pushAll(ctx)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.pushAll(ctx)
		}
	}
}

// PushOnce collects and pushes every local stream once, returning the
// first error (the loop form logs instead).
func (p *Pusher) PushOnce(ctx context.Context) error {
	var firstErr error
	for _, ss := range p.cfg.Collect() {
		if err := p.pushStream(ctx, ss); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (p *Pusher) pushAll(ctx context.Context) {
	for _, ss := range p.cfg.Collect() {
		if err := p.pushStream(ctx, ss); err != nil {
			p.cfg.Logger.Error("fanin: push failed",
				"stream", ss.Stream, "target", p.cfg.Target, "err", err)
		}
	}
}

// pushStream ensures the aggregate exists, then pushes one snapshot —
// as an epoch-ranged delta against the last acked push when the stream
// exposes its sample slots and the delta is actually smaller, falling
// back to the full snapshot when the aggregator cannot anchor the
// delta (resync) — and retries transient failures with backoff (see
// withRetry). A 409 on create means the aggregate already exists
// (fine); a failed create is retried on the next push rather than
// cached. A failed PUSH also clears the created mark: an in-memory
// aggregator that restarted has forgotten the aggregate, and
// re-creating it on the next tick is exactly the re-sync the follower
// loop promises.
func (p *Pusher) pushStream(ctx context.Context, ss StreamSnapshot) error {
	// One root span per stream push; its traceparent travels in the
	// request context onto the HTTP headers, so the aggregator's handler
	// continues the same trace id on its side.
	sp := p.cfg.Tracer.StartSpan("fanin.push", "")
	sp.SetAttr("stream", ss.Stream)
	sp.SetAttr("source", p.cfg.Source)
	pctx := trace.ContextWithSpan(ctx, sp)
	mode := "full"
	err := p.withRetry(ctx, func() error {
		if !p.created[ss.Stream] {
			if err := EnsureAggregate(pctx, p.cfg.Client, p.cfg.Target, p.cfg.Token, ss.Stream, ss.R); err != nil {
				return err
			}
			p.created[ss.Stream] = true
		}
		epoch := p.cfg.Epoch()
		if ack, ok := p.acked[ss.Stream]; ok && ss.Points != nil {
			d := ComputeDelta(ack.epoch, epoch, ss.N, ack.points, ss.Points)
			frame := EncodeDelta(d)
			if len(frame) < len(ss.Data) {
				acked, err := PushDelta(pctx, p.cfg.Client, p.cfg.Target, p.cfg.Token,
					ss.Stream, p.cfg.Source, p.cfg.AdvertiseURL, frame)
				if err == nil {
					mode = "delta"
					p.recordAck(ss, acked)
					p.stats.deltas.Add(1)
					p.stats.bytesAccum.Add(uint64(len(frame)))
					return nil
				}
				var he *HTTPError
				if !errors.As(err, &he) || !resyncable(he) {
					return err
				}
				// The aggregator cannot anchor this delta (restarted, a
				// pull moved the epoch, or it predates delta support) —
				// fall through to a full snapshot in this same attempt.
				p.stats.resyncs.Add(1)
				p.cfg.Logger.Info("fanin: delta bounced, resyncing with a full snapshot",
					"stream", ss.Stream, "err", err)
				// A stale-epoch bounce means something (a pull, a racing
				// duplicate) moved the source's epoch past ours; take a
				// fresh epoch so the resync supersedes it.
				epoch = p.cfg.Epoch()
			}
		}
		acked, err := Push(pctx, p.cfg.Client, p.cfg.Target, p.cfg.Token,
			ss.Stream, p.cfg.Source, p.cfg.AdvertiseURL, epoch, ss.Data)
		if err != nil {
			return err
		}
		mode = "full"
		p.recordAck(ss, acked)
		p.stats.fulls.Add(1)
		p.stats.bytesAccum.Add(uint64(len(ss.Data)))
		return nil
	})
	if err != nil {
		sp.SetAttr("status", "error")
		sp.End()
		delete(p.created, ss.Stream)
		p.stats.failures.Add(1)
		p.stats.consec.Add(1)
		return err
	}
	sp.SetAttr("status", "ok")
	sp.SetAttr("mode", mode)
	sp.End()
	p.stats.pushes.Add(1)
	p.stats.consec.Store(0)
	return nil
}

// recordAck stores the push the aggregator just acknowledged as the
// base for the stream's next delta. A Collect that does not expose the
// sample slots leaves the stream in full-push mode.
func (p *Pusher) recordAck(ss StreamSnapshot, ackedEpoch uint64) {
	if ss.Points == nil {
		delete(p.acked, ss.Stream)
		return
	}
	pts := make([]geom.Point, len(ss.Points))
	copy(pts, ss.Points)
	p.acked[ss.Stream] = ackState{epoch: ackedEpoch, n: ss.N, points: pts}
}

// resyncable reports whether a rejected delta push should be answered
// with a full snapshot: an explicit resync demand, a stale-epoch race
// (a pull or a duplicated older frame moved the source's epoch), or a
// plain 400 from an aggregator that predates the delta wire format.
func resyncable(he *HTTPError) bool {
	return he.Code == "resync_required" || he.Code == "stale_epoch" ||
		he.StatusCode == http.StatusBadRequest
}

// withRetry runs op, retrying transient failures (network errors and
// HTTPError.Transient statuses) up to MaxRetries times with exponential
// backoff: the n-th wait is Backoff·2ⁿ capped at 32× — or the server's
// own Retry-After when it sent one — plus ±25% jitter so followers that
// failed together spread back out. Deterministic rejections return
// immediately.
func (p *Pusher) withRetry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		var he *HTTPError
		if errors.As(err, &he) && !he.Transient() {
			return err
		}
		if attempt >= p.cfg.MaxRetries {
			return err
		}
		wait := p.cfg.Backoff << min(attempt, 5)
		if he != nil && he.RetryAfter > wait {
			wait = he.RetryAfter
		}
		// Jitter to wait ± 25%.
		wait += time.Duration(rand.Int63n(int64(wait)/2+1)) - wait/4
		p.stats.retries.Add(1)
		p.cfg.Logger.Warn("fanin: transient push failure, retrying",
			"attempt", attempt+1, "wait", wait.Round(time.Millisecond), "err", err)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(wait):
		}
	}
}

// aggregateSpec is the create body for an aggregate stream: the fan-in
// kind with the merge parameter r (clamped to the adaptive minimum).
func aggregateSpec(r int) string {
	if r < 4 {
		r = 4
	}
	return fmt.Sprintf(`{"kind":"fanin","r":%d}`, r)
}

// authorize attaches the bearer token when one is configured, plus the
// W3C traceparent of any span riding the request context, so the
// receiving server stitches its handling onto the caller's trace.
func authorize(req *http.Request, token string) {
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if tp := trace.FromContext(req.Context()).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
}

// EnsureAggregate creates the aggregate stream (kind "fanin", merge
// parameter r) on target if it does not already exist. An existing
// stream — whatever its kind — is left alone; pushes into a non-fanin
// stream fail loudly at push time instead. Failures are *HTTPError so
// callers can tell transient trouble from deterministic rejection.
func EnsureAggregate(ctx context.Context, client *http.Client, target, token, stream string, r int) error {
	u := fmt.Sprintf("%s/v1/streams/%s", target, url.PathEscape(stream))
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, bytes.NewReader([]byte(aggregateSpec(r))))
	if err != nil {
		return err
	}
	authorize(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusConflict:
		// Created, or someone (us, an earlier incarnation, a peer
		// follower) created it first.
		return nil
	default:
		return httpError(fmt.Sprintf("fanin: creating aggregate %q", stream), resp)
	}
}

// pushURL builds the source-push URL, with the advertised pull-back
// address attached when the follower has one.
func pushURL(target, stream, source, addr string, epoch uint64) string {
	u := fmt.Sprintf("%s/v1/streams/%s/snapshot?source=%s",
		target, url.PathEscape(stream), url.QueryEscape(source))
	if epoch != 0 {
		u += "&epoch=" + strconv.FormatUint(epoch, 10)
	}
	if addr != "" {
		u += "&addr=" + url.QueryEscape(addr)
	}
	return u
}

// decodeAck extracts the acked epoch from a 200 push response; a body
// without one (an aggregator predating the ack protocol) yields the
// fallback so callers can assume their own epoch was the one stored.
func decodeAck(resp *http.Response, fallback uint64) uint64 {
	var body struct {
		AckedEpoch uint64 `json:"acked_epoch"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body) == nil && body.AckedEpoch != 0 {
		return body.AckedEpoch
	}
	return fallback
}

// Push sends one source-tagged full snapshot to the aggregate stream on
// target, returning the epoch the aggregator acknowledged. The body is
// a JSON-encoded streamhull.Snapshot. Failures are *HTTPError so
// callers can tell transient trouble from deterministic rejection.
func Push(ctx context.Context, client *http.Client, target, token, stream, source, addr string, epoch uint64, snapJSON []byte) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		pushURL(target, stream, source, addr, epoch), bytes.NewReader(snapJSON))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, httpError(fmt.Sprintf("fanin: push %q as %q", stream, source), resp)
	}
	return decodeAck(resp, epoch), nil
}

// PushDelta sends one encoded delta frame (see delta.go) to the
// aggregate stream on target, returning the acked epoch. The epochs
// ride inside the frame; the request differs from a full push only in
// its Content-Type. A 409 with code "resync_required" means the
// aggregator cannot anchor the frame and wants a full snapshot instead.
func PushDelta(ctx context.Context, client *http.Client, target, token, stream, source, addr string, frame []byte) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		pushURL(target, stream, source, addr, 0), bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", DeltaContentType)
	authorize(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, httpError(fmt.Sprintf("fanin: delta push %q as %q", stream, source), resp)
	}
	return decodeAck(resp, 0), nil
}
