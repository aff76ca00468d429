package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macc/internal/ccache"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// ClientOptions configures a resilient farm client. Zero values select the
// defaults noted on each field.
type ClientOptions struct {
	// Peers are the replica base URLs ("http://host:port").
	Peers []string
	// AttemptTimeout bounds one compile/run attempt (default 10s).
	AttemptTimeout time.Duration
	// Seed makes backoff jitter deterministic for tests (0 seeds from the
	// wall clock).
	Seed int64
	// Metrics receives the client's counters (nil: private registry).
	Metrics *telemetry.Registry
	// Tracer records a span per logical call and per attempt, parented
	// under the span context carried by the call's ctx. The attempt span's
	// context rides the traceparent header, so the answering replica's
	// ingress span parents under the exact attempt that reached it. Nil
	// disables tracing.
	Tracer *dtrace.Tracer
}

// Retry policy and limits shared by every client.
const (
	// lookupTimeout bounds one peer cache-lookup attempt. Lookups are an
	// optimization: a slow peer must cost less than the compile it would
	// have saved.
	lookupTimeout = 300 * time.Millisecond
	// maxAttempts bounds the rounds of one compile/run call, first try
	// included.
	maxAttempts = 3
	// backoffBase and backoffMax shape the exponential backoff between
	// rounds; jitter in [0.5, 1.5) is applied.
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
	// maxResponse bounds a response body in bytes.
	maxResponse = 16 << 20
)

// StatusError is a non-retryable HTTP-level answer from a peer (a 4xx, or
// a 5xx that survived every retry), carrying the service's error message.
type StatusError struct {
	Code int
	Msg  string
	Peer string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("peer %s: status %d: %s", e.Peer, e.Code, e.Msg)
}

// ErrNoPeers means every peer's circuit breaker was open for the whole
// retry budget: the farm is unreachable and the caller should fall back to
// a local compile.
var ErrNoPeers = errors.New("farm: no peer available (all circuit breakers open)")

// peerState is one replica as seen by the client.
type peerState struct {
	name    string
	url     string
	breaker *Breaker
}

// Client is the resilient farm client used replica-to-replica (peer cache
// lookups) and by cmd/macc and cmd/loadgen (remote compiles). It starts no
// goroutines, so it needs no Close. All methods are safe for concurrent use.
type Client struct {
	opts  ClientOptions
	peers []*peerState
	reg   *telemetry.Registry

	rmu sync.Mutex
	rng *rand.Rand

	next atomic.Uint64 // round-robin rotation of the first peer tried
}

// NewClient builds a client over the given peers.
func NewClient(opts ClientOptions) *Client {
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 10 * time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		opts: opts,
		reg:  reg,
		rng:  rand.New(rand.NewSource(seed)),
	}
	for _, u := range opts.Peers {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		name := u
		if p, err := url.Parse(u); err == nil && p.Host != "" {
			name = p.Host
		}
		c.peers = append(c.peers, &peerState{
			name:    name,
			url:     u,
			breaker: NewBreaker(),
		})
	}
	return c
}

// PeerURLs returns the configured peer base URLs (trace assembly fans a
// /debug/trace pull across these).
func (c *Client) PeerURLs() []string {
	urls := make([]string, len(c.peers))
	for i, p := range c.peers {
		urls[i] = p.url
	}
	return urls
}

// Metrics returns the registry the client publishes into.
func (c *Client) Metrics() *telemetry.Registry { return c.reg }

// PublishStats refreshes the breaker gauges (farm.breaker_trips,
// farm.breaker_open) in the metrics registry; callers snapshotting metrics
// invoke it first.
func (c *Client) PublishStats() {
	var trips int64
	var open float64
	for _, p := range c.peers {
		trips += p.breaker.Trips()
		if p.breaker.State() != Closed {
			open++
		}
	}
	c.reg.Gauge("farm.breaker_trips").Set(float64(trips))
	c.reg.Gauge("farm.breaker_open").Set(open)
}

// callSpec shapes one resilient call.
type callSpec struct {
	method   string
	path     string
	body     []byte
	timeout  time.Duration // per attempt
	attempts int
	kind     string // dtrace span kind for the call span (KindCall/KindLookup)
}

// callResult is one call's outcome.
type callResult struct {
	status int
	body   []byte
	peer   string
	err    error
}

// call runs the retry loop for one logical request. Each round picks a peer
// whose breaker admits (a different one from the peer that just failed,
// whenever another admits) and makes one attempt under the per-attempt
// timeout. A retry that fails over to another peer goes out at once; one
// that has nowhere else to go (only the failed peer admits, or no breaker
// does) first waits out a jittered exponential backoff. One call span
// wraps the whole loop; each attempt gets its own span.
func (c *Client) call(ctx context.Context, spec callSpec) callResult {
	if len(c.peers) == 0 {
		return callResult{err: ErrNoPeers}
	}
	callSp := c.opts.Tracer.StartSpan(dtrace.FromContext(ctx), spec.path, spec.kind)
	defer callSp.End()
	last := callResult{err: ErrNoPeers}
	var failed *peerState // the peer the previous round failed on
	rounds := 0
	for rounds < spec.attempts {
		p := c.pickPeer(failed)
		if rounds > 0 {
			c.reg.Counter("farm.retries").Add(1)
			if p == nil || p == failed {
				// No other peer to fail over to. The admission is released
				// for the wait and claimed afresh after it, when another
				// peer's cooldown may have run out.
				if p != nil {
					p.breaker.Cancel()
				}
				if err := c.sleepBackoff(ctx, rounds); err != nil {
					callSp.SetErr(err.Error())
					return callResult{err: err}
				}
				p = c.pickPeer(failed)
			}
		}
		rounds++
		if p == nil {
			last = callResult{err: ErrNoPeers}
			c.reg.Counter("farm.no_peer").Add(1)
			continue
		}
		res := c.attempt(ctx, spec, p, callSp.Context())
		if res.err == nil && res.status < 500 {
			callSp.SetAttr("rounds", itoa(rounds))
			callSp.SetAttr("peer", res.peer)
			callSp.SetAttr("status", itoa(res.status))
			return res
		}
		if ctx.Err() != nil {
			callSp.SetErr(ctx.Err().Error())
			return callResult{err: ctx.Err()}
		}
		last, failed = res, p
	}
	if last.err == nil {
		// A 5xx that survived every retry surfaces as a StatusError.
		last.err = &StatusError{Code: last.status, Msg: errorMsg(last.body), Peer: last.peer}
	}
	callSp.SetAttr("rounds", itoa(rounds))
	callSp.SetErr(last.err.Error())
	return last
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// attempt issues one HTTP request to one peer and settles its breaker
// admission: success and failure are recorded; an attempt the caller
// cancelled is released without a verdict. The attempt span records the
// outcome (ok, 5xx, error, or cancelled) and its context rides the
// traceparent header, so the replica's ingress span parents under it.
func (c *Client) attempt(ctx context.Context, spec callSpec, p *peerState, parent dtrace.SpanContext) callResult {
	sp := c.opts.Tracer.StartSpan(parent, "attempt "+p.name, dtrace.KindAttempt)
	sp.SetAttr("peer", p.name)
	r, outcome := c.send(ctx, spec, p, sp.Context())
	sp.SetAttr("outcome", outcome)
	if r.status != 0 {
		sp.SetAttr("status", itoa(r.status))
	}
	if r.err != nil {
		sp.SetErr(r.err.Error())
	}
	sp.End()
	return r
}

// send is attempt's HTTP exchange and breaker bookkeeping.
func (c *Client) send(ctx context.Context, spec callSpec, p *peerState, sc dtrace.SpanContext) (callResult, string) {
	actx, cancel := context.WithTimeout(ctx, spec.timeout)
	defer cancel()
	var rd io.Reader
	if spec.body != nil {
		rd = bytes.NewReader(spec.body)
	}
	req, err := http.NewRequestWithContext(actx, spec.method, p.url+spec.path, rd)
	if err != nil {
		p.breaker.Record(false)
		return callResult{peer: p.name, err: err}, "error"
	}
	if spec.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc.Valid() {
		req.Header.Set(dtrace.Header, sc.Traceparent())
	}
	resp, err := http.DefaultClient.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(io.LimitReader(resp.Body, maxResponse))
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up: not the peer's fault.
			p.breaker.Cancel()
			return callResult{peer: p.name, err: ctx.Err()}, "cancelled"
		}
		p.breaker.Record(false)
		c.reg.Counter("farm.attempt_errors").Add(1)
		return callResult{peer: p.name, err: fmt.Errorf("peer %s: %w", p.name, err)}, "error"
	}
	r := callResult{status: resp.StatusCode, body: body, peer: p.name}
	if resp.StatusCode >= 500 {
		p.breaker.Record(false)
		c.reg.Counter("farm.attempt_5xx").Add(1)
		return r, "5xx"
	}
	p.breaker.Record(true)
	return r, "ok"
}

// pickPeer claims a breaker admission on the next peer in round-robin
// rotation, passing over avoid (the peer that just failed) unless no other
// breaker admits. Nil means every breaker refused.
func (c *Client) pickPeer(avoid *peerState) *peerState {
	n := len(c.peers)
	start := int(c.next.Add(1)) % n
	for i := 0; i < n; i++ {
		if p := c.peers[(start+i)%n]; p != avoid && p.breaker.Allow() {
			return p
		}
	}
	if avoid != nil && avoid.breaker.Allow() {
		return avoid
	}
	return nil
}

// sleepBackoff waits the jittered exponential backoff for the given attempt
// number (1-based for the first retry).
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := backoffBase << uint(attempt-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	c.rmu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.rmu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errorMsg extracts the service's {"error": ...} message from a body.
func errorMsg(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Lookup asks the farm for a cached compilation. The answer is revalidated
// end to end (schema, key, checksum, reparse): a corrupt, stale, or
// truncated peer answer — and every transport failure — is a silent miss,
// never an error, so degraded peers can only cost latency. 404 is the
// peers' honest miss answer and is returned quickly without retries.
func (c *Client) Lookup(ctx context.Context, key ccache.Key) (ccache.Entry, bool) {
	attempts := 1
	if len(c.peers) > 1 {
		attempts = 2
	}
	res := c.call(ctx, callSpec{
		method:   http.MethodGet,
		path:     PeerPathPrefix + key.String(),
		timeout:  lookupTimeout,
		attempts: attempts,
		kind:     dtrace.KindLookup,
	})
	if res.err != nil || res.status != http.StatusOK {
		return ccache.Entry{}, false
	}
	e, err := ccache.DecodeEntry(key, res.body)
	if err != nil {
		c.reg.Counter("farm.peer_invalid").Add(1)
		return ccache.Entry{}, false
	}
	c.reg.Counter("farm.peer_lookup_hits").Add(1)
	return e, true
}

// FallbackFunc adapts Lookup to the ccache.Options.Fallback signature with
// an internal deadline, wiring the farm in as a third cache tier. The
// caller's ctx carries the request's span context, so the lookup's spans
// land under the right trace.
func (c *Client) FallbackFunc() func(context.Context, ccache.Key) (ccache.Entry, bool) {
	return func(ctx context.Context, key ccache.Key) (ccache.Entry, bool) {
		ctx, cancel := context.WithTimeout(ctx, 3*lookupTimeout)
		defer cancel()
		return c.Lookup(ctx, key)
	}
}

// PeerStat is one replica's client-side view: breaker state and trip
// count. The /debug/farm dashboard renders these.
type PeerStat struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	Trips int64  `json:"trips"`
}

// PeerStats snapshots every peer's breaker.
func (c *Client) PeerStats() []PeerStat {
	out := make([]PeerStat, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, PeerStat{
			Name:  p.name,
			URL:   p.url,
			State: p.breaker.State().String(),
			Trips: p.breaker.Trips(),
		})
	}
	return out
}

// ReportTrace pushes the client tracer's spans for traceID to the farm
// (POST /debug/spans), so a replica-side /debug/trace/<id> query can show
// the client's root and attempt spans alongside the server's. Push is
// best-effort: the first peer that accepts wins, failures are silent (a
// trace missing client spans is still a trace). Returns whether any peer
// accepted.
func (c *Client) ReportTrace(ctx context.Context, traceID string) bool {
	spans := c.opts.Tracer.Spans(traceID)
	if len(spans) == 0 {
		return false
	}
	body, err := json.Marshal(SpanIngest{Spans: spans})
	if err != nil {
		return false
	}
	// Plain single-attempt posts: running this through call() would mint
	// new spans into the very trace being reported.
	for _, p := range c.peers {
		if p.breaker.State() == Open {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, lookupTimeout)
		req, err := http.NewRequestWithContext(actx, http.MethodPost, p.url+DebugSpansPath, bytes.NewReader(body))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return true
		}
	}
	return false
}

// PostJSON runs one resilient JSON POST against the farm (retries with
// failover and backoff, breakers) and decodes the answer into out. It returns the name
// of the peer that answered.
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) (string, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	res := c.call(ctx, callSpec{
		method:   http.MethodPost,
		path:     path,
		body:     body,
		timeout:  c.opts.AttemptTimeout,
		attempts: maxAttempts,
		kind:     dtrace.KindCall,
	})
	if res.err != nil {
		return res.peer, res.err
	}
	if res.status != http.StatusOK {
		return res.peer, &StatusError{Code: res.status, Msg: errorMsg(res.body), Peer: res.peer}
	}
	if err := json.Unmarshal(res.body, out); err != nil {
		return res.peer, fmt.Errorf("peer %s: bad response: %w", res.peer, err)
	}
	return res.peer, nil
}
