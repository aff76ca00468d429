package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"macc/internal/ccache"
	"macc/internal/rtl"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// testEntry builds a small valid cache entry (its flat image decodes and
// validates, so it survives DecodeEntry's revalidation).
func testEntry(t *testing.T, name string) ccache.Entry {
	t.Helper()
	src := fmt.Sprintf("func %s(r0) {\nentry:\n\tr1 = r0 + 1\n\tret r1\n}\n", name)
	p, err := rtl.ParseProgram(src)
	if err != nil {
		t.Fatalf("testEntry: %v", err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatalf("testEntry: %v", err)
	}
	return ccache.Entry{Flat: fp, Machine: "alpha"}
}

// entryRTL materializes and prints an entry for comparisons.
func entryRTL(t *testing.T, e ccache.Entry) string {
	t.Helper()
	p, err := e.Materialize()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return p.String()
}

// fastClient builds a client with a short attempt timeout, seeded jitter,
// and every breaker on the returned fake clock (which only moves when the
// test advances it, so no cooldown elapses behind the test's back).
func fastClient(t *testing.T, opts ClientOptions) (*Client, *fakeClock) {
	t.Helper()
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = 2 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c := NewClient(opts)
	clk := &fakeClock{now: time.Unix(0, 0)}
	for _, p := range c.peers {
		p.breaker.clock = clk.Now
	}
	return c, clk
}

// TestPeerLookupHitAndMiss serves a real cache through PeerCacheHandler and
// looks it up through the resilient client: a present key round-trips the
// entry, an absent key is a clean miss (404, no error, no retries burned).
func TestPeerLookupHitAndMiss(t *testing.T) {
	cache := ccache.New(ccache.Options{})
	key := ccache.KeyOf("src", "cfg", "alpha")
	want := testEntry(t, "f")
	cache.Put(key, want)

	reg := telemetry.NewRegistry()
	ts := httptest.NewServer(PeerCacheHandler(cache, reg))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	e, ok := c.Lookup(context.Background(), key)
	if !ok {
		t.Fatal("Lookup miss for a key the peer has")
	}
	if got, wantRTL := entryRTL(t, e), entryRTL(t, want); got != wantRTL {
		t.Fatalf("Lookup returned different RTL:\n got %q\nwant %q", got, wantRTL)
	}
	if got := reg.CounterValue("farm.peer_serves"); got != 1 {
		t.Errorf("peer_serves = %d, want 1", got)
	}
	if _, ok := c.Lookup(context.Background(), ccache.KeyOf("other", "cfg", "alpha")); ok {
		t.Fatal("Lookup hit for a key nobody has")
	}
	if got := c.Metrics().CounterValue("farm.peer_lookup_hits"); got != 1 {
		t.Errorf("peer_lookup_hits = %d, want 1", got)
	}
}

// TestLookupRejectsCorruptAnswer flips bytes in the peer's answer: the
// checksum/reparse gate must turn it into a silent miss, never an error
// and never a bogus entry.
func TestLookupRejectsCorruptAnswer(t *testing.T) {
	cache := ccache.New(ccache.Options{})
	key := ccache.KeyOf("src", "cfg", "alpha")
	cache.Put(key, testEntry(t, "f"))
	data, ok := cache.EncodeLocal(key)
	if !ok {
		t.Fatal("EncodeLocal miss")
	}

	// Flip one byte mid-envelope: the checksum/structural-decode gate must
	// catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if bytes.Equal(corrupt, data) {
		t.Fatal("corruption did not apply")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(corrupt)
	}))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	if _, ok := c.Lookup(context.Background(), key); ok {
		t.Fatal("corrupt peer answer accepted as a hit")
	}
	if got := c.Metrics().CounterValue("farm.peer_invalid"); got == 0 {
		t.Error("peer_invalid not counted")
	}

	// A stale answer (valid envelope for a different key) is equally
	// rejected.
	other := ccache.KeyOf("other", "cfg", "alpha")
	if _, ok := c.Lookup(context.Background(), other); ok {
		t.Fatal("stale (wrong-key) peer answer accepted as a hit")
	}
}

// TestFallbackPromotesPeerHit wires the farm client into a second cache as
// its fallback tier: a local miss consults the peer, revalidates, promotes
// into the local tiers, and counts ccache.peer_hits.
func TestFallbackPromotesPeerHit(t *testing.T) {
	remote := ccache.New(ccache.Options{})
	key := ccache.KeyOf("src", "cfg", "alpha")
	remote.Put(key, testEntry(t, "f"))
	ts := httptest.NewServer(PeerCacheHandler(remote, nil))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	local := ccache.New(ccache.Options{Fallback: c.FallbackFunc()})
	if _, ok := local.Get(key); !ok {
		t.Fatal("fallback lookup did not reach the peer")
	}
	if got := local.Metrics().CounterValue("ccache.peer_hits"); got != 1 {
		t.Errorf("ccache.peer_hits = %d, want 1", got)
	}
	// Promoted: a second Get is a local memory hit, not another peer trip.
	before := c.Metrics().CounterValue("farm.peer_lookup_hits")
	if _, ok := local.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if after := c.Metrics().CounterValue("farm.peer_lookup_hits"); after != before {
		t.Error("second Get went back to the peer instead of the promoted copy")
	}
}

// TestPostJSONRetriesTransientFailures: two 500s then success must succeed
// within the retry budget and count the retries.
func TestPostJSONRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"answer": 42}`))
	}))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	var out struct {
		Answer int `json:"answer"`
	}
	peer, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out)
	if err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	if out.Answer != 42 || peer == "" {
		t.Fatalf("answer=%d peer=%q", out.Answer, peer)
	}
	if got := c.Metrics().CounterValue("farm.retries"); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// TestPostJSONDoesNotRetryClientErrors: a 4xx is the caller's fault; it
// must surface immediately as a StatusError without burning retries.
func TestPostJSONDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad source"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	err := func() error {
		var out struct{}
		_, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out)
		return err
	}()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if se.Msg != "bad source" {
		t.Errorf("msg = %q, want the service's error text", se.Msg)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server called %d times for a 400, want 1", n)
	}
}

// TestFailoverToSecondPeer: the primary peer is down; the same logical call
// must still succeed via the other replica, and the dead peer's breaker
// must trip after enough failures.
func TestFailoverToSecondPeer(t *testing.T) {
	var deadHits atomic.Int32
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer dead.Close()
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer alive.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{dead.URL, alive.URL}})
	var out struct{}
	// Rotation makes the dead peer the first try of every other round, so
	// 2*tripConsecutive calls are enough to trip it.
	for i := 0; i < 2*tripConsecutive; i++ {
		if _, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out); err != nil {
			t.Fatalf("call %d failed despite a healthy replica: %v", i, err)
		}
	}
	c.PublishStats()
	if got := c.reg.Gauge("farm.breaker_trips").Value(); got < 1 {
		t.Errorf("dead peer's breaker never tripped (trips gauge = %v)", got)
	}
	// With the dead peer's breaker open, calls keep succeeding via the
	// living one and stop hitting the dead one.
	before := deadHits.Load()
	for i := 0; i < 4; i++ {
		if _, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out); err != nil {
			t.Fatalf("call with open breaker failed: %v", err)
		}
	}
	if after := deadHits.Load(); after != before {
		t.Errorf("open breaker still let %d requests through to the dead peer", after-before)
	}
}

// TestAllPeersDownReturnsError: with every breaker open the client reports
// ErrNoPeers (the caller's signal to fall back to a local compile).
func TestAllPeersDownReturnsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, _ := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	var out struct{}
	// Trip the breaker: each call fails all its rounds.
	for i := 0; i < tripConsecutive && c.peers[0].breaker.State() != Open; i++ {
		c.PostJSON(context.Background(), "/x", struct{}{}, &out)
	}
	if c.peers[0].breaker.State() != Open {
		t.Fatal("breaker did not trip")
	}
	_, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out)
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

// TestRetrySpansShowEachAttempt: a call whose first attempt fails at the
// transport and whose retry succeeds files one call span (rounds=2) with
// two attempt children — outcome error, then ok — on different peers, each
// attempt having carried its own traceparent to the peer.
func TestRetrySpansShowEachAttempt(t *testing.T) {
	var requests atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(dtrace.Header); got == "" {
			t.Error("attempt carried no traceparent header")
		}
		if requests.Add(1) == 1 {
			panic(http.ErrAbortHandler) // drop the first exchange, whoever gets it
		}
		w.Write([]byte(`{}`))
	})
	a := httptest.NewServer(handler)
	defer a.Close()
	b := httptest.NewServer(handler)
	defer b.Close()

	tr := dtrace.New("client", 0)
	c, _ := fastClient(t, ClientOptions{Peers: []string{a.URL, b.URL}, Tracer: tr})
	root := tr.StartRoot("req", dtrace.KindRequest)
	ctx := dtrace.ContextWith(context.Background(), root.Context())
	var out struct{}
	peer, err := c.PostJSON(ctx, "/x", struct{}{}, &out)
	if err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	root.End()

	var call dtrace.Span
	var attempts []dtrace.Span
	for _, sp := range tr.Spans(root.TraceID()) {
		switch sp.Kind {
		case dtrace.KindCall:
			call = sp
		case dtrace.KindAttempt:
			attempts = append(attempts, sp)
		}
	}
	if call.Attrs["rounds"] != "2" || call.Attrs["peer"] != peer {
		t.Errorf("call span attrs = %v, want rounds=2 peer=%s", call.Attrs, peer)
	}
	if call.Parent != root.Context().Span.String() {
		t.Errorf("call span parent = %s, want the request root", call.Parent)
	}
	if len(attempts) != 2 {
		t.Fatalf("%d attempt spans, want 2", len(attempts))
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].Start < attempts[j].Start })
	first, second := attempts[0], attempts[1]
	if first.Attrs["outcome"] != "error" || first.Err == "" {
		t.Errorf("first attempt = %v err=%q, want outcome=error with an error", first.Attrs, first.Err)
	}
	if second.Attrs["outcome"] != "ok" || second.Attrs["peer"] != peer {
		t.Errorf("second attempt = %v, want outcome=ok on %s", second.Attrs, peer)
	}
	if first.Attrs["peer"] == second.Attrs["peer"] {
		t.Errorf("retry went back to the failed peer %s", first.Attrs["peer"])
	}
	for _, sp := range attempts {
		if sp.Parent != call.ID {
			t.Errorf("attempt %s is not a child of the call span", sp.Name)
		}
	}
}

// retryGap makes one call whose first exchange is dropped and returns the
// time between the failed attempt's end and the retry's start.
func retryGap(t *testing.T, peers ...string) time.Duration {
	t.Helper()
	tr := dtrace.New("client", 0)
	c, _ := fastClient(t, ClientOptions{Peers: peers, Tracer: tr})
	root := tr.StartRoot("req", dtrace.KindRequest)
	ctx := dtrace.ContextWith(context.Background(), root.Context())
	var out struct{}
	if _, err := c.PostJSON(ctx, "/x", struct{}{}, &out); err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	root.End()
	var attempts []dtrace.Span
	for _, sp := range tr.Spans(root.TraceID()) {
		if sp.Kind == dtrace.KindAttempt {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("%d attempt spans, want 2", len(attempts))
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].Start < attempts[j].Start })
	return time.Duration(attempts[1].Start - (attempts[0].Start + attempts[0].Dur))
}

// TestFailoverSkipsBackoff: a retry that can go to another peer goes out
// at once; only a retry of the peer that just failed waits the backoff.
func TestFailoverSkipsBackoff(t *testing.T) {
	var requests atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1)%2 == 1 {
			panic(http.ErrAbortHandler) // drop each call's first exchange
		}
		w.Write([]byte(`{}`))
	})
	a := httptest.NewServer(handler)
	defer a.Close()
	b := httptest.NewServer(handler)
	defer b.Close()

	shortest := backoffBase / 2 // backoffBase at the lowest jitter
	// A backoff makes every failover's gap at least shortest; the minimum
	// over a few calls keeps a scheduler stall from failing the test.
	failover := time.Hour
	for i := 0; i < 5; i++ {
		failover = min(failover, retryGap(t, a.URL, b.URL))
	}
	if failover >= shortest {
		t.Errorf("failover to another peer waited %v, want no backoff (< %v)", failover, shortest)
	}
	if same := retryGap(t, a.URL); same < shortest {
		t.Errorf("retry of the only peer waited %v, want a backoff of at least %v", same, shortest)
	}
}

// TestBackoffReleasesProbeAdmission: a retry of the failed peer releases
// its breaker admission for the backoff and claims it afresh after. Here
// the peer's breaker trips and cools down while the first attempt is in
// flight, so the retry's admission is the half-open probe; holding it
// across the wait would leave the re-pick refused and the call failed.
func TestBackoffReleasesProbeAdmission(t *testing.T) {
	var c *Client
	var clk *fakeClock
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			for i := 0; i < tripConsecutive; i++ {
				c.peers[0].breaker.Record(false)
			}
			clk.Advance(breakerCooldown)
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c, clk = fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	var out struct{}
	if _, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out); err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	if got := c.peers[0].breaker.State(); got != HalfOpen {
		t.Errorf("breaker state %v after one successful probe, want %v", got, HalfOpen)
	}
}

// TestPickPeerAvoidsFailedPeer: whatever the rotation, a retry goes to a
// peer other than the one that just failed while another breaker admits;
// the failed peer is retried only when it is the last one admitting.
func TestPickPeerAvoidsFailedPeer(t *testing.T) {
	c, _ := fastClient(t, ClientOptions{Peers: []string{"http://a", "http://b"}})
	failed, other := c.peers[0], c.peers[1]
	for i := 0; i < 4; i++ {
		if p := c.pickPeer(failed); p != other {
			t.Fatalf("pick %d: got %s, want %s", i, p.name, other.name)
		}
	}
	for i := 0; i < tripConsecutive; i++ {
		other.breaker.Record(false)
	}
	if p := c.pickPeer(failed); p != failed {
		t.Fatalf("with the other breaker open: got %v, want %s", p, failed.name)
	}
	for i := 0; i < tripConsecutive; i++ {
		failed.breaker.Record(false)
	}
	if p := c.pickPeer(failed); p != nil {
		t.Fatalf("with every breaker open: got %s, want nil", p.name)
	}
}

// TestOpenPeerRecoversAfterCooldown: a tripped breaker refuses traffic
// until its cooldown elapses; after that, real calls are the half-open
// probes, and successesToClose of them close the breaker again.
func TestOpenPeerRecoversAfterCooldown(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c, clk := fastClient(t, ClientOptions{Peers: []string{ts.URL}})
	br := c.peers[0].breaker
	var out struct{}
	for i := 0; i < tripConsecutive && br.State() != Open; i++ {
		c.PostJSON(context.Background(), "/x", struct{}{}, &out)
	}
	if br.State() != Open {
		t.Fatal("breaker did not trip")
	}

	// The peer is back, but until the cooldown elapses nothing reaches it.
	healthy.Store(true)
	if _, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("call before the cooldown: err = %v, want ErrNoPeers", err)
	}

	clk.Advance(breakerCooldown)
	for i := 0; i < successesToClose; i++ {
		if _, err := c.PostJSON(context.Background(), "/x", struct{}{}, &out); err != nil {
			t.Fatalf("probe call %d: %v", i+1, err)
		}
		want := HalfOpen
		if i == successesToClose-1 {
			want = Closed
		}
		if got := br.State(); got != want {
			t.Fatalf("after probe call %d: state %v, want %v", i+1, got, want)
		}
	}
}
