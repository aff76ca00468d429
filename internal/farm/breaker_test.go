package farm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// step is one scripted action against the breaker.
type step struct {
	op      string // "allow", "deny", "ok", "fail", "cancel", "advance", "state"
	advance time.Duration
	state   BreakerState
}

func allow() step                  { return step{op: "allow"} }
func deny() step                   { return step{op: "deny"} }
func ok() step                     { return step{op: "ok"} }
func fail() step                   { return step{op: "fail"} }
func advance(d time.Duration) step { return step{op: "advance", advance: d} }
func inState(s BreakerState) step  { return step{op: "state", state: s} }

// repeat concatenates n copies of seq.
func repeat(n int, seq ...step) []step {
	var out []step
	for i := 0; i < n; i++ {
		out = append(out, seq...)
	}
	return out
}

// script flattens step groups into one table row.
func script(groups ...[]step) []step {
	var out []step
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// tripOpen is the shortest path from closed to open: tripConsecutive
// admitted failures in a row.
func tripOpen() []step {
	return append(repeat(tripConsecutive, allow(), fail()), inState(Open))
}

// probeClosed admits and succeeds successesToClose half-open probes and
// checks the breaker closed.
func probeClosed() []step {
	return append(repeat(successesToClose, allow(), ok()), inState(Closed))
}

// newTestBreaker builds a breaker on a fake clock.
func newTestBreaker(clk *fakeClock) *Breaker {
	b := NewBreaker()
	b.clock = clk.Now
	return b
}

// TestBreakerTransitions drives the full closed -> open -> half-open ->
// closed cycle (and its failure branches) through scripted outcome tables.
func TestBreakerTransitions(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
		trips int64
	}{
		{
			name: "consecutive failures trip, cooldown probes, successes close",
			steps: script(
				[]step{inState(Closed)},
				repeat(tripConsecutive-1, allow(), fail()),
				[]step{
					inState(Closed),
					allow(), fail(), inState(Open), // the next consecutive failure trips
					deny(), // open fails fast
					advance(breakerCooldown - time.Millisecond), deny(), // cooldown not elapsed
					advance(2 * time.Millisecond),
					allow(), inState(HalfOpen), // first probe admitted
					deny(), // single probe at a time
					ok(),   // probe 1 succeeds
				},
				repeat(successesToClose-1, allow(), ok()),
				[]step{inState(Closed)}, // successesToClose reached
			),
			trips: 1,
		},
		{
			name: "half-open failure reopens and restarts the cooldown",
			steps: script(
				tripOpen(),
				[]step{
					advance(breakerCooldown),
					allow(), inState(HalfOpen),
					fail(), inState(Open), // probe failed: back to open
					deny(), // and the cooldown restarted
					advance(breakerCooldown),
				},
				probeClosed(),
			),
			trips: 2,
		},
		{
			name: "error rate over the window trips without consecutive failures",
			steps: script(
				// fail/ok alternation: never two consecutive failures, but
				// a failure rate of at least tripErrorRate.
				repeat(tripMinSamples/2-1, allow(), fail(), allow(), ok()),
				[]step{allow(), fail(), inState(Closed)}, // rate over the bar, too few samples
				[]step{allow(), ok(), inState(Open)},     // tripMinSamples samples at rate 0.5
			),
			trips: 1,
		},
		{
			name: "cancel releases the half-open probe slot without an outcome",
			steps: script(
				tripOpen(),
				[]step{
					advance(breakerCooldown),
					allow(), inState(HalfOpen),
					deny(),
					{op: "cancel"}, // the caller gave up: no judgement
					inState(HalfOpen),
				},
				probeClosed(),
			),
			trips: 1,
		},
		{
			name: "closing resets the window (old failures are forgiven)",
			steps: script(
				tripOpen(),
				[]step{advance(breakerCooldown)},
				probeClosed(),
				// A fresh window: 10 outcomes at a 40% failure rate. On top
				// of the pre-trip failures they would trip (the consecutive
				// count and the window rate alike); alone they must not.
				repeat(4, allow(), fail(), allow(), ok()),
				repeat(2, allow(), ok()),
				[]step{inState(Closed)},
			),
			trips: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{now: time.Unix(0, 0)}
			b := newTestBreaker(clk)
			for i, s := range tc.steps {
				switch s.op {
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want true (state %v)", i, b.State())
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want false (state %v)", i, b.State())
					}
				case "ok":
					b.Record(true)
				case "fail":
					b.Record(false)
				case "cancel":
					b.Cancel()
				case "advance":
					clk.Advance(s.advance)
				case "state":
					if got := b.State(); got != s.state {
						t.Fatalf("step %d: state %v, want %v", i, got, s.state)
					}
				}
			}
			if got := b.Trips(); got != tc.trips {
				t.Errorf("trips = %d, want %d", got, tc.trips)
			}
		})
	}
}

// TestHalfOpenProbeRace hammers Allow from many goroutines against a
// breaker whose cooldown has just elapsed: exactly one goroutine per probe
// round may win the admission, no matter the interleaving. Run under -race
// this also proves the state transitions are data-race free.
func TestHalfOpenProbeRace(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(clk)

	for round := 0; round < 50; round++ {
		for i := 0; i < tripConsecutive; i++ {
			if !b.Allow() {
				t.Fatalf("round %d: breaker not closed at round start", round)
			}
			b.Record(false)
		}
		if b.State() != Open {
			t.Fatalf("round %d: state %v after failures, want open", round, b.State())
		}
		clk.Advance(breakerCooldown)

		const goroutines = 16
		var admitted atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d goroutines admitted into half-open, want exactly 1", round, n)
		}
		b.Record(true)
		// The remaining probes close the breaker for the next round.
		for i := 1; i < successesToClose; i++ {
			if !b.Allow() {
				t.Fatalf("round %d: probe %d refused", round, i+1)
			}
			b.Record(true)
		}
		if b.State() != Closed {
			t.Fatalf("round %d: state %v after probe success, want closed", round, b.State())
		}
	}
}

// TestHalfOpenConcurrentProbeAndCancel interleaves winners that Cancel with
// winners that Record, asserting the probe slot never leaks (the breaker
// keeps admitting future probes) and never admits two at once.
func TestHalfOpenConcurrentProbeAndCancel(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(clk)
	for i := 0; i < tripConsecutive; i++ {
		b.Allow()
		b.Record(false)
	}
	clk.Advance(breakerCooldown)

	var wg sync.WaitGroup
	var inProbe atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !b.Allow() {
					continue
				}
				if n := inProbe.Add(1); n != 1 && b.State() == HalfOpen {
					t.Errorf("%d concurrent half-open probes", n)
				}
				switch {
				case b.State() == Closed:
					// Breaker closed under us mid-loop; the admission
					// contract still requires a release.
					inProbe.Add(-1)
					b.Record(true)
				case g%2 == 0:
					inProbe.Add(-1)
					b.Cancel()
				default:
					inProbe.Add(-1)
					b.Record(true)
				}
			}
		}(g)
	}
	wg.Wait()
}
