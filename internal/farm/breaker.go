// Package farm is the fault-tolerance layer that turns maccd replicas into
// a compile farm. It provides the peer cache-lookup protocol (replicas
// consult each other's content-addressed caches before compiling, every
// answer revalidated by checksum and reparse), a resilient HTTP client (one
// synchronous retry loop: per-attempt timeouts, failover to another peer,
// exponential backoff with jitter, and per-peer circuit breakers that
// recover through half-open probes of real traffic), and the wire types
// shared by maccd, cmd/macc -server, and cmd/loadgen.
//
// The package takes the paper's stance one layer up: just as a coalesced
// access must be proven safe before it replaces narrow ones, a degraded
// replica must be proven unable to corrupt a result — every remote answer
// is either verified byte-for-byte or silently discarded in favour of a
// local compile. Failure degrades latency, never correctness.
package farm

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is one of the classic three circuit-breaker states.
type BreakerState int32

const (
	// Closed passes traffic and records outcomes.
	Closed BreakerState = iota
	// Open fails fast: the peer is presumed down until the cooldown
	// elapses.
	Open
	// HalfOpen admits one probe request at a time; enough consecutive
	// successes close the breaker, any failure reopens it.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// Breaker thresholds. A peer trips open on a run of consecutive failures
// (timeout storms) or on a high failure rate over a rolling window; after
// the cooldown one probe at a time is admitted, and enough consecutive probe
// successes close the breaker again.
const (
	tripConsecutive  = 5
	tripErrorRate    = 0.5
	breakerWindow    = 20
	tripMinSamples   = 10 // outcomes needed before the error rate can trip
	breakerCooldown  = time.Second
	successesToClose = 2
)

// Breaker is a per-peer circuit breaker. The contract is Allow-then-Record:
// every Allow() == true must be paired with exactly one Record(ok) or
// Cancel() call. Cancel releases an admission without an outcome (used when
// the caller gives up mid-attempt — a cancelled request says nothing about
// the peer's health). All methods are safe for concurrent use; in the
// half-open state at most one admission is outstanding at a time, so
// concurrent callers cannot double-probe a recovering peer.
type Breaker struct {
	mu    sync.Mutex
	clock func() time.Time // time.Now; tests substitute a fake

	state       BreakerState
	consecFails int
	window      [breakerWindow]bool // ring buffer of outcomes, true = failure
	windowIdx   int
	windowLen   int
	openedAt    time.Time
	probing     bool // half-open: a probe admission is outstanding
	probeOKs    int
	trips       int64
}

// NewBreaker builds a closed breaker.
func NewBreaker() *Breaker {
	return &Breaker{clock: time.Now}
}

// State reports the current state (open breakers past their cooldown still
// report Open until an Allow transitions them).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has tripped to Open.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Allow reports whether a request may be sent to the peer. In the
// half-open state exactly one admission is outstanding at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = HalfOpen
		b.probeOKs = 0
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record reports the outcome of an admitted request.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if !ok {
			b.trip()
			return
		}
		b.probeOKs++
		if b.probeOKs >= successesToClose {
			b.reset()
		}
	case Closed:
		if ok {
			b.consecFails = 0
		} else {
			b.consecFails++
		}
		b.push(!ok)
		if b.consecFails >= tripConsecutive {
			b.trip()
			return
		}
		if b.windowLen >= tripMinSamples && b.failureRate() >= tripErrorRate {
			b.trip()
		}
	case Open:
		// A late outcome from before the trip; nothing to learn.
	}
}

// Cancel releases an admission without recording an outcome.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.clock()
	b.probing = false
	b.trips++
}

// reset moves to Closed with a clean window. Caller holds b.mu.
func (b *Breaker) reset() {
	b.state = Closed
	b.consecFails = 0
	b.windowIdx, b.windowLen = 0, 0
	b.probing = false
}

// push records one outcome in the rolling window. Caller holds b.mu.
func (b *Breaker) push(failed bool) {
	b.window[b.windowIdx] = failed
	b.windowIdx = (b.windowIdx + 1) % len(b.window)
	if b.windowLen < len(b.window) {
		b.windowLen++
	}
}

// failureRate is the failure fraction over the window. Caller holds b.mu.
func (b *Breaker) failureRate() float64 {
	var fails int
	for i := 0; i < b.windowLen; i++ {
		if b.window[i] {
			fails++
		}
	}
	return float64(fails) / float64(b.windowLen)
}
