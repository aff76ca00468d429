package faultinject

// Service saboteurs: deterministic chaos for the compile farm. Where the
// pass saboteurs corrupt RTL to prove the pipeline's rollback guarantees,
// these corrupt the service fabric — dropped connections, delayed and
// corrupted peer responses, full disks, crashed writers — to prove the farm
// layer's guarantee: a degraded replica can cost latency, never
// correctness.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"macc/internal/ccache"
)

// ServiceSpec configures a ServiceSaboteur. All probabilities are in
// [0, 1] and independent per request.
type ServiceSpec struct {
	// Drop aborts the exchange with no response (connection torn down).
	Drop float64
	// Delay stalls the exchange by a uniform duration in (0, MaxDelay].
	Delay float64
	// Corrupt flips bytes in an otherwise valid response body.
	Corrupt float64
	// MaxDelay bounds injected stalls (default 50ms).
	MaxDelay time.Duration
	// DiskFull makes a cache disk write fail with ENOSPC-style errors.
	DiskFull float64
	// CrashWrite kills a cache disk write mid-stream (torn temp file,
	// journaled intent, no visible entry) as a kill -9 would.
	CrashWrite float64
	// Seed makes every coin flip reproducible; runs with equal seeds and
	// equal request orders inject identical faults.
	Seed int64
}

// ParseServiceSpec parses the -chaos flag format: comma-separated
// key=value pairs, e.g. "drop=0.05,delay=0.2,corrupt=0.05,maxdelay=50ms,
// diskfull=0.1,crashwrite=0.05,seed=42". An empty string is a no-op spec.
func ParseServiceSpec(s string) (ServiceSpec, error) {
	var spec ServiceSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("chaos: want key=value, got %q", part)
		}
		var err error
		switch k {
		case "drop":
			spec.Drop, err = parseProb(v)
		case "delay":
			spec.Delay, err = parseProb(v)
		case "corrupt":
			spec.Corrupt, err = parseProb(v)
		case "diskfull":
			spec.DiskFull, err = parseProb(v)
		case "crashwrite":
			spec.CrashWrite, err = parseProb(v)
		case "maxdelay":
			spec.MaxDelay, err = time.ParseDuration(v)
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 0, 64)
		default:
			return spec, fmt.Errorf("chaos: unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("chaos: bad %s: %v", k, err)
		}
	}
	return spec, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

// Active reports whether the spec injects anything at all.
func (s ServiceSpec) Active() bool {
	return s.Drop > 0 || s.Delay > 0 || s.Corrupt > 0 || s.DiskFull > 0 || s.CrashWrite > 0
}

// ServiceSaboteur injects the spec's faults into HTTP exchanges and disk
// writes. Safe for concurrent use; the shared rng is mutex-guarded, so
// fault ordering is deterministic for a serial request stream and
// reproducibly seeded (though not order-stable) for a concurrent one.
type ServiceSaboteur struct {
	spec ServiceSpec

	mu  sync.Mutex
	rng *rand.Rand

	dropped   int64
	delayed   int64
	corrupted int64
	diskFulls int64
	crashes   int64
}

// NewServiceSaboteur builds a saboteur for the spec. The zero Seed is valid
// and deterministic.
func NewServiceSaboteur(spec ServiceSpec) *ServiceSaboteur {
	if spec.MaxDelay <= 0 {
		spec.MaxDelay = 50 * time.Millisecond
	}
	return &ServiceSaboteur{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Counts reports how many faults of each kind fired.
func (sb *ServiceSaboteur) Counts() (dropped, delayed, corrupted, diskFulls, crashes int64) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.dropped, sb.delayed, sb.corrupted, sb.diskFulls, sb.crashes
}

// roll returns true with probability p, and a uniform delay when asked.
func (sb *ServiceSaboteur) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.rng.Float64() < p
}

func (sb *ServiceSaboteur) someDelay() time.Duration {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return time.Duration(1 + sb.rng.Int63n(int64(sb.spec.MaxDelay)))
}

// WrapHandler returns h with the saboteur in front: requests may be
// delayed, answered with corrupted bytes, or aborted mid-response. The
// farm's verification gates must turn every one of these into a retry or a
// silent miss, never a wrong answer.
func (sb *ServiceSaboteur) WrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sb.roll(sb.spec.Delay) {
			sb.mu.Lock()
			sb.delayed++
			sb.mu.Unlock()
			time.Sleep(sb.someDelay())
		}
		if sb.roll(sb.spec.Drop) {
			sb.mu.Lock()
			sb.dropped++
			sb.mu.Unlock()
			// Tear the connection down with no (complete) response:
			// http.ErrAbortHandler is the server's sanctioned way to
			// abort an exchange.
			panic(http.ErrAbortHandler)
		}
		if !sb.roll(sb.spec.Corrupt) {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recordingWriter{header: make(http.Header)}
		h.ServeHTTP(rec, r)
		sb.mu.Lock()
		sb.corrupted++
		body := append([]byte(nil), rec.body...)
		for i := 0; i < 3 && len(body) > 0; i++ {
			body[sb.rng.Intn(len(body))] ^= 0x5a
		}
		sb.mu.Unlock()
		for k, vs := range rec.header {
			if k == "Content-Length" {
				continue
			}
			w.Header()[k] = vs
		}
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		w.WriteHeader(code)
		w.Write(body)
	})
}

// recordingWriter buffers a response so the saboteur can corrupt it whole.
type recordingWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (r *recordingWriter) Header() http.Header { return r.header }

func (r *recordingWriter) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recordingWriter) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// DiskFault returns a hook for ccache.Options.DiskFault that injects
// ENOSPC-style failures and mid-write crashes at the spec's rates. Wire it
// into a replica's cache to chaos-test the crash-recovery path.
func (sb *ServiceSaboteur) DiskFault() func(op string) error {
	if sb.spec.DiskFull <= 0 && sb.spec.CrashWrite <= 0 {
		return nil
	}
	return func(op string) error {
		switch op {
		case "create":
			if sb.roll(sb.spec.DiskFull) {
				sb.mu.Lock()
				sb.diskFulls++
				sb.mu.Unlock()
				return fmt.Errorf("faultinject: no space left on device")
			}
		case "write", "rename":
			if sb.roll(sb.spec.CrashWrite / 2) { // split across the two steps
				sb.mu.Lock()
				sb.crashes++
				sb.mu.Unlock()
				return ccache.ErrSimulatedCrash
			}
		}
		return nil
	}
}
