package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"macc"
	"macc/internal/faultinject"
)

// TestDrainShedsNewWorkKeepsMetrics: after StartDrain the service refuses
// new compiles and fails its health check (so peers route around it) but
// still serves /metrics for the final flush.
func TestDrainShedsNewWorkKeepsMetrics(t *testing.T) {
	srv := NewServer(ServerOptions{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code, _ := post[CompileResponse](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc}); code != http.StatusOK {
		t.Fatalf("pre-drain compile: status %d", code)
	}
	srv.StartDrain()

	code, _ := post[map[string]string](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusServiceUnavailable {
		t.Errorf("compile while draining: status %d, want 503", code)
	}
	if srv.Metrics().CounterValue("maccd.shed_draining") != 1 {
		t.Error("shed_draining not counted")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics while draining: status %d, want 200", resp.StatusCode)
	}
}

// TestBatchPriorityShedsFirst: with the batch queue slots exhausted, a
// batch request is shed immediately (no deadline wait) while an
// interactive request still gets a worker.
func TestBatchPriorityShedsFirst(t *testing.T) {
	srv := NewServer(ServerOptions{Workers: 2, BatchSlots: 1, Timeout: 5 * time.Second})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Occupy the only batch slot.
	srv.batchSem <- struct{}{}

	start := time.Now()
	req := CompileRequest{Source: addOneSrc}
	req.Priority = "batch"
	code, out := post[map[string]string](t, ts.URL+"/compile", req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch beyond slots: status %d (%v), want 503", code, out)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("batch shed took %v, want immediate (no deadline wait)", elapsed)
	}
	if srv.Metrics().CounterValue("maccd.shed_batch") != 1 {
		t.Error("shed_batch not counted")
	}

	// Interactive traffic is unaffected by the full batch queue.
	if code, _ := post[CompileResponse](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc}); code != http.StatusOK {
		t.Errorf("interactive during batch saturation: status %d", code)
	}
	<-srv.batchSem

	// A batch request is admitted normally when slots are free.
	code, cr := post[CompileResponse](t, ts.URL+"/compile", req)
	if code != http.StatusOK || cr.RTL == "" {
		t.Errorf("batch with free slots: status %d", code)
	}

	// An unknown priority is a client error, not a tier.
	bad := CompileRequest{Source: addOneSrc, Priority: "urgent"}
	if code, _ := post[map[string]string](t, ts.URL+"/compile", bad); code != http.StatusBadRequest {
		t.Errorf("unknown priority: status %d, want 400", code)
	}
}

// swapHandler lets a test allocate listener URLs before the servers that
// need to know them exist.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// referenceRTL compiles src locally with the service's default config and
// no cache: the ground truth every farm answer must match byte for byte.
func referenceRTL(t *testing.T, src string) string {
	t.Helper()
	prog, err := macc.Compile(src, macc.DefaultConfig())
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return prog.RTL.String()
}

// TestFarmPeerCacheHit: replica B, peered with replica A that has already
// compiled the source, must answer from A's cache — reported as cached,
// byte-identical, and counted as a peer hit.
func TestFarmPeerCacheHit(t *testing.T) {
	a := NewServer(ServerOptions{CacheDir: t.TempDir()})
	t.Cleanup(a.Close)
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)

	code, cold := post[CompileResponse](t, tsA.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK || cold.Cached {
		t.Fatalf("replica A cold compile: status %d cached %v", code, cold.Cached)
	}

	b := NewServer(ServerOptions{CacheDir: t.TempDir(), Peers: []string{tsA.URL}})
	t.Cleanup(b.Close)
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsB.Close)

	code, warm := post[CompileResponse](t, tsB.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("replica B compile: status %d", code)
	}
	if !warm.Cached {
		t.Error("peer-cache answer not reported as cached")
	}
	if warm.RTL != cold.RTL {
		t.Errorf("peer answer differs from the original compile:\n%s\nvs\n%s", warm.RTL, cold.RTL)
	}
	if got := b.Metrics().CounterValue("ccache.peer_hits"); got != 1 {
		t.Errorf("ccache.peer_hits = %d, want 1", got)
	}
	if got := referenceRTL(t, addOneSrc); warm.RTL != got {
		t.Errorf("peer answer differs from a local uncached compile")
	}
}

// TestFarmChaosDifferential is the in-process chaos harness: a 3-replica
// farm whose peer endpoints drop, delay, and corrupt responses and whose
// disk writes fail and crash (all at a fixed seed), with one replica killed
// midway. Every 200 answer must still be byte-identical to a local
// uncached compile — chaos may cost latency and hit ratio, never
// correctness.
func TestFarmChaosDifferential(t *testing.T) {
	const replicas = 3
	chaos := faultinject.ServiceSpec{
		Drop: 0.2, Delay: 0.2, Corrupt: 0.3, MaxDelay: 3 * time.Millisecond,
		DiskFull: 0.1, CrashWrite: 0.1,
	}

	swaps := make([]*swapHandler, replicas)
	urls := make([]string, replicas)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	servers := make([]*Server, replicas)
	for i := range servers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		spec := chaos
		spec.Seed = int64(100 + i)
		servers[i] = NewServer(ServerOptions{
			CacheDir: t.TempDir(),
			Peers:    peers,
			Chaos:    spec,
		})
		t.Cleanup(servers[i].Close)
		swaps[i].set(servers[i].Handler())
	}

	sources := make([]string, 6)
	refs := make([]string, len(sources))
	for i := range sources {
		sources[i] = fmt.Sprintf("int kernel%d(int *a, int n) { int s; int i; s = %d; for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }", i, i)
		refs[i] = referenceRTL(t, sources[i])
	}

	completed, killed := 0, false
	for round := 0; round < 3; round++ {
		for si, src := range sources {
			for rep := 0; rep < replicas; rep++ {
				if killed && rep == replicas-1 {
					continue // the dead replica gets no traffic
				}
				code, resp := post[CompileResponse](t, urls[rep]+"/compile", CompileRequest{Source: src})
				if code != http.StatusOK {
					// Shed or degraded is acceptable; wrong answers are not.
					continue
				}
				if resp.RTL != refs[si] {
					t.Fatalf("MISCOMPILE: replica %d round %d source %d returned RTL differing from the local reference", rep, round, si)
				}
				completed++
			}
		}
		if round == 0 {
			// Kill the last replica mid-run: its peers must degrade to
			// local compiles, not errors.
			killed = true
			swaps[replicas-1].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close() // mid-request connection tear-down
				}
			}))
		}
	}
	if completed == 0 {
		t.Fatal("chaos shed every single request; no differential coverage")
	}

	var peerHits, recoveredTorn int64
	for i, s := range servers {
		peerHits += s.Metrics().CounterValue("ccache.peer_hits")
		recoveredTorn += s.Metrics().CounterValue("ccache.recovered_torn")
		if i < replicas-1 {
			// Survivors must still be healthy.
			resp, err := http.Get(urls[i] + "/healthz")
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("replica %d unhealthy after chaos: %v", i, err)
			}
			if resp != nil {
				resp.Body.Close()
			}
		}
	}
	if peerHits == 0 {
		t.Error("no verified peer hit survived the chaos (seed too hostile or peering broken)")
	}
	t.Logf("chaos differential: %d completed compiles, %d verified peer hits", completed, peerHits)

	// Crash-injected disk writes must be recoverable: reopening a cache
	// over each replica's directory collects torn temp files.
	for i, s := range servers {
		dropped, delayed, corrupted, diskFulls, crashes := 0, 0, 0, 0, 0
		if s.saboteur != nil {
			d, dl, c, df, cr := s.saboteur.Counts()
			dropped, delayed, corrupted, diskFulls, crashes = int(d), int(dl), int(c), int(df), int(cr)
		}
		t.Logf("replica %d chaos: dropped=%d delayed=%d corrupted=%d diskfull=%d crashes=%d",
			i, dropped, delayed, corrupted, diskFulls, crashes)
	}
}
