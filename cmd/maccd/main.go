// Command maccd serves the macc compiler over HTTP with a shared
// content-addressed compile cache, and optionally joins a compile farm of
// replicas that consult each other's caches before compiling.
//
// Endpoints (JSON in/out):
//
//	POST /compile  {"source": "...", "machine": "alpha", ...}
//	               -> {"rtl": "...", "cached": true, ...}
//	POST /run      compile + simulate: adds "call", "mem", "data"
//	               -> {"ret": ..., "cycles": ..., "cached": ...}
//	GET  /metrics  telemetry registry snapshot (cache hit/miss/eviction/
//	               dedup counters, request-latency histograms)
//	GET  /healthz  liveness probe (503 while draining)
//	GET  /peer/entry/<key>  farm peer cache lookup (disk-envelope JSON)
//	GET  /debug/trace/<id>  one assembled distributed trace as Chrome
//	               trace_event JSON (?format=spans for the raw span set,
//	               ?scope=local to skip the peer fan-out)
//	POST /debug/spans       span ingest from clients (loadgen, macc -server)
//	GET  /debug/flight      flight-recorder dump (?full=1 includes spans)
//	GET  /debug/farm        plain-text dashboard: breaker states, retry
//	               counters, cache tier ratios, flight depth
//	GET  /metrics/history   bounded ring of periodic registry snapshots
//	               with counter deltas and per-second rates
//
// With -debug-addr set, the operator debug surface splits onto its own
// listener: /debug/flight, /debug/farm, /metrics/history, and the
// net/http/pprof continuous-profiling endpoints (/debug/pprof/...) are
// served there instead of on -addr, so they can be firewalled separately
// from production traffic. /metrics (the scrape target), /debug/spans
// (client span ingest), and /debug/trace (replicas pull each other's
// spans over their service URLs) stay on -addr; /debug/trace answers on
// both. Without -debug-addr everything stays on the single listener as
// before, minus pprof.
//
// Every request carries a distributed trace: the ingress span parents
// under the caller's traceparent header (or roots a new trace), and the
// response echoes the trace in its traceparent header. SIGQUIT dumps the
// flight recorder to stderr without exiting.
//
// Identical concurrent compiles are deduplicated through the cache's
// singleflight, so a thundering herd of the same source costs one compile.
// Requests run on a bounded worker pool with a per-request deadline that
// covers queue wait; a saturated server sheds load with 503 instead of
// accepting unbounded work, and batch-priority requests are shed first.
//
// On SIGTERM/SIGINT the server drains gracefully: it stops accepting new
// work (503 + failing health checks), lets in-flight requests finish up to
// their deadlines, flushes a final metrics snapshot, and exits.
//
// Example farm:
//
//	maccd -addr :8080 -cache-dir /tmp/c0 -peers http://localhost:8081,http://localhost:8082 &
//	maccd -addr :8081 -cache-dir /tmp/c1 -peers http://localhost:8080,http://localhost:8082 &
//	maccd -addr :8082 -cache-dir /tmp/c2 -peers http://localhost:8080,http://localhost:8081 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"macc/internal/ccache"
	"macc/internal/faultinject"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk compile cache tier (empty: memory only)")
	cacheMem := flag.Int64("cache-mem", ccache.DefaultMemBudget, "in-memory compile cache budget in bytes")
	workers := flag.Int("workers", 0, "max concurrent compiles/runs (0: GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	peers := flag.String("peers", "", "comma-separated base URLs of farm replicas to consult on cache misses")
	batchSlots := flag.Int("batch-slots", 0, "max batch-priority requests in the queue (0: workers)")
	drainTimeout := flag.Duration("drain-timeout", 0, "graceful shutdown budget (0: request timeout + 5s)")
	chaos := flag.String("chaos", "", "fault injection spec, e.g. drop=0.1,delay=0.2,corrupt=0.1,maxdelay=50ms,diskfull=0.05,crashwrite=0.05,seed=42")
	metricsOut := flag.String("metrics-out", "", "file to write the final metrics snapshot to on shutdown (empty: stderr)")
	flight := flag.Int("flight", 0, "flight-recorder capacity in traces per ring (0: default)")
	debugAddr := flag.String("debug-addr", "", "separate listener for the operator debug surface (pprof, /metrics/history, /debug/flight, /debug/farm); empty: everything on -addr")
	metricsInterval := flag.Duration("metrics-interval", 0, "metrics-history snapshot period (0: default 5s)")
	flag.Parse()

	spec, err := faultinject.ParseServiceSpec(*chaos)
	if err != nil {
		log.Fatal(err)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	srv := NewServer(ServerOptions{
		CacheDir:        *cacheDir,
		CacheMem:        *cacheMem,
		Workers:         *workers,
		Timeout:         *timeout,
		MaxBody:         *maxBody,
		Peers:           peerList,
		BatchSlots:      *batchSlots,
		Chaos:           spec,
		Service:         serviceName(*addr),
		FlightCap:       *flight,
		HistoryInterval: *metricsInterval,
	})
	defer srv.Close()

	// SIGQUIT dumps the flight recorder to stderr without exiting — the
	// "what was this replica just doing" escape hatch for a wedged farm.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			if err := srv.Tracer().WriteFlight(os.Stderr, false); err != nil {
				log.Printf("maccd: flight dump: %v", err)
			}
		}
	}()

	handler := srv.Handler()
	if *debugAddr != "" {
		handler = srv.ServiceHandler()
		ds := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			fmt.Printf("maccd debug surface on %s\n", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	drainBudget := *drainTimeout
	if drainBudget <= 0 {
		drainBudget = *timeout + 5*time.Second
	}
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Drain: stop admitting (peers' breakers see the 503s), fail
		// health checks so load balancers route around us, then wait for
		// in-flight requests up to their deadlines.
		srv.StartDrain()
		sctx, cancel := context.WithTimeout(context.Background(), drainBudget)
		defer cancel()
		shutdownDone <- hs.Shutdown(sctx)
	}()

	fmt.Printf("maccd listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		log.Printf("maccd: drain incomplete: %v", err)
	}

	// Flush the final metrics snapshot exactly once, after the last
	// request has been counted.
	out := os.Stderr
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Printf("maccd: metrics flush: %v", err)
		} else {
			defer f.Close()
			out = f
		}
	}
	if err := srv.Metrics().WriteServiceJSON(out, srv.Service()); err != nil {
		log.Printf("maccd: metrics flush: %v", err)
	}
}

// serviceName derives the span/metrics service name from the listen
// address: ":8080" -> "maccd:8080", "host:8080" -> "maccd@host:8080".
func serviceName(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "maccd" + addr
	}
	return "maccd@" + addr
}
