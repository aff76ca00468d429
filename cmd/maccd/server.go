package main

// Server is the concurrent compile service: JSON in/out HTTP handlers over
// the shared content-addressed compile cache. Every compile or run request
// flows through a bounded worker pool with a per-request deadline covering
// both queue wait and work; the pass pipeline's panic isolation plus a
// handler-level recover keep one poisoned request from taking the process
// down.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"macc"
	"macc/internal/ccache"
	"macc/internal/farm"
	"macc/internal/faultinject"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// CacheDir enables the disk cache tier (empty = memory only).
	CacheDir string
	// CacheMem is the memory tier's byte budget (0 = default).
	CacheMem int64
	// Workers bounds concurrent compiles/runs (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-request deadline, queue wait included
	// (0 = 30s).
	Timeout time.Duration
	// MaxBody bounds the request body in bytes (0 = 1 MiB).
	MaxBody int64
	// MaxSimMem bounds a /run request's simulator memory (0 = 64 MiB).
	MaxSimMem int
	// MaxSimFuel bounds a /run request's executed instructions
	// (0 = 1<<28).
	MaxSimFuel int64
	// Peers are the other replicas' base URLs; when set, cache misses
	// consult their caches (verified, never trusted) before compiling.
	Peers []string
	// BatchSlots bounds how many batch-priority requests may occupy the
	// worker queue at once (0 = Workers). Interactive traffic is admitted
	// up to the full queue; batch beyond its slots is shed immediately.
	BatchSlots int
	// Chaos injects service faults (sabotaged peer responses, failing
	// disk writes) for resilience testing. Zero value: no chaos.
	Chaos faultinject.ServiceSpec
	// Service names this replica in trace spans and metrics envelopes
	// (empty = "maccd").
	Service string
	// FlightCap bounds the flight recorder's retained traces per ring
	// (0 = dtrace.DefaultFlightCap).
	FlightCap int
	// HistoryInterval is the metrics-history snapshot period
	// (0 = telemetry.DefaultHistoryInterval).
	HistoryInterval time.Duration
	// HistoryCap bounds the metrics-history ring
	// (0 = telemetry.DefaultHistoryCap).
	HistoryCap int
}

// Server holds the service state shared by all handlers.
type Server struct {
	cache       *ccache.Cache
	reg         *telemetry.Registry
	tracer      *dtrace.Tracer
	farm        *farm.Client
	saboteur    *faultinject.ServiceSaboteur
	sem         chan struct{}
	batchSem    chan struct{}
	draining    atomic.Bool
	service     string
	timeout     time.Duration
	maxBody     int64
	maxSimMem   int
	maxSimFuel  int64
	history     *telemetry.History
	stopHistory func()
}

// NewServer builds the service: one shared cache, one shared metrics
// registry, one worker-pool semaphore, and (when peers are configured) one
// farm client wired in as the cache's fallback tier.
func NewServer(opts ServerOptions) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchSlots := opts.BatchSlots
	if batchSlots <= 0 {
		batchSlots = workers
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	maxBody := opts.MaxBody
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	maxSimMem := opts.MaxSimMem
	if maxSimMem <= 0 {
		maxSimMem = 64 << 20
	}
	maxSimFuel := opts.MaxSimFuel
	if maxSimFuel <= 0 {
		maxSimFuel = 1 << 28
	}
	service := opts.Service
	if service == "" {
		service = "maccd"
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		reg:        reg,
		tracer:     dtrace.New(service, opts.FlightCap),
		sem:        make(chan struct{}, workers),
		batchSem:   make(chan struct{}, batchSlots),
		service:    service,
		timeout:    timeout,
		maxBody:    maxBody,
		maxSimMem:  maxSimMem,
		maxSimFuel: maxSimFuel,
	}
	cacheOpts := ccache.Options{Dir: opts.CacheDir, MemBudget: opts.CacheMem, Metrics: reg, Tracer: s.tracer}
	if opts.Chaos.Active() {
		s.saboteur = faultinject.NewServiceSaboteur(opts.Chaos)
		cacheOpts.DiskFault = s.saboteur.DiskFault()
	}
	if len(opts.Peers) > 0 {
		s.farm = farm.NewClient(farm.ClientOptions{
			Peers:   opts.Peers,
			Metrics: reg,
			Seed:    opts.Chaos.Seed,
			Tracer:  s.tracer,
		})
		cacheOpts.Fallback = s.farm.FallbackFunc()
	}
	s.cache = ccache.New(cacheOpts)
	// Continuous profiling: a bounded ring of periodic registry snapshots
	// with counter deltas/rates, so an operator attaching after an incident
	// still sees the recent shape of traffic. The first sample is taken
	// synchronously so /metrics/history is never empty.
	s.history = telemetry.NewHistory(reg, opts.HistoryCap)
	s.history.Record()
	s.stopHistory = s.history.Start(opts.HistoryInterval)
	return s
}

// Close stops the metrics-history sampler.
func (s *Server) Close() {
	if s.stopHistory != nil {
		s.stopHistory()
	}
}

// StartDrain begins a graceful shutdown: new compile/run requests are shed
// with 503 (which farm clients retry on another peer), /healthz fails so
// load balancers stop routing here, and in-flight requests keep their
// deadlines. /metrics stays available for the final flush.
func (s *Server) StartDrain() {
	s.draining.Store(true)
}

// Metrics returns the service registry (for the shutdown flush).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Tracer returns the replica's span tracer / flight recorder (for the
// SIGQUIT dump).
func (s *Server) Tracer() *dtrace.Tracer { return s.tracer }

// Service returns the replica's service name (for metrics envelopes).
func (s *Server) Service() string { return s.service }

// Handler returns the single-listener mux: the full service surface plus
// the operator debug surface, the layout used when no -debug-addr is
// configured. Existing deployments and tests keep working unchanged.
func (s *Server) Handler() http.Handler { return s.handler(true) }

// ServiceHandler returns the production mux with the operator debug
// surface split out (the layout used when -debug-addr is set): the
// flight recorder, farm dashboard, metrics history, and pprof move to
// DebugHandler. What stays is wire protocol, not debugging convenience —
// /compile, /run, /healthz, and the peer cache endpoint obviously, but
// also /metrics (the scrape target), /debug/spans (clients push their
// spans here), and /debug/trace (replicas pull each other's local spans
// over their service URLs, so trace assembly must answer here too).
func (s *Server) ServiceHandler() http.Handler { return s.handler(false) }

// handler builds the service mux. The peer cache endpoint answers only
// from local tiers (never the farm fallback), so replica lookups cannot
// recurse; when chaos is configured, the saboteur sits in front of it.
func (s *Server) handler(debug bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc(farm.DebugSpansPath, s.handleDebugSpans)
	mux.HandleFunc(farm.DebugTracePrefix, s.handleDebugTrace)
	if debug {
		mux.HandleFunc(farm.DebugFlightPath, s.handleDebugFlight)
		mux.HandleFunc(farm.DebugFarmPath, s.handleDebugFarm)
		mux.Handle("/metrics/history", s.history)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	peer := http.Handler(farm.PeerCacheHandler(s.cache, s.reg))
	if s.saboteur != nil {
		peer = s.saboteur.WrapHandler(peer)
	}
	mux.Handle(farm.PeerPathPrefix, peer)
	return mux
}

// DebugHandler returns the operator debug mux served on -debug-addr:
// net/http/pprof (continuous profiling), the bounded /metrics/history
// snapshot ring, the flight recorder, the farm dashboard, and trace
// assembly (dual-homed with the service listener — see ServiceHandler).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	telemetry.AttachPprof(mux)
	mux.Handle("/metrics/history", s.history)
	mux.HandleFunc(farm.DebugTracePrefix, s.handleDebugTrace)
	mux.HandleFunc(farm.DebugFlightPath, s.handleDebugFlight)
	mux.HandleFunc(farm.DebugFarmPath, s.handleDebugFarm)
	return mux
}

// Wire types live in internal/farm so cmd/macc -server and cmd/loadgen
// speak the same protocol.
type (
	CompileRequest  = farm.CompileRequest
	CompileResponse = farm.CompileResponse
	RunRequest      = farm.RunRequest
	RunResponse     = farm.RunResponse
	DataWrite       = farm.DataWrite
)

// httpError carries a status code out of a worker.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// configFor maps a request onto a macc.Config backed by the shared cache.
func (s *Server) configFor(req CompileRequest) (macc.Config, error) {
	if strings.TrimSpace(req.Source) == "" {
		return macc.Config{}, badRequest("missing source")
	}
	cfg, err := req.Config()
	if err != nil {
		return macc.Config{}, badRequest("%v", err)
	}
	switch req.Priority {
	case "", farm.PriorityInteractive, farm.PriorityBatch:
	default:
		return macc.Config{}, badRequest("unknown priority %q", req.Priority)
	}
	cfg.Cache = s.cache
	return cfg, nil
}

// serve decodes a JSON request, runs work on the bounded pool under the
// request deadline, and encodes the JSON response. work runs on a worker
// goroutine; panics there become 500s, deadline overruns 503/504s.
//
// Every request gets an ingress span opened before admission control, so
// queue wait is on the trace. Its parent comes from the traceparent request
// header when a farm client sent one; otherwise the span roots a new trace.
// Either way the span's context is echoed back in the response traceparent
// header, so callers can fetch /debug/trace/<id> afterwards. 5xx outcomes
// pin the trace into the flight recorder's incident ring.
func serve[Req any, Resp any](s *Server, w http.ResponseWriter, r *http.Request,
	histogram string, work func(ctx context.Context, req Req) (Resp, error)) {
	s.reg.Counter("maccd.requests").Add(1)
	parent, _ := dtrace.ParseTraceparent(r.Header.Get(dtrace.Header))
	sp := s.tracer.StartSpan(parent, r.Method+" "+r.URL.Path, dtrace.KindIngress)
	w.Header().Set(dtrace.Header, sp.Context().Traceparent())
	defer sp.End()
	fail := func(code int, msg string) {
		sp.SetAttr("status", strconv.Itoa(code))
		sp.SetErr(msg)
		if code >= 500 {
			s.tracer.MarkIncident(sp.TraceID())
		}
		s.fail(w, code, msg)
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.reg.Counter("maccd.shed_draining").Add(1)
		fail(http.StatusServiceUnavailable, "draining")
		return
	}
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	ctx = dtrace.ContextWith(ctx, sp.Context())

	// Admission control: batch-priority requests may occupy only their
	// bounded share of the queue and are shed immediately when it is
	// full — interactive latency is never hostage to a batch backlog.
	releaseBatch := func() {}
	if p, ok := any(req).(interface{ AdmissionTier() string }); ok && p.AdmissionTier() == farm.PriorityBatch {
		select {
		case s.batchSem <- struct{}{}:
			releaseBatch = func() { <-s.batchSem }
		default:
			s.reg.Counter("maccd.shed_batch").Add(1)
			fail(http.StatusServiceUnavailable, "saturated: batch queue full")
			return
		}
	}

	// Acquire a pool slot; a saturated service sheds load when the
	// deadline expires in the queue.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		releaseBatch()
		s.reg.Counter("maccd.queue_timeouts").Add(1)
		fail(http.StatusServiceUnavailable, "saturated: timed out waiting for a worker")
		return
	}

	type outcome struct {
		resp Resp
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() { <-s.sem; releaseBatch() }()
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter("maccd.panics").Add(1)
				done <- outcome{err: &httpError{code: http.StatusInternalServerError,
					msg: fmt.Sprintf("internal panic: %v", p)}}
			}
		}()
		start := time.Now()
		resp, err := work(ctx, req)
		// The exemplar links this latency sample to its trace, so a
		// tail-latency bucket in /metrics names a trace to pull.
		s.reg.Histogram(histogram).ObserveExemplar(time.Since(start).Nanoseconds(), sp.TraceID())
		done <- outcome{resp: resp, err: err}
	}()

	select {
	case out := <-done:
		if out.err != nil {
			var he *httpError
			if errors.As(out.err, &he) {
				fail(he.code, he.msg)
			} else {
				fail(http.StatusUnprocessableEntity, out.err.Error())
			}
			return
		}
		sp.SetAttr("status", "200")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out.resp)
	case <-ctx.Done():
		// The worker keeps running to completion (compiles are not
		// cancellable mid-pass) but the client gets released; a later
		// identical request will hit the cache the worker populates.
		s.reg.Counter("maccd.timeouts").Add(1)
		fail(http.StatusGatewayTimeout, "deadline exceeded")
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.reg.Counter("maccd.errors").Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	serve(s, w, r, "maccd.compile_ns", func(ctx context.Context, req CompileRequest) (CompileResponse, error) {
		prog, err := s.compile(ctx, req)
		if err != nil {
			return CompileResponse{}, err
		}
		return farm.NewCompileResponse(prog), nil
	})
}

// handleRun adds maccd's policy to the farm's /run set-up: the memory
// bound, checked before compiling, the fuel bound, and the simulate span.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	serve(s, w, r, "maccd.run_ns", func(ctx context.Context, req RunRequest) (RunResponse, error) {
		var prog *macc.Program
		sim, name, args, err := req.Prepare(func(mem int) (*macc.Program, error) {
			if mem > s.maxSimMem {
				return nil, badRequest("mem %d exceeds limit %d", mem, s.maxSimMem)
			}
			var err error
			prog, err = s.compile(ctx, req.CompileRequest)
			return prog, err
		})
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) {
				err = badRequest("%v", err)
			}
			return RunResponse{}, err
		}
		defer sim.Release()
		sim.Fuel = s.maxSimFuel
		runSp := s.tracer.StartSpan(dtrace.FromContext(ctx), "simulate", dtrace.KindRun)
		runSp.SetAttr("call", req.Call)
		res, err := sim.Run(name, args...)
		if err != nil {
			runSp.SetErr(err.Error())
			runSp.End()
			return RunResponse{}, fmt.Errorf("run: %w", err)
		}
		runSp.End()
		return farm.NewRunResponse(res, prog.Cached), nil
	})
}

// compile routes one request through the shared cache. ctx carries the
// ingress span's context; a per-request recorder lets a cold compile's
// pass spans link into the request trace (warm hits and singleflight
// waiters record cache-tier spans instead).
func (s *Server) compile(ctx context.Context, req CompileRequest) (*macc.Program, error) {
	cfg, err := s.configFor(req)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = telemetry.NewRecorder()
	cfg.Tracer = s.tracer
	prog, err := macc.CompileCtx(ctx, req.Source, cfg)
	if err != nil {
		return nil, badRequest("compile: %v", err)
	}
	return prog, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.farm != nil {
		s.farm.PublishStats()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteServiceJSON(w, s.service); err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}

// handleDebugSpans ingests spans pushed by clients (loadgen, macc -server)
// so this replica can answer /debug/trace/<id> with the client-side view
// of the request included.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in farm.SpanIngest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&in); err != nil {
		s.fail(w, http.StatusBadRequest, "bad span batch: "+err.Error())
		return
	}
	s.tracer.Ingest(in.Spans)
	fmt.Fprintf(w, "accepted %d spans\n", len(in.Spans))
}

// handleDebugTrace serves one assembled trace. By default the replica
// merges its local spans with each peer's (?scope=local pulls, so replicas
// never recurse) and renders Chrome trace_event JSON; ?format=spans
// returns the raw span set instead (used replica-to-replica and by
// loadgen for per-hop breakdowns).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, farm.DebugTracePrefix)
	if _, err := dtrace.ParseTraceID(id); err != nil {
		s.fail(w, http.StatusBadRequest, "bad trace id: want 32 hex digits")
		return
	}
	spans := s.tracer.Spans(id)
	if r.URL.Query().Get("scope") != "local" && s.farm != nil {
		spans = mergeSpans(spans, s.pullPeerSpans(r.Context(), id))
	}
	if len(spans) == 0 {
		s.fail(w, http.StatusNotFound, "unknown trace "+id)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		dtrace.WriteChromeTrace(w, spans)
	case "spans":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(farm.TraceDump{Trace: id, Spans: spans})
	default:
		s.fail(w, http.StatusBadRequest, "unknown format (want chrome or spans)")
	}
}

// pullPeerSpans fetches each peer's local spans for one trace. Failures
// are fine — a dead peer just means its hops are missing from the view.
func (s *Server) pullPeerSpans(ctx context.Context, id string) []dtrace.Span {
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var out []dtrace.Span
	for _, base := range s.farm.PeerURLs() {
		url := base + farm.DebugTracePrefix + id + "?scope=local&format=spans"
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
		if err != nil {
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		var dump farm.TraceDump
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&dump)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			out = append(out, dump.Spans...)
		}
	}
	return out
}

// mergeSpans unions local and remote spans, deduplicating by span ID (a
// span pushed to us earlier may also come back in a peer pull).
func mergeSpans(local, remote []dtrace.Span) []dtrace.Span {
	seen := make(map[string]bool, len(local))
	for _, sp := range local {
		seen[sp.ID] = true
	}
	out := local
	for _, sp := range remote {
		if !seen[sp.ID] {
			seen[sp.ID] = true
			out = append(out, sp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// handleDebugFlight dumps the flight recorder: one summary line per
// retained trace (incidents pinned), full spans with ?full=1.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.tracer.WriteFlight(w, r.URL.Query().Get("full") == "1")
}

// handleDebugFarm is the plain-text at-a-glance dashboard: request and
// shed counters, cache tier ratios, retry counters, per-peer breaker
// state, and flight-recorder depth.
func (s *Server) handleDebugFarm(w http.ResponseWriter, r *http.Request) {
	if s.farm != nil {
		s.farm.PublishStats()
	}
	snap := s.reg.Snapshot()
	c := snap.Counters
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "service   %s draining=%v workers=%d\n", s.service, s.draining.Load(), cap(s.sem))
	fmt.Fprintf(w, "requests  total=%d errors=%d panics=%d shed_draining=%d shed_batch=%d queue_timeouts=%d timeouts=%d\n",
		c["maccd.requests"], c["maccd.errors"], c["maccd.panics"],
		c["maccd.shed_draining"], c["maccd.shed_batch"], c["maccd.queue_timeouts"], c["maccd.timeouts"])
	hits := c["ccache.mem_hits"] + c["ccache.disk_hits"] + c["ccache.peer_hits"]
	lookups := hits + c["ccache.misses"]
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	fmt.Fprintf(w, "cache     hit_ratio=%.3f mem=%d disk=%d peer=%d miss=%d dedup_waits=%d evictions=%d\n",
		ratio, c["ccache.mem_hits"], c["ccache.disk_hits"], c["ccache.peer_hits"],
		c["ccache.misses"], c["ccache.dedup_waiters"], c["ccache.evictions"])
	fmt.Fprintf(w, "farm      retries=%d attempt_errors=%d attempt_5xx=%d peer_lookup_hits=%d\n",
		c["farm.retries"], c["farm.attempt_errors"], c["farm.attempt_5xx"], c["farm.peer_lookup_hits"])
	traces := s.tracer.Summaries()
	incidents := 0
	for _, t := range traces {
		if t.Incident {
			incidents++
		}
	}
	fmt.Fprintf(w, "flight    traces=%d incidents=%d\n", len(traces), incidents)
	if s.farm != nil {
		for _, p := range s.farm.PeerStats() {
			fmt.Fprintf(w, "peer      %-28s state=%-9s trips=%d\n", p.URL, p.State, p.Trips)
		}
	}
}
