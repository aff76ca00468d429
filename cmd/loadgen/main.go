// Command loadgen replays multi-tenant compile-farm traffic against one or
// more maccd replicas and verifies every answer differentially: each
// completed /compile must return RTL byte-identical to a local uncached
// compile of the same source, and each completed /run must report the same
// return value and cycle count as a local simulation. Chaos in the farm
// (sabotaged peers, failing disks, killed replicas) may therefore cost
// latency or throughput, but any correctness loss fails the run loudly.
//
// Traffic shape: a fixed number of tenants whose request frequencies follow
// a Zipf distribution (a few hot tenants, a long cold tail — each tenant's
// sources are distinct, so hot tenants exercise the cache tiers and cold
// ones force compiles), a configurable batch-priority fraction, and a
// compile/run split. The whole stream is seeded and closed-loop: a worker
// sends its next request when the previous one completes.
//
//	loadgen -targets http://localhost:8080,http://localhost:8081 \
//	        -requests 400 -concurrency 8 -seed 42 -out BENCH_service.json
//
// The artifact records latency quantiles, saturation throughput, shed and
// error counts, the farm-wide peer-hit ratio, and breaker trips. Every
// request is distributed-traced: the slowest N land in the artifact with
// their trace IDs and per-hop span breakdowns (pull the full tree from any
// replica at /debug/trace/<id>), and the embedded client metrics snapshot
// carries latency-bucket exemplars naming the same traces. A second
// invocation gates on an artifact (optionally against a baseline):
//
//	loadgen -gate BENCH_service.json -baseline BENCH_single.json -max-5xx-frac 0.02
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macc"
	"macc/internal/bench"
	"macc/internal/farm"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// Schema identifies the artifact format.
const Schema = "macc-service/v2"

// kernel is one workload shape in the corpus; every tenant gets its own
// variant of each kernel (distinct source, hence distinct cache key).
type kernel struct {
	name string
	src  string
	call string
	data []farm.DataWrite
	mem  int
}

// corpus builds the kernel set. The shapes mirror the paper's kernels —
// reductions, elementwise image ops, and a store-heavy update loop — sized
// so a single compile stays in the milliseconds.
func corpus() []kernel {
	n := 64
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64((i*7 + 3) % 251)
	}
	data := []farm.DataWrite{{Addr: 4096, Width: 4, Ints: ints}}
	data2 := []farm.DataWrite{
		{Addr: 4096, Width: 4, Ints: ints},
		{Addr: 8192, Width: 4, Ints: ints},
	}
	return []kernel{
		{
			name: "sum",
			src:  "int sum(int *a, int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }",
			call: fmt.Sprintf("sum(4096,%d)", n),
			data: data, mem: 1 << 16,
		},
		{
			name: "dot",
			src:  "int dot(int *a, int *b, int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; } return s; }",
			call: fmt.Sprintf("dot(4096,8192,%d)", n),
			data: data2, mem: 1 << 16,
		},
		{
			name: "scale",
			src:  "int scale(int *a, int *b, int n) { int i; for (i = 0; i < n; i = i + 1) { b[i] = a[i] * 3 + 1; } return b[n - 1]; }",
			call: fmt.Sprintf("scale(4096,8192,%d)", n),
			data: data, mem: 1 << 16,
		},
		{
			name: "diff",
			src:  "int diff(int *a, int *b, int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + a[i] - b[i] / 2; } return s; }",
			call: fmt.Sprintf("diff(4096,8192,%d)", n),
			data: data2, mem: 1 << 16,
		},
	}
}

// tenantSrc derives tenant t's variant of a kernel: an extra private
// function changes the translation unit (and so the content address and
// code layout) without changing the entry point's behaviour.
func tenantSrc(k kernel, t int) string {
	return fmt.Sprintf("%s\nint tenant%d(int x) { return x + %d; }\n", k.src, t, t*13+1)
}

// reference is the local ground truth for one exact source.
type reference struct {
	rtl    string
	ret    int64
	cycles int64
}

// refStore computes-and-caches local reference compiles/runs keyed by the
// exact source text.
type refStore struct {
	mu   sync.Mutex
	refs map[string]*reference
}

// get returns the reference for (src, k), compiling and simulating locally
// on first use. The compile reads its configuration from the same
// CompileRequest the workers send, and the run goes through the /run
// set-up maccd uses, so the reference is the server's answer without the
// server.
func (rs *refStore) get(src string, k kernel) (*reference, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r, ok := rs.refs[src]; ok {
		return r, nil
	}
	cfg, err := farm.CompileRequest{Source: src}.Config()
	if err != nil {
		return nil, err
	}
	prog, err := macc.Compile(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	run := farm.RunRequest{Call: k.call, Mem: k.mem, Data: k.data}
	s, name, args, err := run.Prepare(func(int) (*macc.Program, error) { return prog, nil })
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	defer s.Release()
	res, err := s.Run(name, args...)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r := &reference{rtl: prog.RTL.String(), ret: res.Ret, cycles: res.Cycles}
	if rs.refs == nil {
		rs.refs = make(map[string]*reference)
	}
	rs.refs[src] = r
	return r, nil
}

// Artifact is the persisted measurement (BENCH_service.json).
type Artifact struct {
	Schema string `json:"schema"`
	// Provenance records where the measurement ran (git commit, Go
	// version, OS/arch, CPUs); the gate refuses relative throughput
	// comparisons across differing hosts.
	Provenance  bench.Provenance `json:"provenance"`
	Label       string           `json:"label,omitempty"`
	Targets     []string         `json:"targets"`
	Requests    int              `json:"requests"`
	Concurrency int              `json:"concurrency"`
	Tenants     int              `json:"tenants"`
	Zipf        float64          `json:"zipf"`
	Seed        int64            `json:"seed"`
	BatchFrac   float64          `json:"batch_frac"`
	RunFrac     float64          `json:"run_frac"`
	Chaos       string           `json:"chaos,omitempty"`

	DurationNS    int64   `json:"duration_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Exact quantiles of the completed requests' latencies.
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`

	Completed    int64 `json:"completed"`
	Shed         int64 `json:"shed"`
	HTTP5xx      int64 `json:"http_5xx"`
	ClientErrors int64 `json:"client_errors"`
	Miscompiles  int64 `json:"miscompiles"`

	PeerHits     int64   `json:"peer_hits"`
	PeerHitRatio float64 `json:"peer_hit_ratio"`
	BreakerTrips int64   `json:"breaker_trips"`
	Retries      int64   `json:"retries"`
	CacheHits    int64   `json:"cache_hits"`
	TornWrites   int64   `json:"recovered_torn"`

	// Slowest names the tail: the slowest completed requests with their
	// distributed-trace IDs (fetchable from any replica at
	// /debug/trace/<id>) and per-hop span breakdowns.
	Slowest []SlowRequest `json:"slowest,omitempty"`
	// ClientMetrics embeds the load generator's own registry snapshot in
	// the shared macc-metrics/v1 envelope (latency exemplars included).
	ClientMetrics *telemetry.Snapshot `json:"client_metrics,omitempty"`
}

// SlowRequest is one tail-latency exemplar: enough to pull the full trace
// and see where the time went without re-running anything.
type SlowRequest struct {
	Trace    string `json:"trace"`
	NS       int64  `json:"ns"`
	Kernel   string `json:"kernel"`
	Tenant   int    `json:"tenant"`
	Endpoint string `json:"endpoint"`
	// Spans counts the assembled trace's spans; BreakdownNS sums span
	// durations by kind (ingress, attempt, cache, compute, pass, ...).
	// Zero/nil when the trace could not be fetched back.
	Spans       int              `json:"spans,omitempty"`
	BreakdownNS map[string]int64 `json:"breakdown_ns,omitempty"`
}

// slowTracker keeps the N slowest completed requests, concurrency-safe.
type slowTracker struct {
	mu  sync.Mutex
	n   int
	top []SlowRequest
}

func (st *slowTracker) offer(s SlowRequest) {
	if st.n <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.top = append(st.top, s)
	sort.Slice(st.top, func(i, j int) bool { return st.top[i].NS > st.top[j].NS })
	if len(st.top) > st.n {
		st.top = st.top[:st.n]
	}
}

func main() {
	targets := flag.String("targets", "", "comma-separated maccd base URLs")
	requests := flag.Int("requests", 200, "total requests to send")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers")
	tenants := flag.Int("tenants", 4, "distinct tenants (Zipf-distributed request shares)")
	zipfS := flag.Float64("zipf", 1.2, "Zipf exponent for tenant popularity (> 1)")
	seed := flag.Int64("seed", 42, "deterministic traffic seed")
	batchFrac := flag.Float64("batch-frac", 0.3, "fraction of requests sent at batch priority")
	runFrac := flag.Float64("run-frac", 0.1, "fraction of requests that are /run (rest /compile)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-attempt request timeout")
	out := flag.String("out", "BENCH_service.json", "artifact output path")
	label := flag.String("label", "", "free-form label recorded in the artifact")
	chaos := flag.String("chaos", "", "chaos spec in effect on the targets (recorded, not enforced)")
	slowest := flag.Int("slowest", 5, "slowest requests to record with trace IDs and span breakdowns (0: off)")

	gate := flag.String("gate", "", "gate mode: path of the artifact to check (skips load generation)")
	baseline := flag.String("baseline", "", "gate mode: artifact to beat on throughput")
	max5xxFrac := flag.Float64("max-5xx-frac", 0.02, "gate mode: max hard-failure fraction of requests")
	flag.Parse()

	if *gate != "" {
		os.Exit(runGate(*gate, *baseline, *max5xxFrac))
	}
	if *targets == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -targets required (or -gate for gate mode)")
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*targets, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -zipf must be > 1")
		os.Exit(2)
	}

	art, err := run(urls, *requests, *concurrency, *tenants, *zipfS, *seed, *batchFrac, *runFrac, *timeout, *slowest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	art.Label = *label
	art.Chaos = *chaos

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	f.Close()

	fmt.Printf("loadgen: %d/%d completed, %.1f req/s, p50 %v p90 %v p99 %v max %v, shed %d, 5xx %d, miscompiles %d, peer hits %d (ratio %.2f), breaker trips %d\n",
		art.Completed, art.Requests, art.ThroughputRPS,
		time.Duration(art.P50NS), time.Duration(art.P90NS), time.Duration(art.P99NS), time.Duration(art.MaxNS),
		art.Shed, art.HTTP5xx, art.Miscompiles, art.PeerHits, art.PeerHitRatio, art.BreakerTrips)
	if art.Miscompiles > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: MISCOMPILES DETECTED")
		os.Exit(1)
	}
}

// run drives the closed-loop workers and assembles the artifact.
func run(urls []string, requests, concurrency, tenants int, zipfS float64, seed int64,
	batchFrac, runFrac float64, timeout time.Duration, slowest int) (*Artifact, error) {
	reg := telemetry.NewRegistry()
	// The tracer retains every request's trace: the slowest exemplars are
	// often the earliest (cold) requests, which a smaller ring would evict
	// before the post-run ReportTrace pushes them to the farm.
	tracer := dtrace.New("loadgen", requests)
	client := farm.NewClient(farm.ClientOptions{
		Peers:          urls,
		AttemptTimeout: timeout,
		Seed:           seed,
		Metrics:        reg,
		Tracer:         tracer,
	})

	kernels := corpus()
	refs := &refStore{}
	// Precompute every (kernel, tenant) source and its reference before
	// timing starts, so reference compiles don't pollute the measurement.
	srcs := make([][]string, len(kernels))
	for ki, k := range kernels {
		srcs[ki] = make([]string, tenants)
		for t := 0; t < tenants; t++ {
			srcs[ki][t] = tenantSrc(k, t)
			if _, err := refs.get(srcs[ki][t], k); err != nil {
				return nil, fmt.Errorf("kernel %s tenant %d: %w", k.name, t, err)
			}
		}
	}

	var completed, shed, http5xx, clientErrs, miscompiles atomic.Int64
	// Request latency lives in the client registry so the artifact's
	// embedded snapshot carries the histogram and its trace exemplars; the
	// raw samples give the artifact exact quantiles.
	lat := client.Metrics().Histogram("loadgen.request_ns")
	var latMu sync.Mutex
	latencies := make([]int64, 0, requests)
	slow := &slowTracker{n: slowest}

	start := time.Now()
	var wg sync.WaitGroup
	idxc := make(chan int)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(worker)*7919))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(tenants-1))
			for range idxc {
				tenant := int(zipf.Uint64())
				ki := rng.Intn(len(kernels))
				k := kernels[ki]
				src := srcs[ki][tenant]
				ref, err := refs.get(src, k)
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				req := farm.CompileRequest{Source: src}
				if rng.Float64() < batchFrac {
					req.Priority = farm.PriorityBatch
				}
				isRun := rng.Float64() < runFrac
				endpoint := "/compile"
				if isRun {
					endpoint = "/run"
				}

				// Every request is a trace: the root span's context rides
				// the farm client's attempts into the serving replica.
				root := tracer.StartRoot(endpoint+" "+k.name, dtrace.KindRequest)
				root.SetAttr("kernel", k.name)
				root.SetAttr("tenant", fmt.Sprintf("%d", tenant))
				ctx := dtrace.ContextWith(context.Background(), root.Context())

				t0 := time.Now()
				var ok, wrong bool
				if isRun {
					var resp farm.RunResponse
					_, err = client.PostJSON(ctx, "/run",
						farm.RunRequest{CompileRequest: req, Call: k.call, Mem: k.mem, Data: k.data}, &resp)
					ok = err == nil
					wrong = ok && (resp.Ret != ref.ret || resp.Cycles != ref.cycles)
				} else {
					var resp farm.CompileResponse
					_, err = client.PostJSON(ctx, "/compile", req, &resp)
					ok = err == nil
					wrong = ok && resp.RTL != ref.rtl
				}
				elapsed := time.Since(t0).Nanoseconds()
				if err != nil {
					root.SetErr(err.Error())
				}
				root.End()
				switch {
				case wrong:
					miscompiles.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: MISCOMPILE kernel=%s tenant=%d run=%v\n", k.name, tenant, isRun)
				case ok:
					completed.Add(1)
					// The exemplar ties the latency bucket to the trace, so
					// a fat tail in the artifact names traces to pull.
					lat.ObserveExemplar(elapsed, root.TraceID())
					latMu.Lock()
					latencies = append(latencies, elapsed)
					latMu.Unlock()
					slow.offer(SlowRequest{
						Trace: root.TraceID(), NS: elapsed,
						Kernel: k.name, Tenant: tenant, Endpoint: endpoint,
					})
				default:
					var se *farm.StatusError
					switch {
					case errors.As(err, &se) && se.Code == http.StatusServiceUnavailable:
						shed.Add(1)
					case errors.As(err, &se):
						http5xx.Add(1)
					default:
						clientErrs.Add(1)
					}
				}
			}
		}(w)
	}
	for i := 0; i < requests; i++ {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
	elapsed := time.Since(start)

	client.PublishStats()
	creg := client.Metrics()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	art := &Artifact{
		Schema:        Schema,
		Provenance:    bench.NewProvenance(Schema),
		Targets:       urls,
		Requests:      requests,
		Concurrency:   concurrency,
		Tenants:       tenants,
		Zipf:          zipfS,
		Seed:          seed,
		BatchFrac:     batchFrac,
		RunFrac:       runFrac,
		DurationNS:    elapsed.Nanoseconds(),
		ThroughputRPS: float64(completed.Load()) / elapsed.Seconds(),
		P50NS:         quantile(latencies, 0.50),
		P90NS:         quantile(latencies, 0.90),
		P99NS:         quantile(latencies, 0.99),
		MaxNS:         quantile(latencies, 1),
		Completed:     completed.Load(),
		Shed:          shed.Load(),
		HTTP5xx:       http5xx.Load(),
		ClientErrors:  clientErrs.Load(),
		Miscompiles:   miscompiles.Load(),
		Retries:       creg.CounterValue("farm.retries"),
	}

	// Scrape every replica's final metrics for the farm-side counters.
	for _, u := range urls {
		snap, err := scrape(u)
		if err != nil {
			continue // a killed replica has no final metrics
		}
		art.PeerHits += snap.Counters["ccache.peer_hits"]
		art.CacheHits += snap.Counters["ccache.mem_hits"] + snap.Counters["ccache.disk_hits"]
		art.TornWrites += snap.Counters["ccache.recovered_torn"]
		art.BreakerTrips += int64(snap.Gauges["farm.breaker_trips"])
	}
	if c := completed.Load(); c > 0 {
		art.PeerHitRatio = float64(art.PeerHits) / float64(c)
	}

	// Push the slowest traces' client-side spans to the farm, then pull
	// each assembled trace back for its per-hop breakdown.
	slow.mu.Lock()
	art.Slowest = append([]SlowRequest(nil), slow.top...)
	slow.mu.Unlock()
	for i := range art.Slowest {
		s := &art.Slowest[i]
		client.ReportTrace(context.Background(), s.Trace)
		if spans := fetchTrace(urls, s.Trace); len(spans) > 0 {
			s.Spans = len(spans)
			s.BreakdownNS = make(map[string]int64)
			for _, sp := range spans {
				s.BreakdownNS[sp.Kind] += sp.Dur
			}
		}
	}

	snap := creg.Snapshot()
	snap.Service = "loadgen"
	art.ClientMetrics = &snap
	return art, nil
}

// quantile is the exact nearest-rank q-quantile of ascending samples: the
// smallest sample with at least a fraction q of all samples at or below it
// (0 for no samples).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// fetchTrace pulls one assembled trace's raw spans from the first replica
// that has it (best-effort: a dead replica just yields no breakdown).
func fetchTrace(urls []string, traceID string) []dtrace.Span {
	c := &http.Client{Timeout: 5 * time.Second}
	for _, u := range urls {
		resp, err := c.Get(u + farm.DebugTracePrefix + traceID + "?format=spans")
		if err != nil {
			continue
		}
		var dump farm.TraceDump
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&dump)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && len(dump.Spans) > 0 {
			return dump.Spans
		}
	}
	return nil
}

// scrapeSnapshot is the subset of a /metrics answer the artifact needs.
type scrapeSnapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func scrape(base string) (*scrapeSnapshot, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	var snap scrapeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// runGate checks an artifact against the correctness and resilience
// acceptance bars; returns the process exit code.
func runGate(path, baselinePath string, max5xxFrac float64) int {
	cur, err := loadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen gate:", err)
		return 1
	}
	failed := false
	check := func(ok bool, format string, args ...any) {
		if ok {
			return
		}
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen gate: FAIL: "+format+"\n", args...)
	}
	check(cur.Schema == Schema, "schema %q, want %q", cur.Schema, Schema)
	check(cur.Miscompiles == 0, "%d miscompiles — completed responses must be byte-identical to local compiles", cur.Miscompiles)
	check(cur.Completed > 0, "no requests completed")
	frac := 0.0
	if cur.Requests > 0 {
		frac = float64(cur.HTTP5xx+cur.ClientErrors) / float64(cur.Requests)
	}
	check(frac <= max5xxFrac, "hard-failure fraction %.3f exceeds budget %.3f (5xx=%d client=%d; 503 shed excluded)",
		frac, max5xxFrac, cur.HTTP5xx, cur.ClientErrors)
	if len(cur.Targets) > 1 {
		check(cur.PeerHits > 0, "multi-replica run with zero verified peer cache hits")
	}
	if baselinePath != "" {
		base, err := loadArtifact(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen gate:", err)
			return 1
		}
		if cur.Provenance.SameHost(base.Provenance) {
			check(cur.ThroughputRPS > base.ThroughputRPS,
				"farm throughput %.1f req/s does not beat baseline %.1f req/s",
				cur.ThroughputRPS, base.ThroughputRPS)
		} else {
			fmt.Fprintf(os.Stderr,
				"loadgen gate: baseline host differs (%s vs %s): throughput comparison skipped\n",
				base.Provenance.Host(), cur.Provenance.Host())
		}
	}
	if failed {
		return 1
	}
	fmt.Printf("loadgen gate: PASS (%d completed, %.1f req/s, %d peer hits, %d breaker trips)\n",
		cur.Completed, cur.ThroughputRPS, cur.PeerHits, cur.BreakerTrips)
	return 0
}

func loadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}
