package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Registry is a dependency-free metrics registry: named counters, gauges,
// and histograms, all safe for concurrent use. Names are dotted paths
// ("coalesce.wide_loads", "sim.dcache_misses") so snapshots sort into
// readable groups.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically growing sum. The trailing pad keeps two hot
// counters from sharing a 64-byte cache line, so the parallel bench harness's
// per-worker increments do not false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current sum.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float value (ratios like bytes/ref). Padded
// against false sharing like Counter.
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates int64 samples into power-of-two buckets: bucket i
// counts samples v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [65]int64
	// exemplars holds, per bucket, the largest-valued sample that carried a
	// trace ID — the Prometheus exemplar idiom. Lazily allocated so plain
	// Observe-only histograms (the bench hot path) pay nothing.
	exemplars *[65]Exemplar
}

// Exemplar ties one observed sample to the distributed trace that produced
// it, so a latency bucket in /metrics can be followed to /debug/trace/<id>.
type Exemplar struct {
	Value int64  `json:"value"`
	Trace string `json:"trace"`
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

func (h *Histogram) observeLocked(v int64) int {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := bucketOf(v)
	h.buckets[b]++
	return b
}

// ObserveExemplar records one sample and, when trace is non-empty, offers
// it as the bucket's exemplar. Each bucket keeps the largest-valued
// exemplar it has seen — deterministic under Merge regardless of worker
// interleaving, and the most useful one for tail-latency forensics.
func (h *Histogram) ObserveExemplar(v int64, trace string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.observeLocked(v)
	if trace == "" {
		return
	}
	h.offerExemplarLocked(b, Exemplar{Value: v, Trace: trace})
}

func (h *Histogram) offerExemplarLocked(bucket int, e Exemplar) {
	if h.exemplars == nil {
		h.exemplars = new([65]Exemplar)
	}
	cur := h.exemplars[bucket]
	if cur.Trace == "" || e.Value > cur.Value {
		h.exemplars[bucket] = e
	}
}

func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets maps the inclusive upper bound 2^i to its sample count;
	// empty buckets are omitted.
	Buckets map[string]int64 `json:"buckets,omitempty"`
	// Exemplars maps bucket labels to the trace-carrying sample retained
	// for that bucket (see ObserveExemplar); buckets without one are
	// omitted.
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`
}

// Snapshot freezes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if s.Buckets == nil {
			s.Buckets = make(map[string]int64)
		}
		s.Buckets[bucketLabel(i)] = n
	}
	if h.exemplars != nil {
		for i, e := range h.exemplars {
			if e.Trace == "" {
				continue
			}
			if s.Exemplars == nil {
				s.Exemplars = make(map[string]Exemplar)
			}
			s.Exemplars[bucketLabel(i)] = e
		}
	}
	return s
}

func bucketLabel(i int) string {
	le := int64(1) << uint(i)
	return "le_" + itoa(le)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// MetricsSchema versions the metrics JSON envelope. Every exporter in the
// tree — `macc -metrics`, maccd's /metrics and final flush, loadgen's
// embedded snapshot — emits this same shape, so tooling parses one format.
const MetricsSchema = "macc-metrics/v1"

// Snapshot is the registry frozen for export.
type Snapshot struct {
	Schema     string                       `json:"schema,omitempty"`
	Service    string                       `json:"service,omitempty"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes every metric under the shared schema envelope.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Schema:     MetricsSchema,
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Merge folds every metric of o into r: counters and histograms add, gauges
// take o's value when o has set one. The parallel bench harness gives each
// worker a private registry and merges them at the barrier, so the hot path
// never contends on shared metric cache lines.
func (r *Registry) Merge(o *Registry) {
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for k, c := range o.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[string]float64, len(o.gauges))
	for k, g := range o.gauges {
		gauges[k] = g.Value()
	}
	hists := make(map[string]*Histogram, len(o.hists))
	for k, h := range o.hists {
		hists[k] = h
	}
	o.mu.Unlock()

	for k, v := range counters {
		if v != 0 {
			r.Counter(k).Add(v)
		}
	}
	for k, v := range gauges {
		r.Gauge(k).Set(v)
	}
	for k, h := range hists {
		r.Histogram(k).merge(h)
	}
}

// merge folds o's samples into h. Exemplars merge by the same
// largest-value rule ObserveExemplar applies, so the merged result is
// independent of merge order.
func (h *Histogram) merge(o *Histogram) {
	o.mu.Lock()
	count, sum, min, max, buckets := o.count, o.sum, o.min, o.max, o.buckets
	var exemplars *[65]Exemplar
	if o.exemplars != nil {
		ex := *o.exemplars
		exemplars = &ex
	}
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || min < h.min {
		h.min = min
	}
	if h.count == 0 || max > h.max {
		h.max = max
	}
	h.count += count
	h.sum += sum
	for i, n := range buckets {
		h.buckets[i] += n
	}
	if exemplars != nil {
		for i, e := range exemplars {
			if e.Trace != "" {
				h.offerExemplarLocked(i, e)
			}
		}
	}
}

// CounterValue is a convenience read of one counter (zero when absent).
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// WriteJSON renders a snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteSnapshot(w, r.Snapshot())
}

// WriteServiceJSON renders a snapshot stamped with the emitting service's
// name — the one shared encoder behind `macc -metrics`, maccd's /metrics
// endpoint and final flush, and loadgen's artifact embed.
func (r *Registry) WriteServiceJSON(w io.Writer, service string) error {
	s := r.Snapshot()
	s.Service = service
	return WriteSnapshot(w, s)
}

// WriteSnapshot renders one snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
