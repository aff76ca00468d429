// Package telemetry is the compiler's observability layer: structured
// optimization remarks (the LLVM -Rpass idiom), per-pass spans (dtrace.Spans
// of kind pass, exported by dtrace.WriteChromeTrace), and a dependency-free
// metrics registry of counters, gauges, and histograms shared by the static
// pipeline and the dynamic simulator.
//
// The paper justifies every coalescing decision with evidence — hazard
// verdicts, static schedule cycle counts, measured memory-reference
// reductions. This package makes our reproduction do the same: every
// accept/reject is an explainable, machine-readable event rather than a
// silent branch.
//
// The Recorder cooperates with the hardened pass manager's rollback
// semantics: remarks and metric increments emitted while a pass is running
// are staged, and committed only when the pass survives its verification
// checkpoint. A rolled-back pass therefore retracts its remarks — the span
// remains, marked rolled_back, as the durable record of the incident.
package telemetry

import (
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"macc/internal/telemetry/dtrace"
)

// Emitter is the sink passes emit remarks and metric deltas into. A nil
// Emitter is never passed around; use Nop for "observability off".
type Emitter interface {
	// Emit records one optimization remark.
	Emit(r Remark)
	// Count adds n to the named counter.
	Count(name string, n int64)
	// Observe records one histogram sample.
	Observe(name string, v int64)
}

// Nop is an Emitter that discards everything.
type Nop struct{}

func (Nop) Emit(Remark)           {}
func (Nop) Count(string, int64)   {}
func (Nop) Observe(string, int64) {}

// OrNop returns em, or a Nop when em is nil, so passes can emit
// unconditionally.
func OrNop(em Emitter) Emitter {
	if em == nil {
		return Nop{}
	}
	return em
}

// WithUnit wraps em so every remark that does not already carry a unit is
// stamped with unit (the kernel/source name being compiled). Counters and
// histogram samples pass through untouched. A nil em or empty unit returns
// em unchanged (modulo the OrNop guarantee).
func WithUnit(em Emitter, unit string) Emitter {
	em = OrNop(em)
	if unit == "" {
		return em
	}
	return unitEmitter{em: em, unit: unit}
}

type unitEmitter struct {
	em   Emitter
	unit string
}

func (u unitEmitter) Emit(r Remark) {
	if r.Unit == "" {
		r.Unit = u.unit
	}
	u.em.Emit(r)
}
func (u unitEmitter) Count(name string, n int64)   { u.em.Count(name, n) }
func (u unitEmitter) Observe(name string, v int64) { u.em.Observe(name, v) }

// stage buffers one active pass's uncommitted output.
type stage struct {
	pass, fn       string
	instrs, blocks int // pre-pass IR size
	began          time.Time
	allocAt        uint64
	remarks        []Remark
	counts         map[string]int64
	observes       map[string][]int64
}

// allocBytes reads the runtime's cumulative heap allocation total. Unlike
// runtime.ReadMemStats this does not stop the world, so sampling it on
// every pass boundary is essentially free. The counter is process-wide:
// per-pass deltas are exact for a serial compile and an upper bound when
// other goroutines allocate concurrently.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Recorder accumulates one compilation-plus-run's remarks, pass spans, and
// metrics. It is safe for concurrent use; pass staging (BeginPass/EndPass)
// applies to the goroutine-serial compile pipeline.
type Recorder struct {
	mu      sync.Mutex
	remarks []Remark
	spans   []dtrace.Span
	reg     *Registry
	staged  *stage
}

// NewRecorder returns an empty Recorder with a fresh metrics Registry.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// Metrics returns the recorder's registry (shared with the simulator via
// sim.AttachMetrics, so static and dynamic counters live side by side).
func (r *Recorder) Metrics() *Registry { return r.reg }

// Emit records a remark, staging it when a pass is active.
func (r *Recorder) Emit(rem Remark) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged != nil {
		r.staged.remarks = append(r.staged.remarks, rem)
		return
	}
	r.remarks = append(r.remarks, rem)
}

// Count adds n to the named counter, staging the delta when a pass is
// active.
func (r *Recorder) Count(name string, n int64) {
	r.mu.Lock()
	if r.staged != nil {
		r.staged.counts[name] += n
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.reg.Counter(name).Add(n)
}

// Observe records a histogram sample, staged when a pass is active.
func (r *Recorder) Observe(name string, v int64) {
	r.mu.Lock()
	if r.staged != nil {
		r.staged.observes[name] = append(r.staged.observes[name], v)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.reg.Histogram(name).Observe(v)
}

// BeginPass opens a span for one pass run over one function and starts
// staging remarks and metric deltas. instrs and blocks are the function's
// pre-pass IR size.
func (r *Recorder) BeginPass(pass, fn string, instrs, blocks int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged != nil {
		// Defensive: a dangling stage commits rather than silently vanishing.
		r.endLocked(r.staged, 0, 0, false, "")
	}
	r.staged = &stage{
		pass: pass, fn: fn,
		instrs: instrs, blocks: blocks,
		began:    time.Now(),
		allocAt:  allocBytes(),
		counts:   make(map[string]int64),
		observes: make(map[string][]int64),
	}
}

// EndPass closes the active span. When rolledBack is false the staged
// remarks and metric deltas commit; when true they are retracted and only
// the span survives, carrying the failure message (the rollback linkage
// into pipeline.Diagnostics). instrs and blocks are the post-pass (or
// post-restore) IR size.
func (r *Recorder) EndPass(instrs, blocks int, rolledBack bool, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.staged; st != nil {
		r.staged = nil
		r.endLocked(st, instrs, blocks, rolledBack, errMsg)
	}
}

// endLocked files st's pass span and records the pass's self time and heap
// allocation delta as registry counters (pass.<name>.self_ns,
// pass.<name>.alloc_bytes) plus an overall histogram, so the continuous
// profiler (/metrics and the /metrics/history ring) shows where compile
// time and memory go per pass, not just per request. The cost was real
// either way, so it is recorded even for a rolled-back pass, whose staged
// remarks and metric deltas are otherwise dropped. Allocation deltas are
// process-wide (see allocBytes): exact for serial compiles, an upper bound
// under concurrency. r.mu is held; registry primitives take their own
// locks, which is safe because the registry never calls back into the
// recorder.
func (r *Recorder) endLocked(st *stage, instrs, blocks int, rolledBack bool, errMsg string) {
	dur := int64(time.Since(st.began))
	alloc := int64(allocBytes() - st.allocAt)
	remarks := len(st.remarks)
	if rolledBack {
		remarks = 0
	}
	sp := dtrace.Span{
		Name:  st.pass,
		Kind:  dtrace.KindPass,
		Start: st.began.UnixNano(),
		Dur:   dur,
		Err:   errMsg,
		Attrs: map[string]string{
			"fn":            st.fn,
			"instrs_before": strconv.Itoa(st.instrs),
			"instrs_after":  strconv.Itoa(instrs),
			"instrs_delta":  strconv.Itoa(instrs - st.instrs),
			"blocks_before": strconv.Itoa(st.blocks),
			"blocks_after":  strconv.Itoa(blocks),
			"remarks":       strconv.Itoa(remarks),
			"alloc_bytes":   strconv.FormatInt(alloc, 10),
		},
	}
	if rolledBack {
		sp.Attrs["rolled_back"] = "true"
	}
	r.spans = append(r.spans, sp)

	r.reg.Counter("pass." + st.pass + ".self_ns").Add(dur)
	if alloc > 0 {
		r.reg.Counter("pass." + st.pass + ".alloc_bytes").Add(alloc)
	}
	r.reg.Histogram("pipeline.pass_self_ns").Observe(dur)
	r.reg.Counter("pipeline.pass_runs").Add(1)
	if rolledBack {
		r.reg.Counter("pipeline.pass_rollbacks").Add(1)
		return
	}
	r.remarks = append(r.remarks, st.remarks...)
	for name, n := range st.counts {
		r.reg.Counter(name).Add(n)
	}
	for name, vs := range st.observes {
		h := r.reg.Histogram(name)
		for _, v := range vs {
			h.Observe(v)
		}
	}
}

// Remarks returns a copy of the committed remarks in emission order.
func (r *Recorder) Remarks() []Remark {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Remark, len(r.remarks))
	copy(out, r.remarks)
	return out
}

// Spans returns a copy of the pass spans in completion order, nil for a nil
// Recorder. Each span is a dtrace.KindPass span with an absolute start and
// no trace identity yet (dtrace.LinkRecorder stamps one); the Attrs maps are
// shared with the recorder and must not be modified.
func (r *Recorder) Spans() []dtrace.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]dtrace.Span(nil), r.spans...)
}
