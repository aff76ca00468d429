// Package dtrace is a dependency-free distributed-tracing layer for the
// compile farm. It propagates W3C-traceparent-style context across HTTP
// hops, records spans into a per-process Tracer whose bounded ring of
// recent traces doubles as a flight recorder, and exports any trace as
// Chrome trace_event JSON.
//
// The model is deliberately small: a Span is a completed interval with a
// trace ID, a span ID, an optional parent, a service name, a kind, and
// string attributes. Processes exchange spans two ways: the traceparent
// header parents a server's ingress span under the caller's attempt span,
// and completed spans can be pushed (POST /debug/spans) or pulled
// (/debug/trace/<id>?scope=local) so the replica answering a trace query
// can assemble the full tree.
package dtrace

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// TraceID identifies one request end to end across every hop.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }
func (s SpanID) IsZero() bool  { return s == SpanID{} }

// SpanContext is the propagated part of a span: enough to parent children
// in another process.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a usable trace and span ID.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Header is the propagation header name (the W3C trace-context header).
const Header = "traceparent"

// Traceparent renders the context in W3C form:
// "00-<32 hex trace-id>-<16 hex span-id>-01".
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

var errTraceparent = errors.New("dtrace: malformed traceparent")

// ParseTraceparent parses a W3C traceparent header. Unknown versions are
// accepted as long as the field shape matches version 00; all-zero trace or
// span IDs are rejected, per the spec.
func ParseTraceparent(s string) (SpanContext, error) {
	// version(2) '-' trace(32) '-' span(16) '-' flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, errTraceparent
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, errTraceparent
	}
	if _, err := hex.Decode(sc.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, errTraceparent
	}
	if !sc.Valid() {
		return SpanContext{}, errTraceparent
	}
	return sc, nil
}

// ParseTraceID parses a 32-hex-digit trace ID (as printed by
// TraceID.String and surfaced in exemplars and /debug/trace URLs).
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return TraceID{}, errTraceparent
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, errTraceparent
	}
	if t.IsZero() {
		return TraceID{}, errTraceparent
	}
	return t, nil
}

// Span is one completed interval. IDs are hex strings so spans serialize
// directly on the wire and merge trivially across processes; Start is
// absolute unix nanoseconds so spans recorded by different processes on
// the same machine line up on one timeline.
type Span struct {
	Trace   string            `json:"trace"`
	ID      string            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Service string            `json:"service"`
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Start   int64             `json:"start_unix_ns"`
	Dur     int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Err     string            `json:"err,omitempty"`
}

// Span kinds recorded by the farm. Kind is the coarse taxonomy queries and
// CI assertions key on; Name carries the specific operation.
const (
	KindIngress = "ingress" // maccd HTTP handler, queue wait included
	KindCall    = "call"    // one farm.Client logical call (all attempts)
	KindAttempt = "attempt" // one HTTP attempt (one retry round)
	KindLookup  = "lookup"  // peer cache lookup round
	KindCache   = "cache"   // ccache tier decision (mem/disk/peer/miss)
	KindWait    = "wait"    // singleflight wait behind an identical compile
	KindCompute = "compute" // cold compile under the singleflight leader
	KindPass    = "pass"    // one pipeline pass (filed by telemetry.Recorder)
	KindRun     = "run"     // simulator execution for /run
	KindRequest = "request" // client-side root (loadgen, macc -server)
)

// maxSpansPerTrace bounds one trace's buffered spans, so a buggy or
// malicious /debug/spans pusher cannot grow a replica without bound.
const maxSpansPerTrace = 4096

// DefaultFlightCap is the default number of recent traces a Tracer
// retains (per ring: recent and incident).
const DefaultFlightCap = 256

type traceBuf struct {
	spans    []Span
	incident bool
	touched  time.Time
}

// Tracer records spans for one process ("service"). It keeps a bounded
// ring of recent traces — the flight recorder — plus a parallel ring of
// incident traces (marked on 5xx) that survive recent-ring churn.
//
// A nil *Tracer is a valid no-op: every method works and records nothing,
// so call sites thread tracers without nil checks.
type Tracer struct {
	service string
	cap     int

	mu        sync.Mutex
	traces    map[string]*traceBuf
	recent    []string // FIFO of non-incident trace IDs
	incidents []string // FIFO of incident trace IDs
	rng       *rand.Rand
	spanCount int64
}

// New returns a Tracer for the named service retaining up to capacity
// recent traces (and as many incident traces). capacity <= 0 uses
// DefaultFlightCap.
func New(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	seed := time.Now().UnixNano() ^ int64(os.Getpid())<<32
	return &Tracer{
		service: service,
		cap:     capacity,
		traces:  make(map[string]*traceBuf),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Service returns the service name spans are stamped with.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	t.rng.Read(id[:])
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	t.rng.Read(id[:])
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// ActiveSpan is an in-progress span. End() stamps the duration and files
// it with the tracer. Methods on a nil ActiveSpan no-op.
type ActiveSpan struct {
	t     *Tracer
	sc    SpanContext
	span  Span
	start time.Time
	mu    sync.Mutex
	done  bool
}

// StartRoot opens a new trace with a root span.
func (t *Tracer) StartRoot(name, kind string) *ActiveSpan {
	return t.StartSpan(SpanContext{}, name, kind)
}

// StartSpan opens a span under parent; an invalid parent starts a new
// trace (the span becomes a root).
func (t *Tracer) StartSpan(parent SpanContext, name, kind string) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var sc SpanContext
	if parent.Valid() {
		sc.Trace = parent.Trace
	} else {
		sc.Trace = t.newTraceID()
	}
	sc.Span = t.newSpanID()
	t.mu.Unlock()

	s := &ActiveSpan{
		t:     t,
		sc:    sc,
		start: time.Now(),
	}
	s.span = Span{
		Trace:   sc.Trace.String(),
		ID:      sc.Span.String(),
		Service: t.service,
		Name:    name,
		Kind:    kind,
		Start:   s.start.UnixNano(),
	}
	if parent.Valid() {
		s.span.Parent = parent.Span.String()
	}
	return s
}

// Context returns the propagation context for parenting children (valid
// even before End).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as hex ("" on nil).
func (s *ActiveSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.span.Trace
}

// SetAttr attaches a string attribute.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[k] = v
}

// SetErr marks the span failed with msg.
func (s *ActiveSpan) SetErr(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.span.Err = msg
	}
}

// End stamps the duration and files the span. Safe to call once; later
// calls no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.span.Dur = int64(time.Since(s.start))
	sp := s.span
	s.mu.Unlock()
	s.t.Add(sp)
}

// Add files a completed span (used by End, Ingest, and LinkRecorder).
func (t *Tracer) Add(sp Span) {
	if t == nil || sp.Trace == "" || sp.ID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := t.traces[sp.Trace]
	if buf == nil {
		buf = &traceBuf{}
		t.traces[sp.Trace] = buf
		t.recent = append(t.recent, sp.Trace)
		t.evictLocked()
	}
	if len(buf.spans) >= maxSpansPerTrace {
		return
	}
	buf.spans = append(buf.spans, sp)
	buf.touched = time.Now()
	t.spanCount++
}

// Ingest files foreign spans (pushed by clients via POST /debug/spans).
// Spans with empty IDs are dropped; per-trace and ring bounds apply.
func (t *Tracer) Ingest(spans []Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		t.Add(sp)
	}
}

// evictLocked drops the oldest recent traces above capacity. Incident
// traces live in their own FIFO with the same capacity.
func (t *Tracer) evictLocked() {
	for len(t.recent) > t.cap {
		id := t.recent[0]
		t.recent = t.recent[1:]
		if buf := t.traces[id]; buf != nil && !buf.incident {
			t.spanCount -= int64(len(buf.spans))
			delete(t.traces, id)
		}
	}
	for len(t.incidents) > t.cap {
		id := t.incidents[0]
		t.incidents = t.incidents[1:]
		if buf := t.traces[id]; buf != nil && buf.incident {
			t.spanCount -= int64(len(buf.spans))
			delete(t.traces, id)
		}
	}
}

// MarkIncident pins the trace into the incident ring so it survives
// recent-ring churn (called on 5xx responses). An unknown trace is pinned
// eagerly: its buffer is created empty so spans that End after the mark
// still attach — the ingress span of a failing request ends (and files)
// only after its handler has already marked the incident.
func (t *Tracer) MarkIncident(traceID string) {
	if t == nil || traceID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := t.traces[traceID]
	if buf != nil && buf.incident {
		return
	}
	if buf == nil {
		buf = &traceBuf{touched: time.Now()}
		t.traces[traceID] = buf
	}
	buf.incident = true
	t.incidents = append(t.incidents, traceID)
	t.evictLocked()
}

// Spans returns a copy of the buffered spans for traceID, sorted by start
// time (nil when the trace is unknown or evicted).
func (t *Tracer) Spans(traceID string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	buf := t.traces[traceID]
	var out []Span
	if buf != nil {
		out = append([]Span(nil), buf.spans...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TraceSummary is one flight-recorder line: enough to pick a trace worth
// pulling in full.
type TraceSummary struct {
	Trace    string `json:"trace"`
	Root     string `json:"root,omitempty"` // root span name, if buffered
	StartNS  int64  `json:"start_unix_ns"`
	DurNS    int64  `json:"dur_ns"` // root span duration (or span envelope)
	Spans    int    `json:"spans"`
	Incident bool   `json:"incident,omitempty"`
	Err      string `json:"err,omitempty"` // first span error, if any
}

// Summaries returns one line per retained trace, most recent first.
func (t *Tracer) Summaries() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSummary, 0, len(t.traces))
	for id, buf := range t.traces {
		s := TraceSummary{Trace: id, Spans: len(buf.spans), Incident: buf.incident}
		var minStart, maxEnd int64
		for i, sp := range buf.spans {
			end := sp.Start + sp.Dur
			if i == 0 || sp.Start < minStart {
				minStart = sp.Start
			}
			if end > maxEnd {
				maxEnd = end
			}
			if sp.Parent == "" && s.Root == "" {
				s.Root = sp.Name
			}
			if sp.Err != "" && s.Err == "" {
				s.Err = sp.Err
			}
		}
		s.StartNS = minStart
		s.DurNS = maxEnd - minStart
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS > out[j].StartNS })
	return out
}

// FlightDump is the flight recorder serialized: every retained trace
// summary, plus full spans when Full is requested.
type FlightDump struct {
	Schema  string            `json:"schema"`
	Service string            `json:"service"`
	Traces  []TraceSummary    `json:"traces"`
	Spans   map[string][]Span `json:"spans,omitempty"`
}

// FlightSchema versions the flight-recorder dump format.
const FlightSchema = "macc-flight/v1"

// WriteFlight dumps the flight recorder as indented JSON. full includes
// every retained span (large); otherwise only summaries.
func (t *Tracer) WriteFlight(w io.Writer, full bool) error {
	d := FlightDump{Schema: FlightSchema, Service: t.Service(), Traces: t.Summaries()}
	if t != nil && full {
		d.Spans = make(map[string][]Span, len(d.Traces))
		for _, s := range d.Traces {
			d.Spans[s.Trace] = t.Spans(s.Trace)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

type ctxKey struct{}

// ContextWith returns ctx carrying sc; children started from it parent
// under sc's span.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the span context carried by ctx (invalid zero value
// when absent).
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
