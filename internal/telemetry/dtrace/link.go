package dtrace

// LinkRecorder files rec's pass spans in t as children of parent, stamping
// each with parent's trace, a fresh span ID, and t's service. This is how
// one request trace reaches from HTTP ingress down to individual passes:
// maccd gives each cold compile a fresh telemetry.Recorder, the pipeline
// fills it, and the compile path links it under the request's compute span.
// Returns the number of spans linked (0 for a nil tracer, an invalid
// parent, or a nil recorder).
func LinkRecorder(t *Tracer, parent SpanContext, rec interface{ Spans() []Span }) int {
	if t == nil || rec == nil || !parent.Valid() {
		return 0
	}
	spans := rec.Spans()
	t.mu.Lock()
	ids := make([]SpanID, len(spans))
	for i := range ids {
		ids[i] = t.newSpanID()
	}
	t.mu.Unlock()
	trace, parentID := parent.Trace.String(), parent.Span.String()
	for i, sp := range spans {
		sp.Trace, sp.ID, sp.Parent, sp.Service = trace, ids[i].String(), parentID, t.service
		t.Add(sp)
	}
	return len(spans)
}
