package dtrace

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("test", 8)
	sp := tr.StartRoot("req", KindRequest)
	hdr := sp.Context().Traceparent()
	sc, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip: got %+v want %+v", sc, sp.Context())
	}
	if got := sc.Trace.String(); len(got) != 32 {
		t.Fatalf("trace id hex len = %d", len(got))
	}
	id, err := ParseTraceID(sc.Trace.String())
	if err != nil || id != sc.Trace {
		t.Fatalf("ParseTraceID: %v %v", id, err)
	}
}

func TestTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-1111111111111111-01",
		"00-00000000000000000000000000000000-1111111111111111-01", // zero trace id
		"00-11111111111111111111111111111111-0000000000000000-01", // zero span id
		"00-1111-2222-01",
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	good := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, err := ParseTraceparent(good); err != nil {
		t.Errorf("ParseTraceparent(%q): %v", good, err)
	}
}

func TestSpanParenting(t *testing.T) {
	tr := New("svc", 8)
	root := tr.StartRoot("req", KindRequest)
	child := tr.StartSpan(root.Context(), "attempt", KindAttempt)
	child.SetAttr("peer", "A")
	child.End()
	root.End()

	spans := tr.Spans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootSpan, childSpan *Span
	for i := range spans {
		if spans[i].Parent == "" {
			rootSpan = &spans[i]
		} else {
			childSpan = &spans[i]
		}
	}
	if rootSpan == nil || childSpan == nil {
		t.Fatalf("missing root or child: %+v", spans)
	}
	if childSpan.Parent != rootSpan.ID {
		t.Fatalf("child.Parent = %s, want %s", childSpan.Parent, rootSpan.ID)
	}
	if childSpan.Trace != rootSpan.Trace {
		t.Fatalf("trace mismatch: %s vs %s", childSpan.Trace, rootSpan.Trace)
	}
	if childSpan.Attrs["peer"] != "A" {
		t.Fatalf("attr lost: %+v", childSpan.Attrs)
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", KindRequest)
	sp.SetAttr("k", "v")
	sp.SetErr("boom")
	sp.End()
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil tracer produced a live span")
	}
	tr.Ingest([]Span{{Trace: "t", ID: "s"}})
	tr.MarkIncident("t")
	if got := tr.Spans("t"); got != nil {
		t.Fatalf("nil tracer stored spans: %v", got)
	}
	if tr.Summaries() != nil {
		t.Fatal("nil tracer has summaries")
	}
	var buf bytes.Buffer
	if err := tr.WriteFlight(&buf, true); err != nil {
		t.Fatalf("WriteFlight on nil: %v", err)
	}
}

func TestFlightEvictionAndIncidentPinning(t *testing.T) {
	tr := New("svc", 4)
	var ids []string
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot(fmt.Sprintf("req%d", i), KindIngress)
		sp.End()
		ids = append(ids, sp.TraceID())
		if i == 1 {
			tr.MarkIncident(sp.TraceID()) // pin the second trace
		}
	}
	// The pinned incident survives even though 8 traces arrived after it.
	if got := tr.Spans(ids[1]); len(got) != 1 {
		t.Fatalf("incident trace evicted: %v", got)
	}
	// The first (unpinned) trace is long gone.
	if got := tr.Spans(ids[0]); got != nil {
		t.Fatalf("old trace survived: %v", got)
	}
	// Recent ring holds at most cap traces plus the incident.
	sums := tr.Summaries()
	if len(sums) > 5 {
		t.Fatalf("flight recorder holds %d traces, cap 4 + 1 incident", len(sums))
	}
	var incidents int
	for _, s := range sums {
		if s.Incident {
			incidents++
		}
	}
	if incidents != 1 {
		t.Fatalf("want exactly 1 incident, got %d", incidents)
	}
}

func TestIngestBounds(t *testing.T) {
	tr := New("svc", 2)
	spans := make([]Span, maxSpansPerTrace+100)
	for i := range spans {
		spans[i] = Span{Trace: "aaaa", ID: fmt.Sprintf("s%d", i), Service: "x", Name: "n"}
	}
	tr.Ingest(spans)
	if got := len(tr.Spans("aaaa")); got != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want cap %d", got, maxSpansPerTrace)
	}
	// Spans with missing IDs are dropped.
	tr.Ingest([]Span{{Trace: "", ID: "x"}, {Trace: "bbbb", ID: ""}})
	if got := tr.Spans("bbbb"); got != nil {
		t.Fatalf("id-less span stored: %v", got)
	}
}

func TestConcurrentTracer(t *testing.T) {
	tr := New("svc", 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartRoot("req", KindRequest)
				child := tr.StartSpan(root.Context(), "child", KindAttempt)
				child.End()
				root.End()
				tr.Spans(root.TraceID())
				if i%10 == 0 {
					tr.MarkIncident(root.TraceID())
					tr.Summaries()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestContextPlumbing(t *testing.T) {
	tr := New("svc", 8)
	sp := tr.StartRoot("req", KindRequest)
	ctx := ContextWith(context.Background(), sp.Context())
	if got := FromContext(ctx); got != sp.Context() {
		t.Fatalf("FromContext = %+v, want %+v", got, sp.Context())
	}
	if FromContext(context.Background()).Valid() {
		t.Fatal("empty context carries a span")
	}
}
