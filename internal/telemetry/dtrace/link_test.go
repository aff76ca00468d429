package dtrace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

func TestChromeExport(t *testing.T) {
	now := time.Now().UnixNano()
	us := int64(time.Microsecond)
	spans := []dtrace.Span{
		{Trace: "t1", ID: "root", Service: "loadgen", Name: "/compile", Kind: dtrace.KindRequest, Start: now, Dur: 100 * us},
		{Trace: "t1", ID: "a1", Parent: "root", Service: "loadgen", Name: "attempt", Kind: dtrace.KindAttempt, Start: now + 5*us, Dur: 60 * us},
		// An unrelated attempt overlapping a1: must land on a different lane.
		{Trace: "t1", ID: "a2", Parent: "root", Service: "loadgen", Name: "attempt", Kind: dtrace.KindAttempt, Start: now + 30*us, Dur: 50 * us},
		{Trace: "t1", ID: "ing", Parent: "a1", Service: "maccd:1", Name: "/compile", Kind: dtrace.KindIngress, Start: now + 10*us, Dur: 40 * us},
	}
	// Pass spans straight from a recorder: one committed, one rolled back.
	rec := telemetry.NewRecorder()
	rec.BeginPass("unroll", "f", 10, 2)
	rec.EndPass(30, 4, false, "")
	rec.BeginPass("schedule", "f", 30, 4)
	rec.EndPass(30, 4, true, "pass schedule on f: injected")
	for _, sp := range rec.Spans() {
		sp.Service = "maccd:1"
		spans = append(spans, sp)
	}

	var buf bytes.Buffer
	if err := dtrace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	pids := map[int]bool{}
	lanes := map[string]int{}
	cats := map[string]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 {
			t.Errorf("%s: malformed ts/dur", ev.Name)
		}
		if span, _ := ev.Args["span"].(string); span != "" {
			lanes[span] = ev.Pid*1000 + ev.Tid
		}
		if ev.Args["kind"] != dtrace.KindPass {
			continue
		}
		cats[ev.Name] = ev.Cat
		if ev.Args["fn"] != "f" {
			t.Errorf("%s: fn arg = %v, want f", ev.Name, ev.Args["fn"])
		}
		wantDelta := map[string]string{"unroll": "20", "schedule": "0"}[ev.Name]
		if ev.Args["instrs_delta"] != wantDelta {
			t.Errorf("%s: instrs_delta arg = %v, want %s", ev.Name, ev.Args["instrs_delta"], wantDelta)
		}
		if rolled := ev.Args["rolled_back"] == "true"; rolled != (ev.Name == "schedule") {
			t.Errorf("%s: rolled_back arg = %v", ev.Name, ev.Args["rolled_back"])
		}
	}
	if cats["unroll"] != "pass" || cats["schedule"] != "pass,error" {
		t.Errorf("pass categories = %v, want unroll:pass schedule:pass,error", cats)
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 process rows (loadgen, maccd:1), got %v", pids)
	}
	if lanes["a1"] == lanes["a2"] {
		t.Fatalf("overlapping attempts share a lane: %v", lanes)
	}
	if lanes["ing"]/1000 == lanes["root"]/1000 {
		t.Fatalf("maccd span shares loadgen's pid: %v", lanes)
	}
}

func TestLinkRecorder(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.BeginPass("coalesce", "translate", 10, 2)
	rec.EndPass(8, 2, false, "")
	rec.BeginPass("schedule", "translate", 8, 2)
	rec.EndPass(8, 2, true, "verifier: boom")

	tr := dtrace.New("maccd:1", 8)
	root := tr.StartRoot("/compile", dtrace.KindIngress)
	n := dtrace.LinkRecorder(tr, root.Context(), rec)
	root.End()
	if n != 2 {
		t.Fatalf("linked %d spans, want 2", n)
	}
	spans := tr.Spans(root.TraceID())
	var passes, rolled int
	for _, sp := range spans {
		if sp.Kind != dtrace.KindPass {
			continue
		}
		passes++
		if sp.Parent != root.Context().Span.String() {
			t.Fatalf("pass span parent = %s, want root %s", sp.Parent, root.Context().Span)
		}
		if sp.Service != "maccd:1" || sp.ID == "" || sp.Attrs["fn"] != "translate" {
			t.Fatalf("pass span not stamped: %+v", sp)
		}
		if sp.Attrs["rolled_back"] == "true" {
			rolled++
			if !strings.Contains(sp.Err, "boom") {
				t.Fatalf("rolled-back pass lost error: %+v", sp)
			}
		}
	}
	if passes != 2 || rolled != 1 {
		t.Fatalf("passes=%d rolled=%d, want 2/1", passes, rolled)
	}
	// Nil / invalid inputs are no-ops.
	if dtrace.LinkRecorder(nil, root.Context(), rec) != 0 {
		t.Fatal("nil tracer linked spans")
	}
	if dtrace.LinkRecorder(tr, dtrace.SpanContext{}, rec) != 0 {
		t.Fatal("invalid parent linked spans")
	}
	var noRec *telemetry.Recorder
	if dtrace.LinkRecorder(tr, root.Context(), noRec) != 0 {
		t.Fatal("nil recorder linked spans")
	}
}
