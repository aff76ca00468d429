package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

func passed(pass, fn, loop string) telemetry.Remark {
	return telemetry.Remark{
		Kind: telemetry.Passed, Pass: pass, Fn: fn, Loop: loop,
		Name: "Coalesced", Reason: "profitability:sched-cycles 10<20",
		Args: map[string]int64{"wide_loads": 2},
	}
}

// TestRollbackRetractsStagedOutput is the staging contract: remarks and
// metric deltas emitted while a pass is active vanish when the pass is
// rolled back, while the span survives as the durable incident record.
func TestRollbackRetractsStagedOutput(t *testing.T) {
	r := telemetry.NewRecorder()

	r.BeginPass("coalesce", "f", 10, 2)
	r.Emit(passed("coalesce", "f", "loop"))
	r.Count("coalesce.loops_coalesced", 1)
	r.Observe("coalesce.check_instrs_per_loop", 12)
	r.EndPass(10, 2, true, "pass coalesce on f: injected")

	if got := r.Remarks(); len(got) != 0 {
		t.Errorf("rolled-back pass leaked %d remarks: %v", len(got), got)
	}
	if n := r.Metrics().CounterValue("coalesce.loops_coalesced"); n != 0 {
		t.Errorf("rolled-back counter delta committed: got %d, want 0", n)
	}
	if n := r.Metrics().CounterValue("pipeline.pass_rollbacks"); n != 1 {
		t.Errorf("pipeline.pass_rollbacks = %d, want 1", n)
	}
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Kind != dtrace.KindPass || sp.Name != "coalesce" || sp.Attrs["fn"] != "f" {
		t.Errorf("span = %+v, want pass span coalesce over f", sp)
	}
	if sp.Attrs["rolled_back"] != "true" || sp.Err == "" || sp.Attrs["remarks"] != "0" {
		t.Errorf("span = %+v, want rolled_back with Err and zero remarks", sp)
	}
	if _, err := strconv.ParseUint(sp.Attrs["alloc_bytes"], 10, 64); err != nil {
		t.Errorf("span alloc_bytes = %q, want a byte count", sp.Attrs["alloc_bytes"])
	}

	// A subsequent clean pass commits normally: the retraction is scoped to
	// the rolled-back pass, not the recorder.
	r.BeginPass("coalesce", "g", 10, 2)
	r.Emit(passed("coalesce", "g", "loop"))
	r.Count("coalesce.loops_coalesced", 1)
	r.EndPass(8, 2, false, "")

	if got := r.Remarks(); len(got) != 1 || got[0].Fn != "g" {
		t.Errorf("committed remarks = %v, want the one from g", got)
	}
	if n := r.Metrics().CounterValue("coalesce.loops_coalesced"); n != 1 {
		t.Errorf("committed counter = %d, want 1", n)
	}
	if n := r.Metrics().CounterValue("pipeline.pass_runs"); n != 2 {
		t.Errorf("pipeline.pass_runs = %d, want 2", n)
	}
}

// TestEmitOutsidePassCommitsImmediately: with no active stage, emissions go
// straight to the durable stores (the simulator's flushMetrics path).
func TestEmitOutsidePassCommitsImmediately(t *testing.T) {
	r := telemetry.NewRecorder()
	r.Emit(passed("coalesce", "f", "loop"))
	r.Count("sim.cycles", 100)
	if len(r.Remarks()) != 1 {
		t.Error("remark emitted outside a pass was not committed")
	}
	if n := r.Metrics().CounterValue("sim.cycles"); n != 100 {
		t.Errorf("sim.cycles = %d, want 100", n)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; run
// with -race this validates the lock-free counter/gauge/histogram paths.
func TestRegistryConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("c.shared").Add(1)
				reg.Counter(fmt.Sprintf("c.%d", w%2)).Add(2)
				reg.Gauge("g.shared").Set(float64(i))
				reg.Histogram("h.shared").Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if n := reg.CounterValue("c.shared"); n != workers*iters {
		t.Errorf("c.shared = %d, want %d", n, workers*iters)
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["h.shared"]; !ok || h.Count != workers*iters {
		t.Errorf("h.shared count = %+v, want %d samples", snap.Histograms["h.shared"], workers*iters)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("registry JSON is invalid")
	}
}

// TestRecorderConcurrentEmit exercises Emit/Count racing against pass
// staging transitions (the simulator can flush while no pass is active, but
// the recorder must stay internally consistent under -race regardless).
func TestRecorderConcurrentEmit(t *testing.T) {
	r := telemetry.NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(passed("coalesce", "f", "loop"))
				r.Count("c", 1)
				r.Observe("h", int64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(r.Remarks()); got != 2000 {
		t.Errorf("remarks = %d, want 2000", got)
	}
}

// TestRemarkFormats pins the two output modes of -remarks: the human line
// format and the machine-greppable JSONL.
func TestRemarkFormats(t *testing.T) {
	rem := passed("coalesce", "dotproduct", "loop.unrolled")
	text := telemetry.FormatRemarks([]telemetry.Remark{rem}, "text")
	for _, want := range []string{"coalesce", "dotproduct/loop.unrolled", "Passed", "Coalesced", "profitability:sched-cycles"} {
		if !strings.Contains(text, want) {
			t.Errorf("text format %q missing %q", text, want)
		}
	}
	jl := telemetry.FormatRemarks([]telemetry.Remark{rem}, "json")
	line := strings.TrimSpace(jl)
	var decoded telemetry.Remark
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("JSONL line does not parse: %v: %q", err, line)
	}
	if !strings.Contains(line, `"kind":"Passed"`) {
		t.Errorf("kind must marshal as its name for grepability: %q", line)
	}
}
