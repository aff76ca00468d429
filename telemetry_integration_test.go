package macc_test

import (
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/faultinject"
	"macc/internal/telemetry"
)

// TestEveryExaminedLoopGetsOneRemark is the issue's acceptance criterion:
// every loop the coalescer examines yields exactly one Passed or Missed
// remark, each carrying a machine-readable reason token.
func TestEveryExaminedLoopGetsOneRemark(t *testing.T) {
	for _, src := range []string{dotSrc, bench.ConvolutionSrc, bench.EqntottSrc, bench.MirrorSrc} {
		rec := telemetry.NewRecorder()
		cfg := macc.DefaultConfig()
		cfg.Telemetry = rec
		p, err := macc.Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perLoop := make(map[string]int)
		for _, r := range rec.Remarks() {
			if r.Pass != "coalesce" || (r.Kind != telemetry.Passed && r.Kind != telemetry.Missed) {
				continue
			}
			perLoop[r.Fn+"/"+r.Loop]++
			if r.Reason == "" || !strings.Contains(r.Reason, ":") {
				t.Errorf("remark %s has no machine-readable reason token", r)
			}
		}
		for key, n := range perLoop {
			if n != 1 {
				t.Errorf("loop %s got %d Passed/Missed remarks, want exactly 1", key, n)
			}
		}
		if got, want := len(perLoop), len(p.Reports); got != want {
			t.Errorf("%d loops remarked but %d loop reports: every examined loop must be remarked", got, want)
		}
		examined := rec.Metrics().CounterValue("coalesce.loops_examined")
		if examined != int64(len(perLoop)) {
			t.Errorf("coalesce.loops_examined = %d, remarked loops = %d", examined, len(perLoop))
		}
	}
}

// TestRollbackRetractsCoalesceRemarks drives the staging semantics through
// the real pipeline: a fault injected into the coalesce pass must retract
// every remark and metric delta the pass staged, while leaving a span marked
// rolled back that lines up with Program.Diagnostics.
func TestRollbackRetractsCoalesceRemarks(t *testing.T) {
	rec := telemetry.NewRecorder()
	inj := &faultinject.Injector{Pass: "coalesce", Kind: faultinject.ClobberReg, Seed: 1}
	cfg := macc.DefaultConfig()
	cfg.Telemetry = rec
	cfg.WrapPass = inj.Hook()
	p, err := macc.Compile(dotSrc, cfg)
	if err != nil {
		t.Fatalf("non-strict compile died: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("injector never fired; test exercises nothing")
	}
	if !p.Diagnostics.Degraded() {
		t.Fatal("fault was not caught; pipeline hardening regressed")
	}

	for _, r := range rec.Remarks() {
		if r.Pass == "coalesce" {
			t.Errorf("rolled-back coalesce pass leaked remark: %s", r)
		}
	}
	reg := rec.Metrics()
	for _, name := range []string{"coalesce.loops_examined", "coalesce.loops_coalesced", "coalesce.wide_loads"} {
		if n := reg.CounterValue(name); n != 0 {
			t.Errorf("rolled-back pass committed %s = %d, want 0", name, n)
		}
	}
	if n := reg.CounterValue("pipeline.pass_rollbacks"); n == 0 {
		t.Error("pipeline.pass_rollbacks = 0, want at least 1")
	}

	var sawRollbackSpan bool
	for _, sp := range rec.Spans() {
		if sp.Name == "coalesce" && sp.Attrs["rolled_back"] == "true" {
			sawRollbackSpan = true
			if sp.Err == "" {
				t.Error("rolled-back span carries no error message")
			}
			if sp.Attrs["remarks"] != "0" {
				t.Errorf("rolled-back span claims %s committed remarks", sp.Attrs["remarks"])
			}
		}
	}
	if !sawRollbackSpan {
		t.Error("no rolled-back coalesce span recorded; rollback linkage missing")
	}

	// The clean baseline emits coalesce remarks for the same source, so the
	// retraction above is meaningful (not just an empty pass).
	cleanRec := telemetry.NewRecorder()
	ccfg := macc.DefaultConfig()
	ccfg.Telemetry = cleanRec
	if _, err := macc.Compile(dotSrc, ccfg); err != nil {
		t.Fatal(err)
	}
	var cleanCoalesce int
	for _, r := range cleanRec.Remarks() {
		if r.Pass == "coalesce" {
			cleanCoalesce++
		}
	}
	if cleanCoalesce == 0 {
		t.Fatal("clean compile emitted no coalesce remarks; retraction test is vacuous")
	}
}

// TestSimMetricsShareRegistry checks the end-to-end wiring: a program
// compiled with a recorder feeds its simulator runs into the same registry,
// so static decisions and dynamic traffic appear side by side.
func TestSimMetricsShareRegistry(t *testing.T) {
	rec := telemetry.NewRecorder()
	cfg := macc.DefaultConfig()
	cfg.Telemetry = rec
	p, err := macc.Compile(dotSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSim(resilienceMem)
	if _, err := s.Run("dotproduct", 0, 4096, 33); err != nil {
		t.Fatal(err)
	}
	reg := rec.Metrics()
	if n := reg.CounterValue("sim.runs"); n != 1 {
		t.Errorf("sim.runs = %d, want 1", n)
	}
	if reg.CounterValue("sim.cycles") == 0 || reg.CounterValue("sim.mem_refs") == 0 {
		t.Error("simulator counters missing from the shared registry")
	}
	if reg.CounterValue("coalesce.loops_examined") == 0 {
		t.Error("static coalesce counters missing from the shared registry")
	}
}
