package bench_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
	"macc/internal/telemetry/report"
)

// TestRunCorpusDifferentialAndCoverage drives a small corpus through the
// runner: zero miscompiles (the differential oracle), every compile folded,
// and a nonzero coalescing coverage rate with a populated missed-reason
// histogram — the acceptance shape cmd/optreport scales up to hundreds of
// programs.
func TestRunCorpusDifferentialAndCoverage(t *testing.T) {
	progs := rtlgen.Corpus(7, 30)
	machines := []*machine.Machine{machine.Alpha(), machine.M88100()}
	b := report.NewBuilder()
	out := bench.RunCorpus(progs, machines, 4, func(m, cfg string, rec *telemetry.Recorder) {
		b.Add(m, cfg, rec.Remarks())
	})
	if !out.Ok() {
		t.Fatalf("corpus run not clean: miscompiles=%v failures=%v", out.Miscompiles, out.Failures)
	}
	wantCompiles := len(progs) * len(machines) * len(bench.CorpusConfigs)
	if out.Compiles != wantCompiles {
		t.Errorf("compiles = %d, want %d", out.Compiles, wantCompiles)
	}
	rep := b.Build("corpus-test")
	if rep.Coverage <= 0 {
		t.Error("coverage rate is zero over a corpus built to coalesce")
	}
	if len(rep.MissedReasons) == 0 {
		t.Error("missed-reason histogram empty over a corpus built to include hazards")
	}
	if rep.Units != len(progs) {
		t.Errorf("units = %d, want %d", rep.Units, len(progs))
	}
}

// TestCorpusFlatPipelineMatchesGraph compiles a corpus slice under every
// named configuration and requires the printed RTL's SHA-256 to match the
// corpus section of testdata/pipeline_golden.json, which was recorded from
// the retired pointer-graph pipeline — complementing RunCorpus's
// optimized-vs-unoptimized oracle with an exact-output check.
func TestCorpusFlatPipelineMatchesGraph(t *testing.T) {
	data, err := os.ReadFile("../../testdata/pipeline_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Corpus []struct {
			Name string `json:"name"`
			RTL  string `json:"rtl_sha256"`
		} `json:"corpus"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(golden.Corpus))
	for _, c := range golden.Corpus {
		want[c.Name] = c.RTL
	}
	progs := rtlgen.Corpus(11, 30)
	if testing.Short() {
		progs = progs[:8]
	}
	machines := []*machine.Machine{machine.Alpha(), machine.M88100()}
	for _, p := range progs {
		for _, m := range machines {
			for _, cname := range bench.CorpusConfigs {
				name := p.Name + "/" + m.Name + "/" + cname
				prog, err := macc.Compile(p.Src, bench.NamedConfig(cname, m))
				if err != nil {
					t.Fatalf("%s: compile: %v", name, err)
				}
				sum := sha256.Sum256([]byte(prog.RTL.String()))
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Fatalf("%s: printed RTL differs from the golden file (sha256 %s, want %q):\n%s",
						name, got, want[name], prog.RTL)
				}
			}
		}
	}
}

// TestRunCorpusDeterministicAcrossWorkers: the folded report must be
// byte-identical at any worker count, like the parallel table harness.
func TestRunCorpusDeterministicAcrossWorkers(t *testing.T) {
	progs := rtlgen.Corpus(3, 12)
	machines := []*machine.Machine{machine.Alpha()}
	build := func(workers int) string {
		b := report.NewBuilder()
		out := bench.RunCorpus(progs, machines, workers, func(m, cfg string, rec *telemetry.Recorder) {
			b.Add(m, cfg, rec.Remarks())
		})
		if !out.Ok() {
			t.Fatalf("workers=%d: %v %v", workers, out.Miscompiles, out.Failures)
		}
		rep := b.Build("det")
		rep.Provenance.CreatedAt = ""
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build(1) != build(8) {
		t.Error("report differs between 1 and 8 workers")
	}
}
