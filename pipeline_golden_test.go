package macc_test

// The pipeline golden file pins the optimizer's observable output. It was
// recorded from the pointer-graph pass manager before that second pipeline
// was retired, and the flat pass pipeline — the only one that remains — must
// reproduce it exactly: the SHA-256 of the printed RTL, the coalescer's loop
// reports, the unroll factors, every pass's optimization remarks, and the
// simulated return value, cycle count, and memory-reference count, for every
// paper kernel under every config variant and for 200 generated programs
// compiled with an unbounded register file and with 16 and 8 registers (the
// last forces spills).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
)

const goldenPath = "testdata/pipeline_golden.json"

// goldenRun is one simulated call's verdict.
type goldenRun struct {
	Ret     int64 `json:"ret"`
	Cycles  int64 `json:"cycles"`
	MemRefs int64 `json:"mem_refs"`
}

// goldenCase is one compile's pinned output.
type goldenCase struct {
	Name     string            `json:"name"`
	RTL      string            `json:"rtl_sha256"`
	Reports  []core.LoopReport `json:"reports,omitempty"`
	Unrolled map[string]int    `json:"unrolled,omitempty"`
	Runs     []goldenRun       `json:"runs,omitempty"`
	// Remarks is the compile's full remark stream, one line per remark in
	// emission order (kind, pass, fn, loop, name, reason, args).
	Remarks []string `json:"remarks,omitempty"`
}

// goldenFile is the layout of testdata/pipeline_golden.json. The Seeds
// sections compile the generated programs under DefaultConfig with an
// unbounded register file, 16 registers, and 8 registers. Corpus holds
// printed-RTL digests only; internal/bench's corpus test checks it.
type goldenFile struct {
	Kernels     []goldenCase `json:"kernels"`
	Seeds       []goldenCase `json:"seeds"`
	SeedsRegs16 []goldenCase `json:"seeds_regs16"`
	SeedsRegs8  []goldenCase `json:"seeds_regs8"`
	Corpus      []goldenCase `json:"corpus"`
}

// goldenSeeds is the number of generated programs the golden file covers.
const goldenSeeds = 200

// goldenArgSets are the calls each generated program is simulated with.
var goldenArgSets = [][]int64{{0, 0, 0}, {1, 2, 3}, {511, 1023, 7}}

// goldenConfigs is the flat differential matrix plus the 68030 target.
func goldenConfigs() map[string]macc.Config {
	cfgs := flatDiffConfigs()
	m68k := macc.DefaultConfig()
	m68k.Machine = machine.M68030()
	cfgs["m68030"] = m68k
	return cfgs
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// compileTraced compiles through compile with a fresh telemetry recorder
// attached, so the case can pin the remark stream.
func compileTraced(cfg macc.Config, compile func(macc.Config) (*macc.Program, error)) (*macc.Program, error) {
	cfg.Telemetry = telemetry.NewRecorder()
	return compile(cfg)
}

func goldenOf(name string, p *macc.Program, runs []goldenRun) goldenCase {
	var remarks []string
	for _, r := range p.Telemetry.Remarks() {
		remarks = append(remarks, r.String())
	}
	return goldenCase{Name: name, RTL: digest(p.RTL.String()),
		Reports: p.Reports, Unrolled: p.Unrolled, Runs: runs, Remarks: remarks}
}

// recordKernels compiles every paper kernel under every named config, in
// sorted config order, and simulates each on the small workload.
func recordKernels(t *testing.T, cfgs map[string]macc.Config) []goldenCase {
	t.Helper()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []goldenCase
	for _, name := range names {
		for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
			p, err := compileTraced(cfgs[name], func(cfg macc.Config) (*macc.Program, error) {
				return macc.Compile(bm.Src, cfg)
			})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", name, bm.Entry, err)
			}
			res := runBench(t, bm, p)
			out = append(out, goldenOf(name+"/"+bm.Entry, p,
				[]goldenRun{{res.Ret, res.Cycles, res.MemRefs()}}))
		}
	}
	return out
}

// recordSeeds compiles generated programs 1..n with CompileRTL under cfg and
// simulates each over goldenArgSets.
func recordSeeds(t *testing.T, cfg macc.Config, n int64) []goldenCase {
	t.Helper()
	var out []goldenCase
	for seed := int64(1); seed <= n; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		p, err := compileTraced(cfg, func(cfg macc.Config) (*macc.Program, error) {
			return macc.CompileRTL(&rtl.Program{Fns: []*rtl.Fn{fn}}, cfg)
		})
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		var runs []goldenRun
		for _, res := range behave(t, p.NewSim(rtlgen.MemWindow*2), goldenArgSets) {
			runs = append(runs, goldenRun{res.Ret, res.Cycles, res.MemRefs()})
		}
		out = append(out, goldenOf(fmt.Sprintf("seed-%d", seed), p, runs))
	}
	return out
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// compareGolden requires every recorded case to encode identically to its
// golden twin; in short mode got may be a prefix of want.
func compareGolden(t *testing.T, section string, got, want []goldenCase) {
	t.Helper()
	if len(got) > len(want) || (!testing.Short() && len(got) != len(want)) {
		t.Fatalf("%s: recorded %d cases, golden file has %d", section, len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("%s case %d differs from the golden file:\ngot  %s\nwant %s", section, i, g, w)
		}
	}
}

// TestPipelineGolden compiles every golden case through the default pass
// pipeline and requires byte-identical RTL, identical optimization
// decisions, and cycle-identical simulation.
func TestPipelineGolden(t *testing.T) {
	golden := loadGolden(t)
	compareGolden(t, "kernels", recordKernels(t, goldenConfigs()), golden.Kernels)
	seeds := int64(goldenSeeds)
	if testing.Short() {
		seeds = 25
	}
	for _, sec := range goldenSeedSections(&golden) {
		compareGolden(t, sec.name, recordSeeds(t, sec.cfg, seeds), *sec.cases)
	}
}

// goldenSeedSection names one seeds section and the config it compiles with.
type goldenSeedSection struct {
	name  string
	cfg   macc.Config
	cases *[]goldenCase
}

func goldenSeedSections(g *goldenFile) []goldenSeedSection {
	regs := func(k int) macc.Config {
		cfg := macc.DefaultConfig()
		cfg.Registers = k
		return cfg
	}
	return []goldenSeedSection{
		{"seeds", macc.DefaultConfig(), &g.Seeds},
		{"seeds_regs16", regs(16), &g.SeedsRegs16},
		{"seeds_regs8", regs(8), &g.SeedsRegs8},
	}
}
