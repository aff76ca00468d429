package macc_test

// One testing.B benchmark per table and figure of the paper. Each
// sub-benchmark compiles a kernel under one of the paper's compiler
// configurations, runs it on the simulated machine, and reports the
// simulated cycle count and memory references as custom metrics
// (sim-cycles, sim-memrefs); wall-clock ns/op measures the simulator
// itself. The small workload keeps `go test -bench` fast — run
// `go run ./cmd/tables -all` for the paper-sized reproduction.

import (
	"fmt"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

var configNames = []string{"native", "vpo", "coalesce-loads", "coalesce-loads-stores"}

func benchMachineTable(b *testing.B, m *machine.Machine) {
	wl := bench.SmallWorkload()
	cfgs := bench.Configs(m)
	for _, bm := range bench.Benchmarks() {
		for i, cfg := range cfgs {
			name := fmt.Sprintf("%s/%s", bm.Name, configNames[i])
			b.Run(name, func(b *testing.B) {
				prog, err := macc.Compile(bm.Src, cfg)
				if err != nil {
					b.Fatal(err)
				}
				var cycles, refs int64
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					res, err := bm.Run(prog, wl)
					if err != nil {
						b.Fatal(err)
					}
					cycles, refs = res.Cycles, res.MemRefs()
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
				b.ReportMetric(float64(refs), "sim-memrefs")
			})
		}
	}
}

// BenchmarkTableI measures front-end + pipeline compile time for each Table
// I kernel (the paper's Table I is the suite itself).
func BenchmarkTableI(b *testing.B) {
	for _, bm := range bench.Benchmarks() {
		b.Run(bm.Name, func(b *testing.B) {
			cfg := macc.DefaultConfig()
			for n := 0; n < b.N; n++ {
				if _, err := macc.Compile(bm.Src, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableII regenerates the DEC Alpha table.
func BenchmarkTableII(b *testing.B) { benchMachineTable(b, machine.Alpha()) }

// BenchmarkTableIII regenerates the Motorola 88100 table.
func BenchmarkTableIII(b *testing.B) { benchMachineTable(b, machine.M88100()) }

// BenchmarkTable68030 regenerates the §3 Motorola 68030 result.
func BenchmarkTable68030(b *testing.B) { benchMachineTable(b, machine.M68030()) }

// BenchmarkTableV reports the run-time check budget (§4's 10-15 instruction
// claim) as a metric per kernel.
func BenchmarkTableV(b *testing.B) {
	for _, bm := range bench.Benchmarks() {
		b.Run(bm.Name, func(b *testing.B) {
			cfg := macc.BaselineConfig(machine.Alpha())
			cfg.Coalesce = core.Options{Loads: true, Stores: true}
			var instrs int
			for n := 0; n < b.N; n++ {
				p, err := macc.Compile(bm.Src, cfg)
				if err != nil {
					b.Fatal(err)
				}
				instrs = 0
				for _, r := range p.Reports {
					if r.Applied {
						instrs += r.CheckInstrs
					}
				}
			}
			b.ReportMetric(float64(instrs), "check-instrs")
		})
	}
}

// BenchmarkFigure1 regenerates the motivating dot product: rolled versus
// unrolled+coalesced, reporting the per-element memory reference counts the
// paper quotes (2 vs 1/2).
func BenchmarkFigure1(b *testing.B) {
	const n = 4096
	for _, mode := range []string{"rolled", "coalesced"} {
		b.Run(mode, func(b *testing.B) {
			cfg := macc.Config{Machine: machine.Alpha(), Optimize: true}
			if mode == "coalesced" {
				cfg = macc.DefaultConfig()
			}
			prog, err := macc.Compile(bench.DotProductSrc, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var refsPerElem float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := prog.NewSim(1 << 20)
				vals := make([]int64, n)
				for j := range vals {
					vals[j] = int64(j % 100)
				}
				s.WriteInts(4096, rtl.W2, vals)
				s.WriteInts(4096+2*n+64, rtl.W2, vals)
				res, err := s.Run("dotproduct", 4096, 4096+2*n+64, n)
				if err != nil {
					b.Fatal(err)
				}
				refsPerElem = float64(res.MemRefs()) / n
			}
			b.ReportMetric(refsPerElem, "memrefs/elem")
		})
	}
}

// BenchmarkAblationRuntimeChecks quantifies the paper's central design
// argument: without run-time alias and alignment analysis almost no
// opportunity survives (static-only coalescing changes nothing).
func BenchmarkAblationRuntimeChecks(b *testing.B) {
	wl := bench.SmallWorkload()
	bm := bench.Benchmarks()[1] // Image add
	for _, mode := range []string{"runtime-checks", "static-only"} {
		b.Run(mode, func(b *testing.B) {
			cfg := macc.BaselineConfig(machine.Alpha())
			cfg.Coalesce = core.Options{Loads: true, Stores: true,
				NoRuntimeChecks: mode == "static-only"}
			prog, err := macc.Compile(bm.Src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := bm.Run(prog, wl)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationRegisterFile sweeps the register file size: with few
// registers the unrolled+coalesced loop spills, and spill traffic eats the
// coalescing win — the pressure interaction behind the paper's unrolling
// heuristic.
func BenchmarkAblationRegisterFile(b *testing.B) {
	wl := bench.SmallWorkload()
	bm := bench.Benchmarks()[1] // Image add
	for _, regs := range []int{8, 12, 16, 32} {
		b.Run(fmt.Sprintf("regs-%d", regs), func(b *testing.B) {
			cfg := macc.BaselineConfig(machine.Alpha())
			cfg.Coalesce = core.Options{Loads: true, Stores: true}
			cfg.Registers = regs
			prog, err := macc.Compile(bm.Src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var cycles, refs int64
			for i := 0; i < b.N; i++ {
				res, err := bm.Run(prog, wl)
				if err != nil {
					b.Fatal(err)
				}
				cycles, refs = res.Cycles, res.MemRefs()
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(refs), "sim-memrefs")
		})
	}
}

// BenchmarkAblationUnrollFactor sweeps the unroll factor to show the
// interaction the paper discusses between unrolling, the instruction cache,
// and coalescing width.
func BenchmarkAblationUnrollFactor(b *testing.B) {
	wl := bench.SmallWorkload()
	bm := bench.Benchmarks()[1] // Image add
	for _, factor := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("factor-%d", factor), func(b *testing.B) {
			cfg := macc.BaselineConfig(machine.Alpha())
			cfg.UnrollFactor = factor
			cfg.Coalesce = core.Options{Loads: true, Stores: true}
			prog, err := macc.Compile(bm.Src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := bm.Run(prog, wl)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkCorpusCold is the serial cold-compile loop that ROADMAP item 5
// profiles: each op compiles the next cell of rtlgen.Corpus(1, 100) ×
// every machine × bench.CorpusConfigs, cycling through the 600 cells with
// no cache. Re-make the profile with
//
//	go test -run '^$' -bench CorpusCold -benchtime 15000x -cpuprofile cpu.out .
func BenchmarkCorpusCold(b *testing.B) {
	type cell struct {
		src string
		cfg macc.Config
	}
	var cells []cell
	for _, p := range rtlgen.Corpus(1, 100) {
		for _, m := range machine.All() {
			for _, name := range bench.CorpusConfigs {
				cells = append(cells, cell{p.Src, bench.NamedConfig(name, m)})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := &cells[n%len(cells)]
		if _, err := macc.Compile(c.src, c.cfg); err != nil {
			b.Fatal(err)
		}
	}
}
