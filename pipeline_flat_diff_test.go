package macc_test

// Differential tests for the pass pipeline: every optimized compile must
// behave like the unoptimized build of the same program, for every paper
// kernel under every config variant and for a corpus of random generated
// programs, and re-optimizing a decoded flat image must match a direct
// compile.

import (
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

// flatDiffConfigs extends the cache differential matrix with variants that
// exercise the bridged regalloc stage and strict mode on the flat path.
func flatDiffConfigs() map[string]macc.Config {
	cfgs := diffConfigs()
	ra := macc.DefaultConfig()
	ra.Registers = 16
	cfgs["regalloc"] = ra
	strict := macc.DefaultConfig()
	strict.Strict = true
	cfgs["strict"] = strict
	return cfgs
}

// TestFlatPipelineDifferentialKernels sweeps every paper kernel against
// every config variant and checks the compile's behaviour against the
// unoptimized build: both must reproduce the Go reference result (the
// kernel's Run verifies it) and return the same value. The exact output —
// printed RTL, decisions, cycles — is pinned by TestPipelineGolden.
func TestFlatPipelineDifferentialKernels(t *testing.T) {
	for cfgName, cfg := range flatDiffConfigs() {
		cfg := cfg
		t.Run(cfgName, func(t *testing.T) {
			for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
				opt, err := macc.Compile(bm.Src, cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", bm.Name, err)
				}
				if opt.Flat == nil {
					t.Fatalf("%s: optimized compile carries no flat image", bm.Name)
				}
				if opt.Diagnostics.Degraded() {
					t.Fatalf("%s: compile degraded: %s", bm.Name, opt.Diagnostics)
				}
				plain := cfg
				plain.Optimize = false
				unopt, err := macc.Compile(bm.Src, plain)
				if err != nil {
					t.Fatalf("%s: unoptimized compile: %v", bm.Name, err)
				}
				if got, want := runBench(t, bm, opt).Ret, runBench(t, bm, unopt).Ret; got != want {
					t.Fatalf("%s: optimized build returns %d, unoptimized %d", bm.Name, got, want)
				}
			}
		})
	}
}

// TestFlatPipelineDifferentialRandomRTL drives 200 random generated
// programs through the pipeline and requires the behaviour fingerprint over
// several argument sets to match the unoptimized build's.
func TestFlatPipelineDifferentialRandomRTL(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	m := machine.Alpha()
	for seed := int64(1); seed <= seeds; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		want, err := pipeline.Behavior(rtl.NewProgram(fn), m, rtlgen.MemWindow*2, "f", goldenArgSets)
		if err != nil {
			t.Fatalf("seed %d: unoptimized behaviour: %v", seed, err)
		}
		cfg := macc.DefaultConfig()
		cfg.Machine = m
		p, err := macc.CompileRTL(rtl.NewProgram(fn), cfg)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		got, err := pipeline.Behavior(p.RTL, m, rtlgen.MemWindow*2, "f", goldenArgSets)
		if err != nil {
			t.Fatalf("seed %d: optimized behaviour: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: behaviour fingerprint differs from the unoptimized build:\n%s", seed, p.RTL)
		}
	}
}

// TestOptimizeFlatFromDecodedImage pins the cmd/macc -in=bin -reopt path:
// encode an unoptimized program through the binary codec, decode it, run
// OptimizeFlat over the image, and require output byte-identical to a
// direct source compile with the same configuration.
func TestOptimizeFlatFromDecodedImage(t *testing.T) {
	cfg := macc.DefaultConfig()
	plain := cfg
	plain.Optimize = false
	plain.Unroll = false
	plain.Coalesce = core.Options{}
	plain.Schedule = false
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		unopt, err := macc.Compile(bm.Src, plain)
		if err != nil {
			t.Fatalf("%s: unoptimized compile: %v", bm.Name, err)
		}
		fp, err := rtl.Flatten(unopt.RTL)
		if err != nil {
			t.Fatalf("%s: flatten: %v", bm.Name, err)
		}
		dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
		if err != nil {
			t.Fatalf("%s: codec round trip: %v", bm.Name, err)
		}
		reopt, err := macc.OptimizeFlat(dec, cfg)
		if err != nil {
			t.Fatalf("%s: OptimizeFlat: %v", bm.Name, err)
		}
		direct, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			t.Fatalf("%s: direct compile: %v", bm.Name, err)
		}
		if got, want := reopt.RTL.String(), direct.RTL.String(); got != want {
			t.Fatalf("%s: re-optimized image differs from direct compile:\n--- direct ---\n%s\n--- reopt ---\n%s",
				bm.Name, want, got)
		}
		if reopt.Flat == nil {
			t.Fatalf("%s: OptimizeFlat dropped the flat image", bm.Name)
		}
	}
}
