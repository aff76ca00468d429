package macc_test

// Differential tests for the flat IR itself, independent of the cache:
// Flatten/Unflatten (and the binary codec in between) must be lossless
// through the printer.

import (
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
	"macc/internal/sim"
)

// behave runs entry over argSets and fingerprints return values, timing,
// memory-reference counts, and final memory.
func behave(t *testing.T, s *sim.Sim, argSets [][]int64) []sim.Result {
	t.Helper()
	out := make([]sim.Result, 0, len(argSets))
	for _, args := range argSets {
		s.Reset()
		s.Fuel = 1 << 26
		for i := range s.Mem {
			s.Mem[i] = byte(i * 7)
		}
		res, err := s.Run("f", args...)
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		out = append(out, res)
	}
	return out
}

// TestFlatDifferentialRandomRTL sweeps generated programs through every
// flat route — direct Flatten/Unflatten and a codec encode/decode round
// trip — checking byte-identical printed RTL.
func TestFlatDifferentialRandomRTL(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(1); seed <= seeds; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		prog := &rtl.Program{Fns: []*rtl.Fn{fn}}
		want := prog.String()

		fp, err := rtl.Flatten(prog)
		if err != nil {
			t.Fatalf("seed %d: flatten: %v", seed, err)
		}
		back := fp.Unflatten()
		if got := back.String(); got != want {
			t.Fatalf("seed %d: Flatten/Unflatten not lossless:\n%s\nvs\n%s", seed, got, want)
		}

		dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
		if err != nil {
			t.Fatalf("seed %d: codec round trip: %v", seed, err)
		}
		decBack := dec.Unflatten()
		if got := decBack.String(); got != want {
			t.Fatalf("seed %d: codec round trip not lossless:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

// TestFlatDifferentialKernels runs the same round-trip check on every paper
// kernel's fully optimized RTL under every config variant — the exact
// programs the cache stores.
func TestFlatDifferentialKernels(t *testing.T) {
	for cfgName, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfgName, func(t *testing.T) {
			for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
				cold, err := macc.Compile(bm.Src, cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", bm.Name, err)
				}
				want := cold.RTL.String()
				fp, err := rtl.Flatten(cold.RTL)
				if err != nil {
					t.Fatalf("%s: flatten: %v", bm.Name, err)
				}
				dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
				if err != nil {
					t.Fatalf("%s: codec round trip: %v", bm.Name, err)
				}
				back := dec.Unflatten()
				if got := back.String(); got != want {
					t.Fatalf("%s: flat round trip not lossless:\n%s\nvs\n%s", bm.Name, got, want)
				}
			}
		})
	}
}
