package opt_test

import (
	"testing"

	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

// behavior fingerprints a generated program's simulated behaviour.
func behavior(prog *rtl.Program) (string, error) {
	args := [][]int64{{0, 0, 0}, {1, 2, 3}, {255, 1023, -7}}
	return pipeline.Behavior(prog, machine.M68030(), rtlgen.MemWindow*2, "f", args)
}

// runTwin applies flatPass to a flat copy of each generated function. When
// the pass has a pointer-graph twin (still run by the bridged stages),
// graphPass runs on a graph copy and the printed RTL must be byte-identical:
// each flat pass must be indistinguishable from its twin. A pass without a
// twin (graphPass nil) must instead preserve the function's simulated
// behaviour.
func runTwin(t *testing.T, name string, graphPass func(*rtl.Fn) bool, flatPass func(*rtl.FlatProgram, int) bool) {
	t.Helper()
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		prog := &rtl.Program{Fns: []*rtl.Fn{fn}}
		fp, err := rtl.Flatten(prog)
		if err != nil {
			t.Fatalf("seed %d: flatten: %v", seed, err)
		}

		var before string
		if graphPass == nil {
			if before, err = behavior(prog); err != nil {
				t.Fatalf("seed %d: behaviour: %v", seed, err)
			}
		}
		fChanged := flatPass(fp, 0)
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("%s seed %d: flat verify: %v", name, seed, err)
		}
		back, err := fp.Unflatten()
		if err != nil {
			t.Fatalf("%s seed %d: unflatten: %v", name, seed, err)
		}
		if graphPass == nil {
			after, err := behavior(back)
			if err != nil {
				t.Fatalf("%s seed %d: behaviour after pass: %v", name, seed, err)
			}
			if after != before {
				t.Fatalf("%s seed %d: flat pass changed behaviour:\n%s", name, seed, back)
			}
			continue
		}
		if gChanged := graphPass(fn); gChanged != fChanged {
			t.Fatalf("%s seed %d: changed disagrees: graph=%v flat=%v", name, seed, gChanged, fChanged)
		}
		want, got := prog.String(), back.String()
		if want != got {
			t.Fatalf("%s seed %d: flat output differs:\n--- graph ---\n%s\n--- flat ---\n%s", name, seed, want, got)
		}
	}
}

func TestFlatPassTwins(t *testing.T) {
	cases := []struct {
		name  string
		graph func(*rtl.Fn) bool
		flat  func(*rtl.FlatProgram, int) bool
	}{
		{"RemoveUnreachable", opt.RemoveUnreachable, opt.FlatRemoveUnreachable},
		{"FoldConstants", opt.FoldConstants, opt.FlatFoldConstants},
		{"PropagateLocal", opt.PropagateLocal, opt.FlatPropagateLocal},
		{"PropagateImmutable", opt.PropagateImmutable, opt.FlatPropagateImmutable},
		{"LocalCSE", opt.LocalCSE, opt.FlatLocalCSE},
		{"CollapseMovChains", opt.CollapseMovChains, opt.FlatCollapseMovChains},
		{"Peephole", opt.Peephole, opt.FlatPeephole},
		{"DeadCodeElim", opt.DeadCodeElim, opt.FlatDeadCodeElim},
		{"GlobalDCE", opt.GlobalDCE, opt.FlatGlobalDCE},
		{"EliminateDeadIVs", opt.EliminateDeadIVs, opt.FlatEliminateDeadIVs},
		{"ThreadJumps", nil, opt.FlatThreadJumps},
		{"NormalizeAddresses", nil, opt.FlatNormalizeAddresses},
		{"Clean", opt.Clean, opt.FlatClean},
		{"Clean+ThreadJumps", nil, func(fp *rtl.FlatProgram, fi int) bool {
			c := opt.FlatClean(fp, fi)
			return opt.FlatThreadJumps(fp, fi) || c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runTwin(t, tc.name, tc.graph, tc.flat) })
	}
}
