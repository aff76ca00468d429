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

// runPreserves applies flatPass to a flat copy of each generated function:
// the result must verify and preserve the function's simulated behaviour.
// The exact output of every pass, as the pipeline runs it, is pinned by the
// pipeline golden file.
func runPreserves(t *testing.T, name string, flatPass func(*rtl.FlatProgram, int) bool) {
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
		before, err := behavior(prog)
		if err != nil {
			t.Fatalf("seed %d: behaviour: %v", seed, err)
		}
		flatPass(fp, 0)
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("%s seed %d: flat verify: %v", name, seed, err)
		}
		back := fp.Unflatten()
		after, err := behavior(back)
		if err != nil {
			t.Fatalf("%s seed %d: behaviour after pass: %v", name, seed, err)
		}
		if after != before {
			t.Fatalf("%s seed %d: flat pass changed behaviour:\n%s", name, seed, back)
		}
	}
}

func TestFlatPassTwins(t *testing.T) {
	cases := []struct {
		name string
		flat func(*rtl.FlatProgram, int) bool
	}{
		{"RemoveUnreachable", opt.FlatRemoveUnreachable},
		{"FoldConstants", opt.FlatFoldConstants},
		{"PropagateLocal", opt.FlatPropagateLocal},
		{"PropagateImmutable", opt.FlatPropagateImmutable},
		{"LocalCSE", opt.FlatLocalCSE},
		{"CollapseMovChains", opt.FlatCollapseMovChains},
		{"Peephole", opt.FlatPeephole},
		{"DeadCodeElim", opt.FlatDeadCodeElim},
		{"GlobalDCE", opt.FlatGlobalDCE},
		{"EliminateDeadIVs", opt.FlatEliminateDeadIVs},
		{"ThreadJumps", opt.FlatThreadJumps},
		{"NormalizeAddresses", opt.FlatNormalizeAddresses},
		{"Clean", opt.FlatClean},
		{"Clean+ThreadJumps", func(fp *rtl.FlatProgram, fi int) bool {
			c := opt.FlatClean(fp, fi)
			return opt.FlatThreadJumps(fp, fi) || c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runPreserves(t, tc.name, tc.flat) })
	}
}
