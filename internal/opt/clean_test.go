package opt_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

// freshClean is FlatClean's reference: the exported sub-passes, each
// building its own analyses from scratch, in FlatClean's fixed order and
// under its round bound.
func freshClean(fp *rtl.FlatProgram, fi int) bool {
	passes := []func(*rtl.FlatProgram, int) bool{
		opt.FlatRemoveUnreachable, opt.FlatFoldConstants, opt.FlatPropagateLocal,
		opt.FlatPropagateImmutable, opt.FlatLocalCSE, opt.FlatCollapseMovChains,
		opt.FlatPeephole, opt.FlatDeadCodeElim, opt.FlatGlobalDCE, opt.FlatEliminateDeadIVs,
	}
	changedEver := false
	for round := 0; round < 8; round++ {
		changed := false
		for _, pass := range passes {
			changed = pass(fp, fi) || changed
		}
		if !changed {
			break
		}
		changedEver = true
	}
	return changedEver
}

// cleanBoth runs FlatClean and freshClean on flat copies of fn and returns each
// one's change flag and printed, verified result.
func cleanBoth(fn *rtl.Fn) (got, want string, err error) {
	run := func(clean func(*rtl.FlatProgram, int) bool) (string, error) {
		fp, err := rtl.Flatten(rtl.NewProgram(fn))
		if err != nil {
			return "", err
		}
		changed := clean(fp, 0)
		if err := fp.VerifyFn(0); err != nil {
			return "", err
		}
		return fmt.Sprintf("changed=%v\n%s", changed, fp.UnflattenFn(0)), nil
	}
	if got, err = run(opt.FlatClean); err != nil {
		return "", "", err
	}
	want, err = run(freshClean)
	return got, want, err
}

// TestFlatCleanRebuildsGraphAfterFold: folding the entry's constant branch
// into a jump changes the edge set after the first round built the CFG, so
// the same FlatClean call must rebuild it and drop the dead arm.
func TestFlatCleanRebuildsGraphAfterFold(t *testing.T) {
	f := rtl.NewFn("t", 1)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	f.Entry().Instrs = []*rtl.Instr{rtl.BranchI(rtl.C(1), then, els)}
	then.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(f.Params[0]))}
	els.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(2))}

	got, changed := runFlat(t, f, opt.FlatClean)
	if !changed {
		t.Fatal("FlatClean reported no change")
	}
	if len(got.Blocks) != 2 || got.Blocks[1].Name != "then" {
		t.Errorf("the dead else arm survived one FlatClean call:\n%s", got)
	}
	gotText, wantText, err := cleanBoth(f)
	if err != nil {
		t.Fatal(err)
	}
	if gotText != wantText {
		t.Errorf("FlatClean differs from the fresh-analysis sub-passes:\n%s\nwant\n%s", gotText, wantText)
	}
}

// sweepStageInputs compiles rtlgen corpus programs on every machine and
// calls check on the function entering every pipeline stage (the first
// sees the front end's output). It fails the test at the first error.
func sweepStageInputs(t *testing.T, check func(fn *rtl.Fn) error) {
	t.Helper()
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(1); seed <= seeds; seed++ {
		p := rtlgen.Corpus(seed, 1)[0]
		for _, m := range machine.All() {
			var mismatch error
			cfg := bench.NamedConfig("loads+stores", m)
			cfg.WrapPass = func(pass pipeline.FlatPass) pipeline.FlatPass {
				run := pass.Run
				pass.Run = func(fp *rtl.FlatProgram, fi int) error {
					if mismatch == nil {
						if err := check(fp.UnflattenFn(fi)); err != nil {
							mismatch = fmt.Errorf("before %s: %w", pass.Name, err)
						}
					}
					return run(fp, fi)
				}
				return pass
			}
			if _, err := macc.Compile(p.Src, cfg); err != nil {
				t.Fatalf("seed %d %s: compile: %v", seed, m.Name, err)
			}
			if mismatch != nil {
				t.Fatalf("seed %d %s: %v", seed, m.Name, mismatch)
			}
		}
	}
}

// TestFlatCleanMatchesFreshSubPasses requires FlatClean's printed result on
// every stage input of the sweep to equal the exported sub-passes run to
// the same fixpoint.
func TestFlatCleanMatchesFreshSubPasses(t *testing.T) {
	checks, changes := 0, 0
	sweepStageInputs(t, func(fn *rtl.Fn) error {
		got, want, err := cleanBoth(fn)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("FlatClean gives\n%s\nfresh sub-passes give\n%s", got, want)
		}
		checks++
		if strings.HasPrefix(got, "changed=true") {
			changes++
		}
		return nil
	})
	if changes == 0 || changes == checks {
		t.Fatalf("FlatClean changed %d of %d inputs: the sweep must cover both outcomes", changes, checks)
	}
}

// TestIdleSubPassLeavesFunctionAlone checks the premise that lets FlatClean
// stop after one idle lap. On every stage input of the sweep it runs
// freshClean's laps step by step: each exported sub-pass that reports no
// change must leave the function's encoded image byte-identical.
func TestIdleSubPassLeavesFunctionAlone(t *testing.T) {
	subPasses := []struct {
		name string
		run  func(*rtl.FlatProgram, int) bool
	}{
		{"FlatRemoveUnreachable", opt.FlatRemoveUnreachable},
		{"FlatFoldConstants", opt.FlatFoldConstants},
		{"FlatPropagateLocal", opt.FlatPropagateLocal},
		{"FlatPropagateImmutable", opt.FlatPropagateImmutable},
		{"FlatLocalCSE", opt.FlatLocalCSE},
		{"FlatCollapseMovChains", opt.FlatCollapseMovChains},
		{"FlatPeephole", opt.FlatPeephole},
		{"FlatDeadCodeElim", opt.FlatDeadCodeElim},
		{"FlatGlobalDCE", opt.FlatGlobalDCE},
		{"FlatEliminateDeadIVs", opt.FlatEliminateDeadIVs},
	}
	idle, busy := 0, 0
	sweepStageInputs(t, func(fn *rtl.Fn) error {
		fp, err := rtl.Flatten(rtl.NewProgram(fn))
		if err != nil {
			return err
		}
		for round := 0; round < 8; round++ {
			changed := false
			for _, sp := range subPasses {
				before := codec.EncodeProgram(fp)
				if sp.run(fp, 0) {
					changed = true
					busy++
					continue
				}
				idle++
				if after := codec.EncodeProgram(fp); !bytes.Equal(before, after) {
					was, err := codec.DecodeProgram(before)
					if err != nil {
						return err
					}
					return fmt.Errorf("%s reported no change but rewrote\n%s\nas\n%s",
						sp.name, was.UnflattenFn(0), fp.UnflattenFn(0))
				}
			}
			if !changed {
				break
			}
		}
		return nil
	})
	if idle == 0 || busy == 0 {
		t.Fatalf("%d idle and %d busy sub-pass runs: the sweep must cover both outcomes", idle, busy)
	}
}
