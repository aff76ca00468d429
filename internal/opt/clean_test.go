package opt_test

import (
	"fmt"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/rtl"
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

// cleanBoth runs FlatClean and freshClean on copies of fn and returns each
// one's change flag and printed, verified result.
func cleanBoth(fn *rtl.Fn) (got, want string, err error) {
	run := func(clean func(*rtl.FlatProgram, int) bool) (string, error) {
		fp, err := rtl.Flatten(rtl.NewProgram(fn.Clone()))
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

	got, changed := runFlat(t, f.Clone(), opt.FlatClean)
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

// TestFlatCleanMatchesFreshSubPasses compiles rtlgen corpus programs on
// every machine and, on entry to every pipeline stage (the first sees the
// front end's output), requires FlatClean's printed result to equal the
// exported sub-passes run to the same fixpoint.
func TestFlatCleanMatchesFreshSubPasses(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	checks, changes := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		p := rtlgen.Corpus(seed, 1)[0]
		for _, m := range machine.All() {
			var mismatch error
			cfg := bench.NamedConfig("loads+stores", m)
			cfg.WrapPass = func(pass pipeline.FlatPass) pipeline.FlatPass {
				run := pass.Run
				pass.Run = func(fp *rtl.FlatProgram, fi int) error {
					if mismatch == nil {
						got, want, err := cleanBoth(fp.UnflattenFn(fi))
						switch {
						case err != nil:
							mismatch = fmt.Errorf("before %s: %w", pass.Name, err)
						case got != want:
							mismatch = fmt.Errorf("before %s: FlatClean gives\n%s\nfresh sub-passes give\n%s", pass.Name, got, want)
						}
						checks++
						if strings.HasPrefix(got, "changed=true") {
							changes++
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
	if changes == 0 || changes == checks {
		t.Fatalf("FlatClean changed %d of %d inputs: the sweep must cover both outcomes", changes, checks)
	}
}
