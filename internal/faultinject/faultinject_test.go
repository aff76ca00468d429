package faultinject_test

import (
	"errors"
	"testing"

	"macc/internal/faultinject"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

func genFn(t *testing.T, seed int64) *rtl.Fn {
	t.Helper()
	f, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// branchyFn guarantees control flow so RetargetBranch always has a victim:
//
//	f(a,b,c) { if (a) M[64] = b; else M[64] = c; return M[64] }
func branchyFn() *rtl.Fn {
	f := rtl.NewFn("f", 3)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.BranchI(rtl.R(f.Params[0]), then, els))
	then.Instrs = append(then.Instrs,
		rtl.StoreI(rtl.C(64), 0, rtl.R(f.Params[1]), rtl.W8), rtl.JumpI(join))
	els.Instrs = append(els.Instrs,
		rtl.StoreI(rtl.C(64), 0, rtl.R(f.Params[2]), rtl.W8), rtl.JumpI(join))
	r := f.NewReg()
	join.Instrs = append(join.Instrs,
		rtl.LoadI(r, rtl.C(64), 0, rtl.W8, true), rtl.RetI(rtl.R(r)))
	return f
}

var testArgs = [][]int64{{0, 0, 0}, {1, 2, 3}, {255, 1023, -7}}

func behavior(t *testing.T, f *rtl.Fn) string {
	t.Helper()
	fp, err := pipeline.Behavior(rtl.NewProgram(f), machine.M68030(), rtlgen.MemWindow*2, f.Name, testArgs)
	if err != nil {
		t.Fatalf("behavior: %v", err)
	}
	return fp
}

// TestStructuralFaultsAreCaughtAndRolledBack injects every checkpoint-visible
// fault through the Config.WrapPass hook into a pass over the second function
// of a two-function program, and asserts the hardened pipeline's contract:
// the fault is caught, the victim rolls back to a byte-identical image with
// bit-identical behaviour, the incident names the sabotaged pass, and the
// other function and the symbol table are left exactly as they were.
func TestStructuralFaultsAreCaughtAndRolledBack(t *testing.T) {
	kinds := []faultinject.Kind{
		faultinject.Panic, faultinject.ClobberReg,
		faultinject.DropTerminator, faultinject.RetargetBranch,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fired := 0
			for seed := int64(0); seed < 20; seed++ {
				f := genFn(t, seed)
				f.Name = "victim"
				if seed == 0 {
					f = branchyFn() // every kind has a victim here
					f.Name = "victim"
				}
				want := behavior(t, f)
				fp, err := rtl.Flatten(rtl.NewProgram(branchyFn(), f))
				if err != nil {
					t.Fatalf("seed %d: flatten: %v", seed, err)
				}
				before := fp.Unflatten()
				nsyms := len(fp.Syms)

				inj := &faultinject.Injector{Pass: "victim-pass", Kind: kind, Seed: seed}
				diags := &pipeline.Diagnostics{}
				passes := []pipeline.FlatPass{
					inj.Hook()(pipeline.FlatPass{Name: "victim-pass",
						Run: func(*rtl.FlatProgram, int) error { return nil }}),
				}
				if err := pipeline.RunFlat(fp, 1, passes, pipeline.Options{Diags: diags}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !inj.Fired() {
					// The seed's function had no eligible victim (e.g. no
					// branch to retarget); the compile must stay clean.
					if diags.Degraded() {
						t.Fatalf("seed %d: incident without an injection: %+v", seed, diags.Incidents)
					}
					continue
				}
				fired++
				if len(diags.Incidents) != 1 || diags.Incidents[0].Pass != "victim-pass" ||
					diags.Incidents[0].Fn != "victim" {
					t.Fatalf("seed %d: fault not caught/attributed: %+v", seed, diags.Incidents)
				}
				if err := fp.Verify(); err != nil {
					t.Fatalf("seed %d: verify after rollback: %v", seed, err)
				}
				after := fp.Unflatten()
				if after.String() != before.String() || len(fp.Syms) != nsyms {
					t.Fatalf("seed %d: program not rolled back", seed)
				}
				if behavior(t, after.Fns[1]) != want {
					t.Fatalf("seed %d: behaviour not bit-identical after rollback", seed)
				}
			}
			if fired < 3 {
				t.Fatalf("injector fired on only %d/20 seeds", fired)
			}
		})
	}
}

// victimPasses is a three-stage flat pipeline whose middle stage inj
// sabotages.
func victimPasses(inj *faultinject.Injector) []pipeline.FlatPass {
	noop := func(*rtl.FlatProgram, int) error { return nil }
	return []pipeline.FlatPass{
		{Name: "pre", Run: noop},
		inj.WrapFlat(pipeline.FlatPass{Name: "victim", Run: noop}),
		{Name: "post", Run: noop},
	}
}

// TestFlipOpIsSilentButBisectable: the semantic fault passes the verifier
// (a silent miscompile), so the pipeline cannot catch it — but differential
// bisection attributes it.
func TestFlipOpIsSilentButBisectable(t *testing.T) {
	// Find a seed whose function has a flippable op that actually changes
	// behaviour; the injection itself must stay checkpoint-invisible.
	var (
		orig *rtl.Fn
		want string
		seed int64
	)
	for seed = 0; ; seed++ {
		if seed == 30 {
			t.Fatal("no seed in 0..29 produced a divergent flip")
		}
		orig = genFn(t, seed)
		want = behavior(t, orig)
		fp := flatten(t, orig)
		inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
		diags := &pipeline.Diagnostics{}
		if err := pipeline.RunFlat(fp, 0, victimPasses(inj), pipeline.Options{Diags: diags}); err != nil {
			t.Fatal(err)
		}
		if diags.Degraded() {
			t.Fatalf("seed %d: flip-op should evade the structural checkpoint, got %+v", seed, diags.Incidents)
		}
		f := fp.UnflattenFn(0)
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: flip-op must keep the function verifiable: %v", seed, err)
		}
		if inj.Fired() && behavior(t, f) != want {
			break
		}
	}

	// A fresh injector reproduces the same corruption during bisection and
	// the differential predicate pins it on the sabotaged pass.
	inj2 := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
	bad := func(fp *rtl.FlatProgram, fi int) error {
		if behavior(t, fp.UnflattenFn(fi)) != want {
			return errors.New("diverges from reference")
		}
		return nil
	}
	res, err := pipeline.Bisect(flatten(t, orig), 0, victimPasses(inj2), bad)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Pass != "victim" {
		t.Fatalf("bisect = %v, want victim", res)
	}
}

// TestDeterminism: equal seeds corrupt identically, so every failure
// reproduces exactly.
func TestDeterminism(t *testing.T) {
	corrupt := func() string {
		fp := flatten(t, genFn(t, 7))
		inj := &faultinject.Injector{Pass: "p", Kind: faultinject.ClobberReg, Seed: 42}
		inj.WrapFlat(pipeline.FlatPass{Name: "p", Run: func(*rtl.FlatProgram, int) error { return nil }}).Run(fp, 0)
		if !inj.Fired() {
			t.Fatal("clobber-reg found no victim")
		}
		return fp.UnflattenFn(0).String()
	}
	if corrupt() != corrupt() {
		t.Error("same seed must inject the same corruption")
	}
}

func TestWrapLeavesOtherPassesAlone(t *testing.T) {
	inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.Panic}
	p := pipeline.FlatPass{Name: "other", Run: func(*rtl.FlatProgram, int) error { return nil }}
	if err := inj.WrapFlat(p).Run(flatten(t, genFn(t, 0)), 0); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() {
		t.Error("injector fired on a pass it does not target")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range faultinject.Kinds() {
		got, err := faultinject.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := faultinject.ParseKind("nonsense"); err == nil {
		t.Error("ParseKind must reject unknown kinds")
	}
}

// flatten wraps f in a single-function flat program.
func flatten(t *testing.T, f *rtl.Fn) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	return fp
}

// TestFlatStructuralFaultsAreCaughtAndRolledBack covers the single-function
// case: every checkpoint-visible fault, injected as a direct mutation of the
// struct-of-arrays form, must be caught by VerifyFn, rolled back by the flat
// snapshot journal to a byte-identical image with bit-identical behaviour,
// and attributed to the sabotaged pass.
func TestFlatStructuralFaultsAreCaughtAndRolledBack(t *testing.T) {
	kinds := []faultinject.Kind{
		faultinject.Panic, faultinject.ClobberReg,
		faultinject.DropTerminator, faultinject.RetargetBranch,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fired := 0
			for seed := int64(0); seed < 20; seed++ {
				f := genFn(t, seed)
				if seed == 0 {
					f = branchyFn() // every kind has a victim here
				}
				want := behavior(t, f)
				fp := flatten(t, f)
				orig := fp.Unflatten()
				origText := orig.String()

				inj := &faultinject.Injector{Pass: "victim", Kind: kind, Seed: seed}
				diags := &pipeline.Diagnostics{}
				passes := []pipeline.FlatPass{
					inj.WrapFlat(pipeline.FlatPass{Name: "victim",
						Run: func(*rtl.FlatProgram, int) error { return nil }}),
				}
				if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !inj.Fired() {
					if diags.Degraded() {
						t.Fatalf("seed %d: incident without an injection: %+v", seed, diags.Incidents)
					}
					continue
				}
				fired++
				if len(diags.Incidents) != 1 || diags.Incidents[0].Pass != "victim" {
					t.Fatalf("seed %d: fault not caught/attributed: %+v", seed, diags.Incidents)
				}
				if err := fp.Verify(); err != nil {
					t.Fatalf("seed %d: verify after rollback: %v", seed, err)
				}
				back := fp.Unflatten()
				if back.String() != origText {
					t.Fatalf("seed %d: flat image not rolled back", seed)
				}
				if behavior(t, back.Fns[0]) != want {
					t.Fatalf("seed %d: behaviour not bit-identical after rollback", seed)
				}
			}
			if fired < 3 {
				t.Fatalf("injector fired on only %d/20 seeds", fired)
			}
		})
	}
}

// TestFlatFlipOpIsSilent: the semantic fault must evade the flat verifier —
// the pipeline keeps the corrupted image, visible only to differential
// execution.
func TestFlatFlipOpIsSilent(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		f := genFn(t, seed)
		fp := flatten(t, f)
		inj := &faultinject.Injector{Pass: "victim", Kind: faultinject.FlipOp, Seed: seed}
		diags := &pipeline.Diagnostics{}
		passes := []pipeline.FlatPass{
			inj.WrapFlat(pipeline.FlatPass{Name: "victim",
				Run: func(*rtl.FlatProgram, int) error { return nil }}),
		}
		if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
			t.Fatal(err)
		}
		if diags.Degraded() {
			t.Fatalf("seed %d: flip-op should evade the flat checkpoint, got %+v", seed, diags.Incidents)
		}
		if err := fp.VerifyFn(0); err != nil {
			t.Fatalf("seed %d: flip-op must keep the image verifiable: %v", seed, err)
		}
		if inj.Fired() {
			return
		}
	}
	t.Fatal("no seed in 0..29 had a flippable op")
}
