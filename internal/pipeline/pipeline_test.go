package pipeline_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
)

// testFn builds a small function with arithmetic, memory traffic, and
// control flow:
//
//	f(a) { if (a) M[64] = a+5; else M[64] = a-5; return M[64] }
func testFn() *rtl.Fn {
	f := rtl.NewFn("f", 1)
	a := f.Params[0]
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.BranchI(rtl.R(a), then, els))
	r1 := f.NewReg()
	then.Instrs = append(then.Instrs,
		rtl.BinI(rtl.Add, r1, rtl.R(a), rtl.C(5)),
		rtl.StoreI(rtl.C(64), 0, rtl.R(r1), rtl.W8),
		rtl.JumpI(join))
	r2 := f.NewReg()
	els.Instrs = append(els.Instrs,
		rtl.BinI(rtl.Sub, r2, rtl.R(a), rtl.C(5)),
		rtl.StoreI(rtl.C(64), 0, rtl.R(r2), rtl.W8),
		rtl.JumpI(join))
	r3 := f.NewReg()
	join.Instrs = append(join.Instrs,
		rtl.LoadI(r3, rtl.C(64), 0, rtl.W8, true),
		rtl.RetI(rtl.R(r3)))
	return f
}

// flatTestFn is testFn as a single-function flat program.
func flatTestFn(t *testing.T) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(testFn()))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

var testArgs = [][]int64{{0}, {1}, {-9}, {1024}}

func behavior(t *testing.T, f *rtl.Fn) string {
	t.Helper()
	fp, err := pipeline.Behavior(rtl.NewProgram(f), machine.M68030(), 4096, f.Name, testArgs)
	if err != nil {
		t.Fatalf("behavior of %s: %v", f.Name, err)
	}
	return fp
}

func noop(name string) pipeline.FlatPass {
	return pipeline.FlatPass{Name: name, Run: func(*rtl.FlatProgram, int) error { return nil }}
}

// wipeEntry deletes every instruction of the entry block.
func wipeEntry(fp *rtl.FlatProgram, fi int) {
	f := &fp.Fns[fi]
	b := f.Blocks[0]
	f.SpliceInstrs(0, 0, b.InstrEnd-b.InstrStart, nil)
}

// faultyPasses are the misbehaviours the recovery machinery must contain.
// Every entry both corrupts behaviour and (except where noted) fails the
// verification checkpoint, so rollback is observable two ways.
var faultyPasses = []struct {
	name      string
	pass      pipeline.FlatPass
	wantPanic bool  // incident should carry a recovered panic + stack
	wantErr   error // the error a *PassError must unwrap to, if known
}{
	{
		name: "panic-in-pass",
		pass: pipeline.FlatPass{Name: "bad", Run: func(fp *rtl.FlatProgram, fi int) error {
			wipeEntry(fp, fi) // corrupt first, then die
			panic("pass exploded")
		}},
		wantPanic: true,
	},
	{
		name: "verifier-rejection",
		pass: pipeline.FlatPass{Name: "bad", Run: func(fp *rtl.FlatProgram, fi int) error {
			f := &fp.Fns[fi]
			last := int32(len(f.Blocks) - 1)
			b := f.Blocks[last]
			f.SpliceInstrs(last, b.InstrEnd-b.InstrStart-1, 1, nil) // drop the terminator
			return nil
		}},
	},
	{
		name: "pass-returned-error",
		pass: pipeline.FlatPass{Name: "bad", Run: func(fp *rtl.FlatProgram, fi int) error {
			wipeEntry(fp, fi)
			return errExhausted
		}},
		wantErr: errExhausted,
	},
}

var errExhausted = errors.New("resource exhausted")

func TestRecoveryRollsBackAndContinues(t *testing.T) {
	for _, tc := range faultyPasses {
		t.Run(tc.name, func(t *testing.T) {
			fp := flatTestFn(t)
			orig := fp.UnflattenFn(0).String()
			wantFP := behavior(t, testFn())

			var after int
			diags := &pipeline.Diagnostics{}
			passes := []pipeline.FlatPass{noop("pre"), tc.pass,
				{Name: "post", Run: func(*rtl.FlatProgram, int) error { after++; return nil }}}
			if err := pipeline.RunFlat(fp, 0, passes, pipeline.Options{Diags: diags}); err != nil {
				t.Fatalf("non-strict RunFlat returned %v", err)
			}
			if after != 1 {
				t.Errorf("degraded mode must still run the remaining passes; post ran %d times", after)
			}
			got := fp.UnflattenFn(0)
			if got.String() != orig {
				t.Errorf("function not rolled back:\n%s\nwant:\n%s", got, orig)
			}
			if behavior(t, got) != wantFP {
				t.Error("rollback did not preserve simulator behaviour")
			}
			if !diags.Degraded() || len(diags.Incidents) != 1 {
				t.Fatalf("want exactly one incident, got %+v", diags.Incidents)
			}
			in := diags.Incidents[0]
			if in.Pass != "bad" || in.Fn != "f" {
				t.Errorf("incident attributes pass %q fn %q", in.Pass, in.Fn)
			}
			if tc.wantPanic {
				if in.Err.Recovered == nil || len(in.Err.Stack) == 0 {
					t.Error("panic incident must carry the recovered value and stack")
				}
			} else if in.Err.Err == nil {
				t.Error("non-panic incident must carry the underlying error")
			}
			if got := diags.FailedPasses(); len(got) != 1 || got[0] != "bad" {
				t.Errorf("FailedPasses = %v", got)
			}
			if !strings.Contains(diags.String(), "bad") {
				t.Errorf("diagnostics report %q does not name the pass", diags.String())
			}
		})
	}
}

func TestStrictModePropagatesPassError(t *testing.T) {
	for _, tc := range faultyPasses {
		t.Run(tc.name, func(t *testing.T) {
			fp := flatTestFn(t)
			orig := fp.UnflattenFn(0).String()
			err := pipeline.RunFlat(fp, 0, []pipeline.FlatPass{noop("pre"), tc.pass, noop("post")},
				pipeline.Options{Strict: true})
			var pe *pipeline.PassError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PassError, got %v", err)
			}
			if pe.Pass != "bad" || pe.Fn != "f" {
				t.Errorf("PassError names pass %q fn %q", pe.Pass, pe.Fn)
			}
			if tc.wantPanic != (pe.Recovered != nil) {
				t.Errorf("Recovered = %v, wantPanic = %v", pe.Recovered, tc.wantPanic)
			}
			// The pass's own error stays reachable through the wrapper; a
			// panic has none to unwrap to.
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.wantErr)
			}
			if tc.wantPanic && errors.Unwrap(pe) != nil {
				t.Errorf("a panic's PassError unwraps to %v, want nil", errors.Unwrap(pe))
			}
			if got := fp.UnflattenFn(0).String(); got != orig {
				t.Error("strict mode must still leave the function rolled back")
			}
		})
	}
}

func TestHooksFireOnlyOnSuccess(t *testing.T) {
	fp := flatTestFn(t)
	var committed, observed []string
	mk := func(name string, fail bool) pipeline.FlatPass {
		return pipeline.FlatPass{
			Name: name,
			Run: func(*rtl.FlatProgram, int) error {
				if fail {
					panic(name)
				}
				return nil
			},
			OnSuccess: func() { committed = append(committed, name) },
		}
	}
	onPass := func(name string, got *rtl.FlatProgram, fi int) {
		if got != fp || fi != 0 {
			t.Errorf("OnPass(%s) observed function %d of another program", name, fi)
		}
		observed = append(observed, name)
	}
	err := pipeline.RunFlat(fp, 0, []pipeline.FlatPass{mk("a", false), mk("b", true), mk("c", false)},
		pipeline.Options{OnPass: onPass})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(committed); got != "[a c]" {
		t.Errorf("OnSuccess fired for %v, want [a c]", committed)
	}
	if got := fmt.Sprint(observed); got != "[a c]" {
		t.Errorf("OnPass fired for %v, want [a c]", observed)
	}
}

// flipPass silently miscompiles: it turns the then-arm's Add into a Sub,
// which still verifies and is only visible to differential execution.
func flipPass(name string) pipeline.FlatPass {
	return pipeline.FlatPass{Name: name, Run: func(fp *rtl.FlatProgram, fi int) error {
		f := &fp.Fns[fi]
		for i, op := range f.Op {
			if op == rtl.Add {
				f.Op[i] = rtl.Sub
				return nil
			}
		}
		return nil
	}}
}

// fresh returns a probe source for pipeline.Bisect: a new flat copy of
// testFn per probe.
func fresh(t *testing.T) func() (*rtl.FlatProgram, int) {
	return func() (*rtl.FlatProgram, int) { return flatTestFn(t), 0 }
}

func TestBisectFindsBehaviouralCulprit(t *testing.T) {
	want := behavior(t, testFn())
	bad := func(f *rtl.Fn) error {
		if got := behavior(t, f); got != want {
			return errors.New("diverges")
		}
		return nil
	}
	passes := []pipeline.FlatPass{noop("a"), flipPass("culprit"), noop("c"), noop("d")}
	res, err := pipeline.Bisect(fresh(t), passes, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Index != 1 || res.Pass != "culprit" {
		t.Fatalf("bisect = %v, want culprit at index 1", res)
	}
	// macc -bisect prints the result as is.
	if got, want := res.String(), `bisect: first culprit is pass 1 "culprit": diverges`; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestBisectFindsStructuralCulprit(t *testing.T) {
	healthy := func(*rtl.Fn) error { return nil }
	passes := []pipeline.FlatPass{noop("a"), noop("b"),
		{Name: "boom", Run: func(*rtl.FlatProgram, int) error { panic("boom") }}, noop("d")}
	res, err := pipeline.Bisect(fresh(t), passes, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Index != 2 || res.Pass != "boom" {
		t.Fatalf("bisect = %v, want boom at index 2", res)
	}
	var pe *pipeline.PassError
	if !errors.As(res.Err, &pe) || pe.Pass != "boom" {
		t.Errorf("culprit error should be the pass's own *PassError, got %v", res.Err)
	}
}

func TestBisectHealthyPipeline(t *testing.T) {
	res, err := pipeline.Bisect(fresh(t),
		[]pipeline.FlatPass{noop("a"), noop("b")}, func(*rtl.Fn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Fatalf("healthy pipeline reported culprit %v", res)
	}
	if got, want := res.String(), "bisect: no culprit pass (full pipeline is healthy)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestBisectRejectsBrokenBaseline(t *testing.T) {
	_, err := pipeline.Bisect(fresh(t),
		[]pipeline.FlatPass{noop("a")}, func(*rtl.Fn) error { return errors.New("always bad") })
	if err == nil {
		t.Fatal("a predicate failing before any pass must be reported as an error")
	}
}
