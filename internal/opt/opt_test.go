package opt_test

import (
	"testing"

	"macc/internal/cfg"
	"macc/internal/opt"
	"macc/internal/rtl"
)

// linear builds a single-block function from instructions plus a return.
func linear(nparams int, build func(f *rtl.Fn) []*rtl.Instr) *rtl.Fn {
	f := rtl.NewFn("t", nparams)
	ins := build(f)
	f.Entry().Instrs = ins
	return f
}

// runFlat applies a flat pass to f and returns the verified, materialized
// result and whether the pass reported a change.
func runFlat(t *testing.T, f *rtl.Fn, pass func(*rtl.FlatProgram, int) bool) (*rtl.Fn, bool) {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	changed := pass(fp, 0)
	if err := fp.VerifyFn(0); err != nil {
		t.Fatalf("invalid output: %v", err)
	}
	return fp.UnflattenFn(0), changed
}

// defs flattens f and returns, in block order, the register each
// instruction defines (rtl.NoReg where it defines none), read from the
// flat form.
func defs(t *testing.T, f *rtl.Fn) []rtl.Reg {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	ff := &fp.Fns[0]
	out := make([]rtl.Reg, ff.NumInstrs())
	for i := range out {
		out[i], _ = ff.Def(int32(i))
	}
	return out
}

// block returns f's block labelled name.
func block(t *testing.T, f *rtl.Fn, name string) *rtl.Block {
	t.Helper()
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no block %s", name)
	return nil
}

func countOp(f *rtl.Fn, op rtl.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestFoldConstantsArithmetic(t *testing.T) {
	f := linear(0, func(f *rtl.Fn) []*rtl.Instr {
		r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Add, r1, rtl.C(2), rtl.C(3)),
			rtl.BinI(rtl.Mul, r2, rtl.C(4), rtl.C(5)),
			rtl.SBinI(rtl.SetLT, r3, rtl.C(-1), rtl.C(1)),
			rtl.RetI(rtl.R(r3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatFoldConstants)
	for i, want := range []int64{5, 20, 1} {
		in := f.Entry().Instrs[i]
		if in.Op != rtl.Mov {
			t.Errorf("instr %d not folded: %s", i, in)
			continue
		}
		if v, _ := in.A.IsConst(); v != want {
			t.Errorf("instr %d folded to %d, want %d", i, v, want)
		}
	}
}

func TestFoldIdentities(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		r1, r2, r3, r4, r5 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Add, r1, rtl.R(p), rtl.C(0)), // p
			rtl.BinI(rtl.Mul, r2, rtl.R(p), rtl.C(1)), // p
			rtl.BinI(rtl.Mul, r3, rtl.R(p), rtl.C(0)), // 0
			rtl.BinI(rtl.Sub, r4, rtl.R(p), rtl.R(p)), // 0
			rtl.BinI(rtl.Shl, r5, rtl.R(p), rtl.C(0)), // p
			rtl.RetI(rtl.R(r5)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatFoldConstants)
	ins := f.Entry().Instrs
	for _, i := range []int{0, 1, 4} {
		if ins[i].Op != rtl.Mov {
			t.Errorf("identity %d not simplified: %s", i, ins[i])
		}
		if r, ok := ins[i].A.IsReg(); !ok || r != f.Params[0] {
			t.Errorf("identity %d wrong value: %s", i, ins[i])
		}
	}
	for _, i := range []int{2, 3} {
		if v, ok := ins[i].A.IsConst(); ins[i].Op != rtl.Mov || !ok || v != 0 {
			t.Errorf("zero identity %d not simplified: %s", i, ins[i])
		}
	}
}

func TestFoldBranchOnConstant(t *testing.T) {
	f := rtl.NewFn("t", 0)
	b1 := f.NewBlock("then")
	b2 := f.NewBlock("else")
	f.Entry().Instrs = []*rtl.Instr{rtl.BranchI(rtl.C(0), b1, b2)}
	b1.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(1))}
	b2.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(2))}
	f, _ = runFlat(t, f, opt.FlatFoldConstants)
	term := f.Entry().Term()
	if term.Op != rtl.Jump || term.Target.Name != b2.Name {
		t.Errorf("branch on 0 should become jump to else: %s", term)
	}
	f, _ = runFlat(t, f, opt.FlatRemoveUnreachable)
	if len(f.Blocks) != 2 {
		t.Errorf("unreachable then-block not removed: %d blocks", len(f.Blocks))
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	f := linear(0, func(f *rtl.Fn) []*rtl.Instr {
		r := f.NewReg()
		return []*rtl.Instr{
			rtl.SBinI(rtl.Div, r, rtl.C(5), rtl.C(0)),
			rtl.RetI(rtl.R(r)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatFoldConstants)
	if f.Entry().Instrs[0].Op != rtl.Div {
		t.Error("division by zero must stay a runtime trap")
	}
}

func TestPropagateLocalChains(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		t1, t2, t3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.MovI(t1, rtl.C(7)),
			rtl.MovI(t2, rtl.R(t1)),
			rtl.BinI(rtl.Add, t3, rtl.R(t2), rtl.R(p)),
			rtl.RetI(rtl.R(t3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatPropagateLocal)
	add := f.Entry().Instrs[2]
	if v, ok := add.A.IsConst(); !ok || v != 7 {
		t.Errorf("constant not propagated through copy chain: %s", add)
	}
}

func TestPropagateLocalRespectsKills(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		t1, t2 := f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.MovI(t1, rtl.R(p)),                   // t1 = p
			rtl.BinI(rtl.Add, p, rtl.R(p), rtl.C(1)), // p changes
			rtl.MovI(t2, rtl.R(t1)),                  // must NOT become p
			rtl.RetI(rtl.R(t2)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatPropagateLocal)
	mv := f.Entry().Instrs[2]
	if r, ok := mv.A.IsReg(); !ok || r != f.Entry().Instrs[0].Dst {
		t.Errorf("stale copy propagated across kill: %s", mv)
	}
}

func TestLocalCSE(t *testing.T) {
	f := linear(2, func(f *rtl.Fn) []*rtl.Instr {
		a, b := f.Params[0], f.Params[1]
		t1, t2, t3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Add, t1, rtl.R(a), rtl.R(b)),
			rtl.BinI(rtl.Add, t2, rtl.R(a), rtl.R(b)), // CSE with t1
			rtl.BinI(rtl.Mul, t3, rtl.R(t1), rtl.R(t2)),
			rtl.RetI(rtl.R(t3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatLocalCSE)
	second := f.Entry().Instrs[1]
	if second.Op != rtl.Mov {
		t.Errorf("redundant add not CSEd: %s", second)
	}
}

func TestLocalCSEKilledByOperandRedef(t *testing.T) {
	f := linear(2, func(f *rtl.Fn) []*rtl.Instr {
		a, b := f.Params[0], f.Params[1]
		t1, t2 := f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Add, t1, rtl.R(a), rtl.R(b)),
			rtl.BinI(rtl.Add, a, rtl.R(a), rtl.C(1)),  // a changes
			rtl.BinI(rtl.Add, t2, rtl.R(a), rtl.R(b)), // NOT the same value
			rtl.RetI(rtl.R(t2)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatLocalCSE)
	third := f.Entry().Instrs[2]
	if third.Op != rtl.Add {
		t.Errorf("CSE across operand redefinition: %s", third)
	}
}

func TestLocalCSELoadsKilledByStore(t *testing.T) {
	f := linear(2, func(f *rtl.Fn) []*rtl.Instr {
		p, q := f.Params[0], f.Params[1]
		t1, t2 := f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.LoadI(t1, rtl.R(p), 0, rtl.W4, true),
			rtl.StoreI(rtl.R(q), 0, rtl.C(5), rtl.W4),
			rtl.LoadI(t2, rtl.R(p), 0, rtl.W4, true), // may alias the store
			rtl.RetI(rtl.R(t2)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatLocalCSE)
	if f.Entry().Instrs[2].Op != rtl.Load {
		t.Error("load reused across a potentially aliasing store")
	}
}

func TestLocalCSELoadsReusedWithoutStore(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		t1, t2, t3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.LoadI(t1, rtl.R(p), 4, rtl.W2, false),
			rtl.LoadI(t2, rtl.R(p), 4, rtl.W2, false),
			rtl.BinI(rtl.Add, t3, rtl.R(t1), rtl.R(t2)),
			rtl.RetI(rtl.R(t3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatLocalCSE)
	if f.Entry().Instrs[1].Op != rtl.Mov {
		t.Error("identical load not reused")
	}
}

func TestDeadCodeElimChains(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		d1, d2, live := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Add, d1, rtl.R(p), rtl.C(1)),  // dead via d2
			rtl.BinI(rtl.Mul, d2, rtl.R(d1), rtl.C(3)), // dead
			rtl.BinI(rtl.Add, live, rtl.R(p), rtl.C(2)),
			rtl.RetI(rtl.R(live)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatDeadCodeElim)
	if n := len(f.Entry().Instrs); n != 2 {
		t.Errorf("dead chain not removed: %d instrs", n)
	}
}

func TestDeadCodeKeepsSideEffects(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		d := f.NewReg()
		return []*rtl.Instr{
			rtl.StoreI(rtl.R(p), 0, rtl.C(1), rtl.W4),
			rtl.CallI(d, "g"), // result unused, call must stay
			rtl.RetI(rtl.C(0)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatDeadCodeElim)
	if countOp(f, rtl.Store) != 1 || countOp(f, rtl.Call) != 1 {
		t.Error("side-effecting instructions removed")
	}
}

func TestCollapseMovChains(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		i := f.NewReg()
		tmp := f.NewReg()
		return []*rtl.Instr{
			rtl.MovI(i, rtl.C(0)),
			rtl.BinI(rtl.Add, tmp, rtl.R(i), rtl.C(1)),
			rtl.MovI(i, rtl.R(tmp)),
			rtl.RetI(rtl.R(i)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatCollapseMovChains)
	f, _ = runFlat(t, f, opt.FlatDeadCodeElim)
	// The add should now target i directly: i = i + 1.
	found := false
	for _, in := range f.Entry().Instrs {
		if in.Op == rtl.Add {
			if r, ok := in.A.IsReg(); ok && in.Dst == r {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("induction update not collapsed:\n%s", f)
	}
}

func TestCollapseRefusesWhenUnsafe(t *testing.T) {
	// v is read between the def of t and the mov v = t: collapsing would
	// change the read.
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		v := f.NewReg()
		tm := f.NewReg()
		sink := f.NewReg()
		return []*rtl.Instr{
			rtl.MovI(v, rtl.C(5)),
			rtl.BinI(rtl.Add, tm, rtl.R(v), rtl.C(1)),
			rtl.BinI(rtl.Mul, sink, rtl.R(v), rtl.C(2)), // reads v
			rtl.MovI(v, rtl.R(tm)),
			rtl.BinI(rtl.Add, sink, rtl.R(sink), rtl.R(v)),
			rtl.RetI(rtl.R(sink)),
		}
	})
	before := f.String()
	f, _ = runFlat(t, f, opt.FlatCollapseMovChains)
	// The mul must still read the OLD v; verify v=tm mov either stayed or
	// the rewrite kept the read-before-write ordering. Simplest check: the
	// mul still precedes any redefinition of v.
	ins := f.Entry().Instrs
	def := defs(t, f) // the entry block comes first
	mulIdx, defIdx := -1, -1
	for i, in := range ins {
		if in.Op == rtl.Mul {
			mulIdx = i
		}
		if def[i] != rtl.NoReg && def[i] == ins[0].Dst && i > 0 && defIdx < 0 {
			defIdx = i
		}
	}
	if mulIdx == -1 || defIdx == -1 || mulIdx > defIdx {
		t.Errorf("unsafe collapse reordered read/write:\nbefore:\n%safter:\n%s", before, f)
	}
}

func TestThreadJumps(t *testing.T) {
	f := rtl.NewFn("t", 0)
	tramp := f.NewBlock("tramp")
	final := f.NewBlock("final")
	f.Entry().Instrs = []*rtl.Instr{rtl.JumpI(tramp)}
	tramp.Instrs = []*rtl.Instr{rtl.JumpI(final)}
	final.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	f, _ = runFlat(t, f, opt.FlatThreadJumps)
	if f.Entry().Term().Target.Name != "final" {
		t.Error("jump not threaded through trampoline")
	}
	if len(f.Blocks) != 2 {
		t.Errorf("trampoline not removed: %d blocks", len(f.Blocks))
	}
}

func TestEliminateDeadIVs(t *testing.T) {
	// i is initialized and self-incremented but otherwise unused (the
	// post-LFTR shape); v is a live accumulator that must stay.
	f := rtl.NewFn("t", 1)
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	exit := f.NewBlock("e")
	i, v, cond := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{
		rtl.MovI(i, rtl.C(0)), rtl.MovI(v, rtl.C(0)), rtl.JumpI(header),
	}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(v), rtl.R(f.Params[0])),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.BinI(rtl.Add, v, rtl.R(v), rtl.C(2)),
		rtl.JumpI(header),
	}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(v))}

	f, changed := runFlat(t, f, opt.FlatEliminateDeadIVs)
	if !changed {
		t.Fatal("dead IV not found")
	}
	def := defs(t, f)
	k := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if def[k] == i {
				t.Errorf("dead IV definition survives: %s", in)
			}
			k++
		}
	}
	if countOp(f, rtl.Add) != 1 {
		t.Errorf("live accumulator update removed")
	}
}

func TestNormalizeAddressesFoldsUnrolledChain(t *testing.T) {
	// p0 = p + 2 ; load [p0] ; p1 = p0 + 2 ; load [p1] ; p = p1
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		p0, p1, v0, v1, s := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.LoadI(v0, rtl.R(p), 0, rtl.W2, true),
			rtl.BinI(rtl.Add, p0, rtl.R(p), rtl.C(2)),
			rtl.LoadI(v1, rtl.R(p0), 0, rtl.W2, true),
			rtl.BinI(rtl.Add, p1, rtl.R(p0), rtl.C(2)),
			rtl.MovI(p, rtl.R(p1)),
			rtl.BinI(rtl.Add, s, rtl.R(v0), rtl.R(v1)),
			rtl.RetI(rtl.R(s)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatNormalizeAddresses)
	ins := f.Entry().Instrs
	// Second load must now be [p+2].
	ld := ins[2]
	if r, _ := ld.A.IsReg(); r != f.Params[0] || ld.Disp != 2 {
		t.Errorf("load not rebased: %s", ld)
	}
	// The mov-back must become p = p + 4.
	mv := ins[4]
	if mv.Op != rtl.Add || mv.Disp != 0 {
		t.Errorf("mov-back not rewritten to add: %s", mv)
	}
	if c, _ := mv.B.IsConst(); c != 4 {
		t.Errorf("mov-back folded to wrong constant: %s", mv)
	}
	f, _ = runFlat(t, f, opt.FlatDeadCodeElim)
	if countOp(f, rtl.Add) != 2 { // p update + the live sum
		t.Errorf("chain not dead after rebasing:\n%s", f)
	}
}

func TestHoistInvariants(t *testing.T) {
	f := rtl.NewFn("t", 2)
	n, k := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, acc, inv, cond := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Mul, inv, rtl.R(k), rtl.C(3)), // invariant
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(inv)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}

	f, ph, changed := hoist(t, f)
	if !changed {
		t.Fatal("nothing hoisted")
	}
	if countOp(f, rtl.Mul) != 1 {
		t.Fatal("multiply lost")
	}
	for _, in := range block(t, f, body.Name).Instrs {
		if in.Op == rtl.Mul {
			t.Error("invariant multiply still in loop body")
		}
	}
	found := false
	for _, in := range ph.Instrs {
		if in.Op == rtl.Mul {
			found = true
		}
	}
	if !found {
		t.Error("multiply not in preheader")
	}
}

// hoist runs FlatHoistInvariants on f's first loop (after giving it a
// preheader) and returns the verified result, its preheader, and whether
// anything moved.
func hoist(t *testing.T, f *rtl.Fn) (*rtl.Fn, *rtl.Block, bool) {
	t.Helper()
	var ph int32
	out, changed := runFlat(t, f, func(fp *rtl.FlatProgram, fi int) bool {
		g := cfg.NewFlat(fp, fi)
		l := g.FindLoops()[0]
		ph = g.EnsurePreheader(l)
		return opt.FlatHoistInvariants(fp, fi, l)
	})
	return out, out.Blocks[ph], changed
}

func TestHoistRefusesVariantAndDivision(t *testing.T) {
	f := rtl.NewFn("t", 2)
	n, k := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, acc, varying, quot, cond := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Mul, varying, rtl.R(i), rtl.C(3)), // depends on IV
		rtl.SBinI(rtl.Div, quot, rtl.C(100), rtl.R(k)), // divisor not constant: may trap
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(varying)),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(quot)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}

	_, ph, _ := hoist(t, f)
	for _, in := range ph.Instrs {
		if in.Op == rtl.Mul || in.Op == rtl.Div {
			t.Errorf("unsafe hoist: %s", in)
		}
	}
}

func TestGlobalDCERemovesVersionLocalDeadCode(t *testing.T) {
	// Two alternative paths define and use r9 ("v"); on the left path the
	// value is recomputed but never consumed before the path rejoins and
	// returns a constant, so the left path's definition is dead even though
	// r9 has textual uses on the right path. Use-count DCE cannot see this;
	// liveness-based DCE must.
	f := rtl.NewFn("t", 1)
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	v := f.NewReg()
	f.Entry().Instrs = []*rtl.Instr{
		rtl.MovI(v, rtl.C(1)),
		rtl.BranchI(rtl.R(f.Params[0]), left, right),
	}
	left.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Mul, v, rtl.R(v), rtl.C(100)), // dead: join returns const
		rtl.JumpI(join),
	}
	right.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, v, rtl.R(v), rtl.C(1)), // also dead at join
		rtl.JumpI(join),
	}
	join.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(42))}
	f, changed := runFlat(t, f, opt.FlatGlobalDCE)
	if !changed {
		t.Fatal("nothing removed")
	}
	if countOp(f, rtl.Mul) != 0 || countOp(f, rtl.Add) != 0 {
		t.Errorf("dead path-local defs survive:\n%s", f)
	}
	if err := f.Verify(); err != nil {
		t.Error(err)
	}
}

func TestGlobalDCEKeepsLoopCarried(t *testing.T) {
	f := rtl.NewFn("t", 1)
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	exit := f.NewBlock("e")
	i, cond := f.NewReg(), f.NewReg()
	f.Entry().Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(f.Params[0])),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.JumpI(header),
	}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(i))}
	f, _ = runFlat(t, f, opt.FlatGlobalDCE)
	if countOp(f, rtl.Add) != 1 {
		t.Error("loop-carried increment removed")
	}
}
