package iv_test

import (
	"slices"
	"testing"

	"macc/internal/cfg"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/sim"
)

// buildArrayLoop creates the canonical pre-strength-reduction loop:
//
//	for (i = 0; i < n; i++) acc += M2[a + 2*i];
//
// returning the function and the registers of interest.
func buildArrayLoop() (f *rtl.Fn, iReg, accReg rtl.Reg, body *rtl.Block) {
	f = rtl.NewFn("t", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("header")
	body = f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")
	i, acc, cond := f.NewReg(), f.NewReg(), f.NewReg()
	sc, addr, val := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Shl, sc, rtl.R(i), rtl.C(1)),
		rtl.BinI(rtl.Add, addr, rtl.R(a), rtl.R(sc)),
		rtl.LoadI(val, rtl.R(addr), 0, rtl.W2, true),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(val)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}
	return f, i, acc, body
}

// analyze flattens f, gives its first loop a preheader, and analyzes it.
func analyze(t *testing.T, f *rtl.Fn) (*rtl.FlatProgram, *cfg.FlatLoop, *iv.FlatInfo) {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.NewFlat(fp, 0)
	l := g.FindLoops()[0]
	g.EnsurePreheader(l)
	return fp, l, iv.AnalyzeFlat(g, l)
}

// materialize verifies the flat function and returns it as a pointer graph.
func materialize(t *testing.T, fp *rtl.FlatProgram) *rtl.Fn {
	t.Helper()
	if err := fp.VerifyFn(0); err != nil {
		t.Fatal(err)
	}
	return fp.UnflattenFn(0)
}

// blockNamed returns f's block labelled name.
func blockNamed(t *testing.T, f *rtl.Fn, name string) *rtl.Block {
	t.Helper()
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no block %s", name)
	return nil
}

func TestBasicIVDetection(t *testing.T) {
	f, i, acc, _ := buildArrayLoop()
	_, _, info := analyze(t, f)
	biv := info.BasicIVs[i]
	if biv == nil {
		t.Fatal("i not detected as basic IV")
	}
	if biv.Step != 1 {
		t.Errorf("step = %d, want 1", biv.Step)
	}
	if info.BasicIVs[acc] != nil {
		t.Error("acc (non-constant increment) must not be an IV")
	}
}

func TestNegativeStepIV(t *testing.T) {
	f := rtl.NewFn("t", 1)
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, cond := f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.R(f.Params[0])), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetGT, cond, rtl.R(i), rtl.C(0)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{rtl.JumpI(latch)}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Sub, i, rtl.R(i), rtl.C(2)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(i))}
	_, _, info := analyze(t, f)
	biv := info.BasicIVs[i]
	if biv == nil || biv.Step != -2 {
		t.Fatalf("descending IV not detected: %+v", biv)
	}
	if info.Control == nil || info.Control.Op != rtl.SetGT || info.Control.IV != i {
		t.Errorf("descending control not recognized: %+v", info.Control)
	}
}

func TestControlRecognition(t *testing.T) {
	f, i, _, _ := buildArrayLoop()
	_, _, info := analyze(t, f)
	ctl := info.Control
	if ctl == nil {
		t.Fatal("control test not recognized")
	}
	if ctl.IV != i || ctl.Op != rtl.SetLT || !ctl.Signed {
		t.Errorf("control = %+v", ctl)
	}
	if b, ok := ctl.Bound.IsReg(); !ok || b != f.Params[1] {
		t.Errorf("bound = %v, want n", ctl.Bound)
	}
}

func TestControlThroughOffset(t *testing.T) {
	// Guard shape: t = i + 7; if t < n — as the unroller emits.
	f := rtl.NewFn("t", 1)
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	exit := f.NewBlock("e")
	i, tmp, cond := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, tmp, rtl.R(i), rtl.C(7)),
		rtl.SBinI(rtl.SetLT, cond, rtl.R(tmp), rtl.R(f.Params[0])),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(8)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(i))}
	_, _, info := analyze(t, f)
	if info.Control == nil || info.Control.IV != i {
		t.Fatalf("offset control not seen through: %+v", info.Control)
	}
}

func TestInvariantClassification(t *testing.T) {
	f, i, acc, _ := buildArrayLoop()
	_, _, info := analyze(t, f)
	if !info.Invariant(f.Params[0]) || !info.Invariant(f.Params[1]) {
		t.Error("parameters must be invariant")
	}
	if info.Invariant(i) || info.Invariant(acc) {
		t.Error("loop-varying registers misclassified")
	}
}

func TestStrengthReduceCreatesPointerIV(t *testing.T) {
	f, _, _, body := buildArrayLoop()
	fp, l, info := analyze(t, f)
	ptrs := info.StrengthReduce()
	if len(ptrs) != 1 {
		t.Fatalf("got %d pointer IVs, want 1", len(ptrs))
	}
	out := materialize(t, fp)
	p := ptrs[0]
	if p.Scale != 2 || p.Step != 2 {
		t.Errorf("scale/step = %d/%d, want 2/2", p.Scale, p.Step)
	}
	// The load must now use the pointer directly.
	var load *rtl.Instr
	for _, in := range blockNamed(t, out, body.Name).Instrs {
		if in.Op == rtl.Load {
			load = in
		}
	}
	if r, ok := load.A.IsReg(); !ok || r != p.Reg {
		t.Errorf("load base not rewritten: %s", load)
	}
	// The latch must advance the pointer.
	foundStep := false
	ff := &fp.Fns[0]
	for k := ff.Blocks[l.Latch].InstrStart; k < ff.Blocks[l.Latch].InstrEnd; k++ {
		if d, ok := ff.Def(k); ok && d == p.Reg && ff.Op[k] == rtl.Add {
			if c, _ := ff.B[k].IsConst(); c == 2 {
				foundStep = true
			}
		}
	}
	if !foundStep {
		t.Error("pointer step not in latch")
	}
}

func TestStrengthReduceSharesGroups(t *testing.T) {
	// Two loads off the same affine form with different constants must
	// share one pointer IV with distinct displacements.
	f := rtl.NewFn("t", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, acc, cond := f.NewReg(), f.NewReg(), f.NewReg()
	s1, a1, v1 := f.NewReg(), f.NewReg(), f.NewReg()
	s2, a2, a3, v2 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Shl, s1, rtl.R(i), rtl.C(0)), // i
		rtl.BinI(rtl.Add, a1, rtl.R(a), rtl.R(s1)),
		rtl.LoadI(v1, rtl.R(a1), 0, rtl.W1, false),
		rtl.BinI(rtl.Shl, s2, rtl.R(i), rtl.C(0)),
		rtl.BinI(rtl.Add, a2, rtl.R(a), rtl.R(s2)),
		rtl.BinI(rtl.Add, a3, rtl.R(a2), rtl.C(1)), // a + i + 1
		rtl.LoadI(v2, rtl.R(a3), 0, rtl.W1, false),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v1)),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v2)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}

	fp, _, info := analyze(t, f)
	ptrs := info.StrengthReduce()
	if len(ptrs) != 1 {
		t.Fatalf("expected one shared pointer IV, got %d", len(ptrs))
	}
	var disps []int64
	for _, in := range blockNamed(t, materialize(t, fp), body.Name).Instrs {
		if in.Op == rtl.Load {
			disps = append(disps, in.Disp)
		}
	}
	if len(disps) != 2 || disps[0] != 0 || disps[1] != 1 {
		t.Errorf("displacements = %v, want [0 1]", disps)
	}
}

func TestReplaceTestEliminatesCounter(t *testing.T) {
	f, i, _, _ := buildArrayLoop()
	fp, l, info := analyze(t, f)
	ptrs := info.StrengthReduce()
	if !info.ReplaceTest(ptrs) {
		t.Fatal("test not replaced")
	}
	// The header compare now tests the pointer.
	cmp := fp.Fns[0].Instr(info.Control.Cmp)
	if r, ok := cmp.A.IsReg(); !ok || r != ptrs[0].Reg {
		t.Errorf("compare A = %v, want pointer", cmp.A)
	}
	// After dead-IV elimination the counter disappears entirely.
	opt.FlatEliminateDeadIVs(fp, 0)
	opt.FlatClean(fp, 0)
	out := materialize(t, fp)
	preheader := fp.Syms[fp.Fns[0].Blocks[l.Preheader].Name]
	ff := &fp.Fns[0]
	for bi, b := range out.Blocks {
		if b.Name == preheader {
			continue // the preheader may still read i's initial value
		}
		for j, in := range b.Instrs {
			k := ff.Blocks[bi].InstrStart + int32(j)
			if d, ok := ff.Def(k); ok && d == i {
				t.Errorf("counter definition survives in %s: %s", b, in)
			}
			if slices.Contains(ff.SrcRegs(k, nil), i) {
				t.Errorf("counter use survives in %s: %s", b, in)
			}
		}
	}
}

func TestReplaceTestDeclinesNonStrict(t *testing.T) {
	f, _, _, _ := buildArrayLoop()
	_, _, info := analyze(t, f)
	// Force the control op to <=: replacement must refuse (inexact under
	// scaling).
	info.Control.Op = rtl.SetLE
	ptrs := info.StrengthReduce()
	if info.ReplaceTest(ptrs) {
		t.Error("non-strict test must not be replaced")
	}
}

func TestDecomposeRejectsNonAffine(t *testing.T) {
	// addr = a + i*i is not affine in i; no pointer IV may be created.
	f := rtl.NewFn("t", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, cond, sq, addr, v, acc := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Mul, sq, rtl.R(i), rtl.R(i)),
		rtl.BinI(rtl.Add, addr, rtl.R(a), rtl.R(sq)),
		rtl.LoadI(v, rtl.R(addr), 0, rtl.W1, false),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}

	_, _, info := analyze(t, f)
	if ptrs := info.StrengthReduce(); len(ptrs) != 0 {
		t.Errorf("non-affine address strength-reduced: %d IVs", len(ptrs))
	}
}

func TestStrengthReduceNegativeScale(t *testing.T) {
	// addr = a + (n-1-i): a mirror-style backwards walk. The pointer IV
	// must get scale -1 and a negative step.
	f := rtl.NewFn("t", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("h")
	body := f.NewBlock("b")
	latch := f.NewBlock("l")
	exit := f.NewBlock("e")
	i, acc, cond := f.NewReg(), f.NewReg(), f.NewReg()
	t1, t2, addr, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Sub, t1, rtl.R(n), rtl.C(1)),
		rtl.BinI(rtl.Sub, t2, rtl.R(t1), rtl.R(i)), // n-1-i
		rtl.BinI(rtl.Add, addr, rtl.R(a), rtl.R(t2)),
		rtl.LoadI(v, rtl.R(addr), 0, rtl.W1, false),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}

	fp, _, info := analyze(t, f)
	ptrs := info.StrengthReduce()
	if len(ptrs) != 1 {
		t.Fatalf("pointer IVs = %d, want 1", len(ptrs))
	}
	if ptrs[0].Scale != -1 || ptrs[0].Step != -1 {
		t.Errorf("scale/step = %d/%d, want -1/-1", ptrs[0].Scale, ptrs[0].Step)
	}
	// LFTR must flip the comparison direction for the descending pointer.
	if !info.ReplaceTest(ptrs) {
		t.Fatal("test not replaced")
	}
	if info.Control.Op != rtl.SetGT {
		t.Errorf("descending control op = %s, want >", info.Control.Op)
	}
	materialize(t, fp)
}

// buildExitOnTrueLoop builds the array loop of buildArrayLoop with its
// header test inverted: cond = op(i, n) (or op(n, i) when !ivLeft) and the
// branch leaves the loop when cond holds, so the loop continues on false.
func buildExitOnTrueLoop(op rtl.Op, ivLeft bool, step int64) (*rtl.Fn, rtl.Reg) {
	f := rtl.NewFn("t", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")
	i, acc, cond := f.NewReg(), f.NewReg(), f.NewReg()
	sc, addr, val := f.NewReg(), f.NewReg(), f.NewReg()
	x, y := rtl.R(i), rtl.R(n)
	if !ivLeft {
		x, y = y, x
	}
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(op, cond, x, y),
		rtl.BranchI(rtl.R(cond), exit, body),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Shl, sc, rtl.R(i), rtl.C(1)),
		rtl.BinI(rtl.Add, addr, rtl.R(a), rtl.R(sc)),
		rtl.LoadI(val, rtl.R(addr), 0, rtl.W2, true),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(val)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(step)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}
	return f, i
}

// TestControlContinuingOnFalse: a header that branches out of the loop when
// its compare holds is read as the negated compare, the continue test.
// Equality tests negate to tests the trip analysis does not accept.
func TestControlContinuingOnFalse(t *testing.T) {
	cases := []struct {
		name   string
		op     rtl.Op
		ivLeft bool
		step   int64
		want   rtl.Op // the control op; 0 when no control is recognized
	}{
		{"exit on i >= n", rtl.SetGE, true, 1, rtl.SetLT},
		{"exit on i > n", rtl.SetGT, true, 1, rtl.SetLE},
		{"exit on n <= i", rtl.SetLE, false, 1, rtl.SetLT},
		{"exit on n < i", rtl.SetLT, false, 1, rtl.SetLE},
		{"exit on i < n, descending", rtl.SetLT, true, -1, rtl.SetGE},
		{"exit on i <= n, descending", rtl.SetLE, true, -1, rtl.SetGT},
		{"exit on i == n", rtl.SetEQ, true, 1, 0},
		{"exit on i != n", rtl.SetNE, true, 1, 0},
	}
	for _, tc := range cases {
		f, i := buildExitOnTrueLoop(tc.op, tc.ivLeft, tc.step)
		_, _, info := analyze(t, f)
		ctl := info.Control
		switch {
		case tc.want == 0 && ctl != nil:
			t.Errorf("%s: control %+v recognized, want none", tc.name, ctl)
		case tc.want != 0 && (ctl == nil || ctl.IV != i || ctl.Op != tc.want):
			t.Errorf("%s: control %+v, want %s on the counter", tc.name, ctl, tc.want)
		}
	}
}

// TestReplaceTestKeepsExitOnTrue: linear function test replacement on a loop
// that continues on false must write the exit test back, p >= pend, and the
// loop must compute what it computed before.
func TestReplaceTestKeepsExitOnTrue(t *testing.T) {
	orig, _ := buildExitOnTrueLoop(rtl.SetGE, true, 1)
	f, _ := buildExitOnTrueLoop(rtl.SetGE, true, 1)
	fp, _, info := analyze(t, f)
	ptrs := info.StrengthReduce()
	if !info.ReplaceTest(ptrs) {
		t.Fatal("test not replaced")
	}
	cmp := fp.Fns[0].Instr(info.Control.Cmp)
	if r, ok := cmp.A.IsReg(); cmp.Op != rtl.SetGE || !ok || r != ptrs[0].Reg {
		t.Errorf("rewritten header test %s %v %v, want pointer >= bound", cmp.Op, cmp.A, cmp.B)
	}
	materialize(t, fp)

	const a = 256
	data := []int64{3, -1, 4, 1, -5, 9}
	for n := int64(0); n <= int64(len(data)); n++ {
		var got [2]int64
		for k, s := range []*sim.Sim{
			sim.New(rtl.NewProgram(orig), machine.Alpha(), 1024),
			sim.NewFlat(fp, machine.Alpha(), 1024),
		} {
			s.WriteInts(a, rtl.W2, data)
			res, err := s.Run("t", a, n)
			s.Release()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got[k] = res.Ret
		}
		if got[0] != got[1] {
			t.Errorf("n=%d: replaced test returns %d, original %d", n, got[1], got[0])
		}
	}
}
