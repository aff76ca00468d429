package dataflow_test

import (
	"testing"
	"testing/quick"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

func TestBitSetBasics(t *testing.T) {
	s := dataflow.NewBitSet(200)
	for _, i := range []int{0, 63, 64, 65, 127, 199} {
		s.Set(i)
	}
	for _, i := range []int{0, 63, 64, 65, 127, 199} {
		if !s.Has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("unexpected bits set")
	}
	if s.Count() != 6 {
		t.Errorf("count = %d, want 6", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 5 {
		t.Error("clear failed")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 65, 127, 199}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestBitSetOrInto(t *testing.T) {
	a := dataflow.NewBitSet(128)
	b := dataflow.NewBitSet(128)
	b.Set(5)
	b.Set(100)
	if !a.OrInto(b) {
		t.Error("OrInto should report change")
	}
	if a.OrInto(b) {
		t.Error("second OrInto should be a no-op")
	}
	if !a.Has(5) || !a.Has(100) {
		t.Error("bits not merged")
	}
}

func TestBitSetQuick(t *testing.T) {
	err := quick.Check(func(xs []uint16) bool {
		s := dataflow.NewBitSet(1 << 16)
		seen := map[int]bool{}
		for _, x := range xs {
			s.Set(int(x))
			seen[int(x)] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		for k := range seen {
			if !s.Has(k) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// flatten returns the flat image of the single-function program f.
func flatten(t *testing.T, f *rtl.Fn) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// buildLivenessFn: a loop where acc and i are live around the back edge and
// tmp is local to the body. The header and body are returned as block
// indices (blocks are laid out in creation order).
func buildLivenessFn() (*rtl.Fn, int32, int32, rtl.Reg, rtl.Reg, rtl.Reg) {
	f := rtl.NewFn("lv", 1)
	n := f.Params[0]
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	i, acc, tmp, cond := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{
		rtl.MovI(i, rtl.C(0)), rtl.MovI(acc, rtl.C(0)), rtl.JumpI(header),
	}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Mul, tmp, rtl.R(i), rtl.C(3)),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(tmp)),
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.JumpI(header),
	}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}
	return f, 1, 2, i, acc, tmp
}

func TestLiveness(t *testing.T) {
	f, header, body, i, acc, tmp := buildLivenessFn()
	lv := dataflow.ComputeFlatLiveness(cfg.NewFlat(flatten(t, f), 0))
	liveIn := func(b int32, r rtl.Reg) bool { return lv.LiveInSet(b).Has(int(r)) }
	liveOut := func(b int32, r rtl.Reg) bool { return lv.LiveOutSet(b).Has(int(r)) }

	if !liveIn(header, i) || !liveIn(header, acc) {
		t.Error("i and acc must be live into the header")
	}
	if liveIn(header, tmp) {
		t.Error("tmp must not be live into the header")
	}
	if !liveOut(body, i) || !liveOut(body, acc) {
		t.Error("loop-carried registers must be live out of the body")
	}
	if liveOut(body, tmp) {
		t.Error("tmp dies inside the body")
	}
	// acc is live out of the loop (returned).
	if !liveOut(header, acc) {
		t.Error("acc must be live out of the header (used at exit)")
	}
}

func TestDefUse(t *testing.T) {
	f := rtl.NewFn("du", 2)
	a, b := f.Params[0], f.Params[1]
	entry := f.Entry()
	t1, t2 := f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, t1, rtl.R(a), rtl.R(b)),
		rtl.BinI(rtl.Add, t2, rtl.R(t1), rtl.R(t1)),
		rtl.BinI(rtl.Add, t2, rtl.R(t2), rtl.C(1)),
		rtl.RetI(rtl.R(t2)),
	}
	du := dataflow.ComputeFlatDefUse(&flatten(t, f).Fns[0])
	if du.DefCount(t1) != 1 || du.UseCount(t1) != 2 {
		t.Errorf("t1 def/use = %d/%d, want 1/2", du.DefCount(t1), du.UseCount(t1))
	}
	if du.DefCount(t2) != 2 {
		t.Errorf("t2 defs = %d, want 2", du.DefCount(t2))
	}
	if !du.IsParam(a) || du.IsParam(t1) {
		t.Error("param classification wrong")
	}
	site, ok := du.SingleDef(t1)
	if !ok || site.Block != 0 || site.Index != 0 || site.Instr != 0 {
		t.Error("single def site wrong")
	}
	if _, ok := du.SingleDef(t2); ok {
		t.Error("t2 is multiply defined")
	}
	if _, ok := du.SingleDef(a); ok {
		t.Error("params have no SingleDef site")
	}
	if !du.Immutable(t1) || du.Immutable(t2) {
		t.Error("immutability wrong")
	}
	if !du.Immutable(a) {
		t.Error("unassigned param should be immutable")
	}
	// A param that is reassigned is not immutable.
	f2 := rtl.NewFn("du2", 1)
	f2.Entry().Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, f2.Params[0], rtl.R(f2.Params[0]), rtl.C(1)),
		rtl.RetI(rtl.R(f2.Params[0])),
	}
	du2 := dataflow.ComputeFlatDefUse(&flatten(t, f2).Fns[0])
	if du2.Immutable(f2.Params[0]) {
		t.Error("reassigned param must not be immutable")
	}
}

// TestIntoReusesStaleBuffers runs one def-use buffer and one liveness
// buffer through a sequence of functions of varying size, including steps
// from a larger function to a smaller one, and requires every result to
// equal the fresh constructors'.
func TestIntoReusesStaleBuffers(t *testing.T) {
	small, _, _, _, _, _ := buildLivenessFn()
	fns := []*rtl.Fn{}
	for seed := int64(1); seed <= 20; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fns = append(fns, fn, small)
	}
	var du dataflow.FlatDefUse
	var lv dataflow.FlatLiveness
	shrank := false
	prevRegs, prevBlocks := 0, 0
	for k, fn := range fns {
		fp := flatten(t, fn)
		f := &fp.Fns[0]
		if f.NumRegs() < prevRegs && len(f.Blocks) < prevBlocks {
			shrank = true
		}
		prevRegs, prevBlocks = f.NumRegs(), len(f.Blocks)

		dataflow.ComputeFlatDefUseInto(f, &du)
		want := dataflow.ComputeFlatDefUse(f)
		for r := rtl.Reg(0); int(r) < f.NumRegs(); r++ {
			gs, gok := du.SingleDef(r)
			ws, wok := want.SingleDef(r)
			if du.DefCount(r) != want.DefCount(r) || du.UseCount(r) != want.UseCount(r) ||
				du.IsParam(r) != want.IsParam(r) || du.Immutable(r) != want.Immutable(r) ||
				gok != wok || gs != ws {
				t.Fatalf("function %d: reused def-use differs from fresh at r%d", k, r)
			}
		}

		g := cfg.NewFlat(fp, 0)
		dataflow.ComputeFlatLivenessInto(g, &lv)
		wantLv := dataflow.ComputeFlatLiveness(g)
		for b := int32(0); int(b) < len(f.Blocks); b++ {
			if !sameSet(lv.LiveInSet(b), wantLv.LiveInSet(b)) || !sameSet(lv.LiveOutSet(b), wantLv.LiveOutSet(b)) {
				t.Fatalf("function %d: reused liveness differs from fresh at block %d", k, b)
			}
		}
	}
	if !shrank {
		t.Fatal("no step went from a larger function to a smaller one")
	}
}

func sameSet(a, b dataflow.BitSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
