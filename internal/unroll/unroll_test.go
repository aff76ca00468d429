package unroll_test

import (
	"testing"

	"macc/internal/cfg"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/sim"
	"macc/internal/unroll"
)

// buildSumLoop: for (p = a; p < a+2n; p += 2) acc += M2[p]; return acc.
func buildSumLoop() (*rtl.Fn, rtl.Reg) {
	f := rtl.NewFn("sum", 2)
	a, n := f.Params[0], f.Params[1]
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")
	p, end, acc, cond, v, nb := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{
		rtl.MovI(p, rtl.R(a)),
		rtl.BinI(rtl.Shl, nb, rtl.R(n), rtl.C(1)),
		rtl.BinI(rtl.Add, end, rtl.R(a), rtl.R(nb)),
		rtl.MovI(acc, rtl.C(0)),
		rtl.JumpI(header),
	}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(p), rtl.R(end)),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{
		rtl.LoadI(v, rtl.R(p), 0, rtl.W2, true),
		rtl.BinI(rtl.Add, acc, rtl.R(acc), rtl.R(v)),
		rtl.JumpI(latch),
	}
	latch.Instrs = []*rtl.Instr{rtl.BinI(rtl.Add, p, rtl.R(p), rtl.C(2)), rtl.JumpI(header)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(acc))}
	return f, acc
}

// shape flattens f, gives its loop a preheader, and returns the loop's
// canonical decomposition and induction analysis.
func shape(t *testing.T, f *rtl.Fn) (*rtl.FlatProgram, unroll.Canonical, *iv.FlatInfo) {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.NewFlat(fp, 0)
	l := g.FindLoops()[0]
	g.EnsurePreheader(l)
	c, ok := unroll.Shape(g.F, l)
	if !ok {
		t.Fatal("loop not canonical")
	}
	return fp, c, iv.AnalyzeFlat(g, l)
}

// normalize finishes an unroll the way the pass pipeline does — address
// normalization and a clean sweep — and returns the verified result.
func normalize(t *testing.T, fp *rtl.FlatProgram) *rtl.Fn {
	t.Helper()
	opt.FlatNormalizeAddresses(fp, 0)
	opt.FlatClean(fp, 0)
	if err := fp.VerifyFn(0); err != nil {
		t.Fatal(err)
	}
	return fp.UnflattenFn(0)
}

// name returns the label of block bi.
func name(fp *rtl.FlatProgram, bi int32) string { return fp.Syms[fp.Fns[0].Blocks[bi].Name] }

// term returns block bi's terminator in value form.
func term(t *testing.T, fp *rtl.FlatProgram, bi int32) rtl.FlatInstr {
	t.Helper()
	ti, _, ok := fp.Fns[0].TermIdx(bi)
	if !ok {
		t.Fatalf("block %s has no terminator", name(fp, bi))
	}
	return fp.Fns[0].Instr(ti)
}

func TestShapeRecognition(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, _ := shape(t, f)
	if name(fp, c.Header) != "header" || name(fp, c.Body) != "body" || name(fp, c.Latch) != "latch" {
		t.Errorf("wrong decomposition: %s/%s/%s", name(fp, c.Header), name(fp, c.Body), name(fp, c.Latch))
	}
	if name(fp, c.Exit) != "exit" {
		t.Errorf("exit = %s", name(fp, c.Exit))
	}
}

func TestUnrollSemantics(t *testing.T) {
	for _, factor := range []int{2, 4, 8} {
		for _, n := range []int64{0, 1, 3, 4, 7, 8, 9, 31, 32} {
			f, _ := buildSumLoop()
			fp, c, info := shape(t, f)
			u, err := unroll.Unroll(fp, 0, c, info, factor)
			if err != nil {
				t.Fatalf("factor %d: %v", factor, err)
			}
			if u.Factor != factor {
				t.Errorf("factor = %d", u.Factor)
			}
			normalize(t, fp)
			s := sim.NewFlat(fp, machine.Alpha(), 1<<14)
			var want int64
			for i := int64(0); i < n; i++ {
				val := i*7 - 20
				s.WriteInts(256+2*i, rtl.W2, []int64{val})
				want += rtl.Extend(val, rtl.W2, true)
			}
			res, err := s.Run("sum", 256, n)
			if err != nil {
				t.Fatalf("factor %d n %d: %v", factor, n, err)
			}
			if res.Ret != want {
				t.Errorf("factor %d n %d: got %d, want %d", factor, n, res.Ret, want)
			}
		}
	}
}

func TestUnrollProducesDisplacements(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, info := shape(t, f)
	u, err := unroll.Unroll(fp, 0, c, info, 4)
	if err != nil {
		t.Fatal(err)
	}
	bodyName := name(fp, u.Body)
	f = normalize(t, fp)
	var body *rtl.Block
	for _, b := range f.Blocks {
		if b.Name == bodyName {
			body = b
		}
	}
	if body == nil {
		t.Fatalf("unrolled body %s vanished:\n%s", bodyName, f)
	}
	var disps []int64
	for _, in := range body.Instrs {
		if in.Op == rtl.Load {
			disps = append(disps, in.Disp)
		}
	}
	want := []int64{0, 2, 4, 6}
	if len(disps) != len(want) {
		t.Fatalf("loads = %v, want %v", disps, want)
	}
	for i := range want {
		if disps[i] != want[i] {
			t.Fatalf("loads = %v, want %v", disps, want)
		}
	}
	// The pointer must advance once by 8.
	bump := 0
	ff := &fp.Fns[0]
	for bi := range ff.Blocks {
		if name(fp, int32(bi)) != bodyName {
			continue
		}
		for k := ff.Blocks[bi].InstrStart; k < ff.Blocks[bi].InstrEnd; k++ {
			if ff.Op[k] != rtl.Add {
				continue
			}
			if r, ok := ff.A[k].IsReg(); ok {
				if d, okd := ff.Def(k); okd && d == r {
					if cst, okc := ff.B[k].IsConst(); okc && cst == 8 {
						bump++
					}
				}
			}
		}
	}
	if bump != 1 {
		t.Errorf("expected exactly one folded pointer bump of 8, found %d\n%s", bump, f)
	}
}

func TestUnrollRejectsNonStrictOrUncontrolled(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, info := shape(t, f)
	info.Control.Op = rtl.SetLE
	if _, err := unroll.Unroll(fp, 0, c, info, 4); err == nil {
		t.Error("non-strict test must be rejected")
	}
	f2, _ := buildSumLoop()
	fp2, c2, info2 := shape(t, f2)
	info2.Control = nil
	if _, err := unroll.Unroll(fp2, 0, c2, info2, 4); err == nil {
		t.Error("loop without control must be rejected")
	}
}

func TestChooseFactor(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, info := shape(t, f)
	ff := &fp.Fns[0]
	if got := unroll.ChooseFactor(machine.Alpha(), ff, c, info); got != 4 {
		t.Errorf("alpha factor for shorts = %d, want 4 (64-bit word)", got)
	}
	if got := unroll.ChooseFactor(machine.M88100(), ff, c, info); got != 2 {
		t.Errorf("m88100 factor for shorts = %d, want 2 (32-bit word)", got)
	}
	// Without a control test unrolling is pointless.
	info.Control = nil
	if got := unroll.ChooseFactor(machine.Alpha(), ff, c, info); got != 1 {
		t.Errorf("factor without control = %d, want 1", got)
	}
}

func TestChooseFactorICacheCap(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, info := shape(t, f)
	ff := &fp.Fns[0]
	size := func(bi int32) int { return int(ff.Blocks[bi].InstrEnd - ff.Blocks[bi].InstrStart) }
	m := machine.Alpha()
	// Shrink the cache so factor 8 cannot fit but the rolled loop can.
	m.ICacheBytes = (size(c.Header) + 2*(size(c.Body)+size(c.Latch))) * m.BytesPerInstr
	got := unroll.ChooseFactor(m, ff, c, info)
	if got > 2 {
		t.Errorf("factor %d exceeds the instruction cache heuristic", got)
	}
}

func TestUnrollKeepsRemainderLoop(t *testing.T) {
	f, _ := buildSumLoop()
	fp, c, info := shape(t, f)
	u, err := unroll.Unroll(fp, 0, c, info, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Guard's failure edge must lead to the original rolled header.
	if g := term(t, fp, u.Header); g.Else != c.Header && g.Target != c.Header {
		t.Error("guard does not fall back to the rolled loop")
	}
	// The preheader now enters the guard.
	if term(t, fp, c.Preheader).Target != u.Header {
		t.Error("preheader does not enter the unrolled guard")
	}
}
