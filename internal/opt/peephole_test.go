package opt_test

import (
	"testing"

	"macc/internal/opt"
	"macc/internal/rtl"
)

func TestPeepholeMulToShift(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Mul, r1, rtl.R(p), rtl.C(8)),
			rtl.BinI(rtl.Mul, r2, rtl.C(16), rtl.R(p)),
			rtl.BinI(rtl.Mul, r3, rtl.R(p), rtl.C(6)), // not a power of two
			rtl.RetI(rtl.R(r3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatPeephole)
	ins := f.Entry().Instrs
	if ins[0].Op != rtl.Shl || ins[0].B.Const != 3 {
		t.Errorf("mul by 8 not reduced: %s", ins[0])
	}
	if ins[1].Op != rtl.Shl || ins[1].B.Const != 4 {
		t.Errorf("16*x not reduced: %s", ins[1])
	}
	if ins[2].Op != rtl.Mul {
		t.Errorf("mul by 6 must stay: %s", ins[2])
	}
}

func TestPeepholeUnsignedDivRem(t *testing.T) {
	f := linear(1, func(f *rtl.Fn) []*rtl.Instr {
		p := f.Params[0]
		r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
		return []*rtl.Instr{
			rtl.BinI(rtl.Div, r1, rtl.R(p), rtl.C(4)),  // unsigned
			rtl.BinI(rtl.Rem, r2, rtl.R(p), rtl.C(8)),  // unsigned
			rtl.SBinI(rtl.Div, r3, rtl.R(p), rtl.C(4)), // signed: keep
			rtl.RetI(rtl.R(r3)),
		}
	})
	f, _ = runFlat(t, f, opt.FlatPeephole)
	ins := f.Entry().Instrs
	if ins[0].Op != rtl.Shr || ins[0].Signed {
		t.Errorf("unsigned div by 4 not reduced: %s", ins[0])
	}
	if ins[1].Op != rtl.And || ins[1].B.Const != 7 {
		t.Errorf("unsigned rem by 8 not reduced: %s", ins[1])
	}
	if ins[2].Op != rtl.Div {
		t.Errorf("signed division must not be naively reduced: %s", ins[2])
	}
}

func TestPeepholeBranchOnSetNE(t *testing.T) {
	f := rtl.NewFn("t", 1)
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	cond := f.NewReg()
	f.Entry().Instrs = []*rtl.Instr{
		rtl.BinI(rtl.SetNE, cond, rtl.R(f.Params[0]), rtl.C(0)),
		rtl.BranchI(rtl.R(cond), thenB, elseB),
	}
	thenB.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(1))}
	elseB.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(2))}
	f, _ = runFlat(t, f, opt.FlatPeephole)
	term := f.Entry().Term()
	if r, ok := term.A.IsReg(); !ok || r != f.Params[0] {
		t.Errorf("branch not folded onto the tested value: %s", term)
	}
	if term.Target.Name != thenB.Name {
		t.Error("SetNE fold must not swap targets")
	}
	if len(f.Entry().Instrs) != 1 {
		t.Error("dead compare not removed")
	}
}

func TestPeepholeBranchOnSetEQInverts(t *testing.T) {
	f := rtl.NewFn("t", 1)
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	cond := f.NewReg()
	f.Entry().Instrs = []*rtl.Instr{
		rtl.BinI(rtl.SetEQ, cond, rtl.R(f.Params[0]), rtl.C(0)),
		rtl.BranchI(rtl.R(cond), thenB, elseB),
	}
	thenB.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(1))}
	elseB.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(2))}
	f, _ = runFlat(t, f, opt.FlatPeephole)
	term := f.Entry().Term()
	if term.Target.Name != elseB.Name || term.Else.Name != thenB.Name {
		t.Errorf("SetEQ fold must swap targets: %s", term)
	}
}

func TestPeepholeBranchKeepsMultiUseCompare(t *testing.T) {
	f := rtl.NewFn("t", 1)
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	cond := f.NewReg()
	f.Entry().Instrs = []*rtl.Instr{
		rtl.BinI(rtl.SetNE, cond, rtl.R(f.Params[0]), rtl.C(0)),
		rtl.BranchI(rtl.R(cond), thenB, elseB),
	}
	thenB.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(cond))} // second use
	elseB.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(2))}
	f, _ = runFlat(t, f, opt.FlatPeephole)
	if f.Entry().Instrs[0].Op != rtl.SetNE {
		t.Error("compare with other uses must be kept")
	}
}
