package rtl

import (
	"fmt"
	"slices"
	"testing"
)

// The reference forms below are the per-opcode switches that the opcode-role
// table replaced, kept verbatim but for their names. TestOpRolesMatchSwitches
// holds the table to them.

func refDef(f *FlatFn, i int32) (Reg, bool) {
	if f.Dst[i] != NoReg {
		switch f.Op[i] {
		case Store, Jump, Branch, Ret, Nop:
			return NoReg, false
		}
		return f.Dst[i], true
	}
	return NoReg, false
}

func refSrcSlots(f *FlatFn, i int32, fn func(o *Operand)) {
	add := func(o *Operand) {
		if o.Kind != KindNone {
			fn(o)
		}
	}
	switch f.Op[i] {
	case Nop, Jump:
	case Mov, Neg, Not, Load, Ret:
		add(&f.A[i])
	case Branch:
		add(&f.A[i])
	case Store:
		add(&f.A[i])
		add(&f.B[i])
	case Extract:
		add(&f.A[i])
		add(&f.B[i])
	case Insert:
		add(&f.A[i])
		add(&f.B[i])
		add(&f.C[i])
	case Call:
		c := &f.Calls[f.CallIdx[i]]
		for ai := c.ArgStart; ai < c.ArgEnd; ai++ {
			add(&f.Args[ai])
		}
	default: // binary ops
		add(&f.A[i])
		add(&f.B[i])
	}
}

func refVerifyFlatShape(f *FlatFn, i int32) error {
	needDst := f.Dst[i] != NoReg
	needA := f.A[i].Kind != KindNone
	needB := f.B[i].Kind != KindNone
	widthOK := f.Width[i].Valid()
	switch f.Op[i] {
	case Nop, Ret:
		return nil
	case Mov, Neg, Not:
		return refShapeErr(needDst, needA, true, true, f.Width[i])
	case Load:
		return refShapeErr(needDst, needA, true, widthOK, f.Width[i])
	case Store:
		return refShapeErr(true, needA, needB, widthOK, f.Width[i])
	case Extract:
		return refShapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Insert:
		if f.C[i].Kind == KindNone {
			return fmt.Errorf("insert missing operand C")
		}
		return refShapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Jump:
		return nil
	case Branch:
		if !needA {
			return fmt.Errorf("missing operand A")
		}
		return nil
	case Call:
		return nil
	default:
		if f.Op[i].IsBinary() {
			return refShapeErr(needDst, needA, needB, true, f.Width[i])
		}
		return nil
	}
}

func refShapeErr(dst, a, b, width bool, w Width) error {
	switch {
	case !dst:
		return fmt.Errorf("missing destination")
	case !a:
		return fmt.Errorf("missing operand A")
	case !b:
		return fmt.Errorf("missing operand B")
	case !width:
		return fmt.Errorf("invalid width %d", w)
	}
	return nil
}

// slotName names the field of f's instruction 0 that o points at.
func slotName(f *FlatFn, o *Operand) string {
	switch o {
	case &f.A[0]:
		return "A"
	case &f.B[0]:
		return "B"
	case &f.C[0]:
		return "C"
	}
	for ai := range f.Args {
		if o == &f.Args[ai] {
			return fmt.Sprintf("arg%d", ai)
		}
	}
	return "?"
}

// TestOpRolesMatchSwitches builds one-instruction functions for every
// opcode, and for one past the last, with every mix of filled and empty
// destination, operand slots and width. The table-driven Def, SrcRegs,
// Src, UsesReg and verifyFlatShape must agree with the switches they
// replaced.
func TestOpRolesMatchSwitches(t *testing.T) {
	operands := []Operand{{}, R(1), C(-4)}
	args := []Operand{R(2), C(7), {}, R(3), R(2)}
	cases := 0
	for op := Nop; op <= numOps; op++ {
		for _, dst := range []Reg{NoReg, 5} {
			for _, w := range []Width{0, W4, 3} {
				for _, a := range operands {
					for _, b := range operands {
						for _, c := range []Operand{{}, R(4), C(9)} {
							f := &FlatFn{
								NextReg: 8,
								Op:      []Op{op}, Dst: []Reg{dst},
								A: []Operand{a}, B: []Operand{b}, C: []Operand{c},
								Width: []Width{w}, Signed: []bool{false}, Disp: []int64{0},
								Target: []int32{-1}, Else: []int32{-1}, CallIdx: []int32{-1},
								Args: slices.Clone(args),
							}
							if op == Call {
								f.CallIdx[0] = 0
								f.Calls = []FlatCall{{ArgStart: 0, ArgEnd: int32(len(args))}}
							}
							checkRoles(t, f)
							cases++
						}
					}
				}
			}
		}
	}
	if want := int(numOps+1) * 2 * 3 * 27; cases != want {
		t.Fatalf("checked %d cases, want %d", cases, want)
	}
}

func checkRoles(t *testing.T, f *FlatFn) {
	t.Helper()
	desc := fmt.Sprintf("%s dst=%s a=%s b=%s c=%s w=%d", f.Op[0], f.Dst[0], f.A[0], f.B[0], f.C[0], f.Width[0])
	var wantSlots []string
	var wantRegs []Reg
	refSrcSlots(f, 0, func(o *Operand) {
		wantSlots = append(wantSlots, slotName(f, o))
		if o.Kind == KindReg {
			wantRegs = append(wantRegs, o.Reg)
		}
	})

	var gotSlots []string
	for k, n := 0, f.NumSrcs(0); k < n; k++ {
		if o := f.Src(0, k); o.Kind != KindNone {
			gotSlots = append(gotSlots, slotName(f, o))
		}
	}
	if !slices.Equal(gotSlots, wantSlots) {
		t.Errorf("%s: Src slots %v, want %v", desc, gotSlots, wantSlots)
	}
	if got := f.SrcRegs(0, nil); !slices.Equal(got, wantRegs) {
		t.Errorf("%s: SrcRegs %v, want %v", desc, got, wantRegs)
	}
	for r := Reg(0); r < 8; r++ {
		if got, want := f.UsesReg(0, r), slices.Contains(wantRegs, r); got != want {
			t.Errorf("%s: UsesReg(%s) = %v, want %v", desc, r, got, want)
		}
	}
	gd, gok := f.Def(0)
	wd, wok := refDef(f, 0)
	if gd != wd || gok != wok {
		t.Errorf("%s: Def = %s,%v, want %s,%v", desc, gd, gok, wd, wok)
	}
	if got, want := fmt.Sprint(f.verifyFlatShape(0)), fmt.Sprint(refVerifyFlatShape(f, 0)); got != want {
		t.Errorf("%s: shape error %q, want %q", desc, got, want)
	}
}
