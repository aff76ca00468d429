package rtl

import "fmt"

// opRole is one opcode's operand roles: the slots it reads, whether it
// defines its destination, and the fields its shape requires filled. Every
// operand walk reads it: FlatFn's Def, SrcRegs, NumSrcs/Src and UsesReg,
// and VerifyFn's shape rules.
// The scheduler's DAG build and the simulator's predecode read it through
// SrcRegs and Def.
type opRole struct {
	// nsrc is how many of the slots A, B, C the opcode reads, always a
	// prefix: 1 reads A, 2 reads A and B, 3 reads all three.
	nsrc uint8
	args bool // reads the call's argument operands instead of A/B/C
	def  bool // defines Dst whenever Dst is not NoReg
	need shape
}

// shape is the set of fields an opcode's instructions must fill.
type shape uint8

const (
	needDst shape = 1 << iota
	needA
	needB
	needC
	needWidth // a valid access width
)

// opRoles is indexed by every uint8 value, so a lookup needs no bounds
// check. An entry past numOps reads A and B and defines Dst, as a binary
// opcode does, and requires nothing; VerifyFn rejects such an opcode as
// unknown before it reads the shape.
var opRoles = func() (t [256]opRole) {
	for op := range t {
		t[op] = opRole{nsrc: 2, def: true}
	}
	for op := Nop; op < numOps; op++ {
		if op.IsBinary() {
			t[op].need = needDst | needA | needB
		}
	}
	t[Nop] = opRole{}
	t[Mov] = opRole{nsrc: 1, def: true, need: needDst | needA}
	t[Neg], t[Not] = t[Mov], t[Mov]
	t[Load] = opRole{nsrc: 1, def: true, need: needDst | needA | needWidth}
	t[Store] = opRole{nsrc: 2, need: needA | needB | needWidth}
	t[Extract] = opRole{nsrc: 2, def: true, need: needDst | needA | needB | needWidth}
	t[Insert] = opRole{nsrc: 3, def: true, need: needDst | needA | needB | needC | needWidth}
	t[Jump] = opRole{}
	t[Branch] = opRole{nsrc: 1, need: needA}
	t[Ret] = opRole{nsrc: 1}
	t[Call] = opRole{args: true, def: true}
	return t
}()

// Def returns the register instruction i defines, if any.
func (f *FlatFn) Def(i int32) (Reg, bool) {
	if d := f.Dst[i]; d != NoReg && opRoles[f.Op[i]].def {
		return d, true
	}
	return NoReg, false
}

// SrcRegs appends to buf the registers instruction i reads, in slot order
// (A, B, C, or the call's arguments), and returns the extended buffer. A
// register read twice is appended twice.
func (f *FlatFn) SrcRegs(i int32, buf []Reg) []Reg {
	ro := &opRoles[f.Op[i]]
	if ro.args {
		c := &f.Calls[f.CallIdx[i]]
		for _, o := range f.Args[c.ArgStart:c.ArgEnd] {
			if o.Kind == KindReg {
				buf = append(buf, o.Reg)
			}
		}
		return buf
	}
	if ro.nsrc > 0 && f.A[i].Kind == KindReg {
		buf = append(buf, f.A[i].Reg)
	}
	if ro.nsrc > 1 && f.B[i].Kind == KindReg {
		buf = append(buf, f.B[i].Reg)
	}
	if ro.nsrc > 2 && f.C[i].Kind == KindReg {
		buf = append(buf, f.C[i].Reg)
	}
	return buf
}

// NumSrcs returns how many source operand slots instruction i reads: the
// A/B/C slots of its opcode, or its call arguments. Src addresses them.
func (f *FlatFn) NumSrcs(i int32) int {
	ro := &opRoles[f.Op[i]]
	if ro.args {
		c := &f.Calls[f.CallIdx[i]]
		return int(c.ArgEnd - c.ArgStart)
	}
	return int(ro.nsrc)
}

// Src returns a pointer to source slot k of instruction i, for
// 0 <= k < NumSrcs(i), so a pass can rewrite the operand in place. The
// slot may be empty (KindNone), as a Ret's A is when it returns nothing.
func (f *FlatFn) Src(i int32, k int) *Operand {
	if opRoles[f.Op[i]].args {
		return &f.Args[f.Calls[f.CallIdx[i]].ArgStart+int32(k)]
	}
	switch k {
	case 0:
		return &f.A[i]
	case 1:
		return &f.B[i]
	}
	return &f.C[i]
}

// UsesReg reports whether instruction i reads register r.
func (f *FlatFn) UsesReg(i int32, r Reg) bool {
	for k, n := 0, f.NumSrcs(i); k < n; k++ {
		if o := f.Src(i, k); o.Kind == KindReg && o.Reg == r {
			return true
		}
	}
	return false
}

// verifyFlatShape checks that instruction i fills the fields its opcode's
// shape requires.
func (f *FlatFn) verifyFlatShape(i int32) error {
	need := opRoles[f.Op[i]].need
	switch {
	case need&needC != 0 && f.C[i].Kind == KindNone:
		return fmt.Errorf("%s missing operand C", f.Op[i])
	case need&needDst != 0 && f.Dst[i] == NoReg:
		return fmt.Errorf("missing destination")
	case need&needA != 0 && f.A[i].Kind == KindNone:
		return fmt.Errorf("missing operand A")
	case need&needB != 0 && f.B[i].Kind == KindNone:
		return fmt.Errorf("missing operand B")
	case need&needWidth != 0 && !f.Width[i].Valid():
		return fmt.Errorf("invalid width %d", f.Width[i])
	}
	return nil
}
