package rtl

import "fmt"

// Verify checks f against the structural invariants every pass must
// preserve by flattening it and running VerifyFn on the image, so the
// pointer graph and the flat form obey one set of rules. A jump or branch
// to a block outside f fails the flattening. It returns the first violation
// found, naming the function.
func (f *Fn) Verify() error {
	fp, err := Flatten(NewProgram(f))
	if err != nil {
		return err
	}
	return fp.VerifyFn(0)
}

// VerifyFn checks one flat function against the structural invariants every
// pass must preserve: blocks end in exactly one terminator, operand slots
// match the opcode's shape, calls name a callee, registers come from the
// pool, branch targets are real blocks, and the flat arrays are consistent
// (parallel arrays, contiguous block ranges, call-table and symbol indices in
// range). It is the only verifier: the compile driver runs it before any
// pass, the pass manager after every pass, and the codec on every decoded
// image. It allocates nothing on the success path; failure messages are
// formatted lazily.
func (fp *FlatProgram) VerifyFn(fi int) error {
	f := &fp.Fns[fi]
	if err := f.verifyStructure(fp, fi); err != nil {
		return err
	}
	name := func() string { return fp.symName(f.Name) }
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", name())
	}
	nregs := f.NumRegs()
	for _, p := range f.Params {
		if p < 0 || int(p) >= nregs {
			return fmt.Errorf("%s: param: register %s outside pool of %d", name(), p, nregs)
		}
	}
	nb := int32(len(f.Blocks))
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrEnd == b.InstrStart {
			return fmt.Errorf("%s/%s: empty block", name(), fp.blockName(f, int32(bi)))
		}
		where := func(i int32) string {
			return fmt.Sprintf("%s/%s[%d] op=%s", name(), fp.blockName(f, int32(bi)), i-b.InstrStart, f.Op[i])
		}
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			isLast := i == b.InstrEnd-1
			if f.Op[i].IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("%s: block does not end in terminator", where(i))
				}
				return fmt.Errorf("%s: terminator in middle of block", where(i))
			}
			if err := f.verifyFlatShape(i); err != nil {
				return fmt.Errorf("%s: %w", where(i), err)
			}
			if d, ok := f.Def(i); ok {
				if d < 0 || int(d) >= nregs {
					return fmt.Errorf("%s: dst: register %s outside pool of %d", where(i), d, nregs)
				}
			}
			if err := f.verifySrcRegs(i, nregs); err != nil {
				return fmt.Errorf("%s: %w", where(i), err)
			}
			switch f.Op[i] {
			case Jump:
				if t := f.Target[i]; t < 0 || t >= nb {
					return fmt.Errorf("%s: jump target outside function", where(i))
				}
			case Branch:
				if t := f.Target[i]; t < 0 || t >= nb {
					return fmt.Errorf("%s: branch target outside function", where(i))
				}
				if e := f.Else[i]; e < 0 || e >= nb {
					return fmt.Errorf("%s: branch target outside function", where(i))
				}
			case Call:
				if fp.Syms[f.Calls[f.CallIdx[i]].Callee] == "" {
					return fmt.Errorf("%s: call without callee", where(i))
				}
			}
		}
	}
	return nil
}

func (fp *FlatProgram) symName(s Sym) string {
	if s >= 0 && int(s) < len(fp.Syms) {
		return fp.Syms[s]
	}
	return fmt.Sprintf("sym#%d", s)
}

func (fp *FlatProgram) blockName(f *FlatFn, bi int32) string {
	b := &f.Blocks[bi]
	if n := fp.symName(b.Name); n != "" {
		return n
	}
	return fmt.Sprintf("b%d", b.ID)
}

// verifyStructure holds the Validate-style index-safety checks, scoped to
// one function so the flat pipeline can checkpoint per fn without
// revalidating the whole program.
func (f *FlatFn) verifyStructure(fp *FlatProgram, fi int) error {
	if f.Name < 0 || int(f.Name) >= len(fp.Syms) {
		return fmt.Errorf("fn %d: name sym out of range", fi)
	}
	n := len(f.Op)
	if len(f.Dst) != n || len(f.A) != n || len(f.B) != n || len(f.C) != n ||
		len(f.Width) != n || len(f.Signed) != n || len(f.Disp) != n ||
		len(f.Target) != n || len(f.Else) != n || len(f.CallIdx) != n {
		return fmt.Errorf("fn %d: instruction arrays not parallel", fi)
	}
	prevEnd := int32(0)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrStart != prevEnd || b.InstrEnd < b.InstrStart || int(b.InstrEnd) > n {
			return fmt.Errorf("fn %d block %d: range [%d,%d) not contiguous at %d", fi, bi, b.InstrStart, b.InstrEnd, prevEnd)
		}
		if b.Name < 0 || int(b.Name) >= len(fp.Syms) {
			return fmt.Errorf("fn %d block %d: name sym out of range", fi, bi)
		}
		prevEnd = b.InstrEnd
	}
	if int(prevEnd) != n {
		return fmt.Errorf("fn %d: %d instructions not covered by blocks", fi, n-int(prevEnd))
	}
	for i := 0; i < n; i++ {
		if f.Op[i] >= numOps {
			return fmt.Errorf("fn %d instr %d: unknown opcode %d", fi, i, f.Op[i])
		}
		ci := f.CallIdx[i]
		if ci < -1 || int(ci) >= len(f.Calls) {
			return fmt.Errorf("fn %d instr %d: call index %d out of range", fi, i, ci)
		}
		if (f.Op[i] == Call) != (ci >= 0) {
			return fmt.Errorf("fn %d instr %d: call index inconsistent with opcode", fi, i)
		}
	}
	for ci := range f.Calls {
		c := &f.Calls[ci]
		if c.Callee < 0 || int(c.Callee) >= len(fp.Syms) {
			return fmt.Errorf("fn %d call %d: callee sym out of range", fi, ci)
		}
		if c.ArgStart < 0 || c.ArgEnd < c.ArgStart || int(c.ArgEnd) > len(f.Args) {
			return fmt.Errorf("fn %d call %d: arg range [%d,%d) invalid", fi, ci, c.ArgStart, c.ArgEnd)
		}
	}
	return nil
}

// verifyFlatShape checks that instruction i fills the operand slots its
// opcode reads and writes.
func (f *FlatFn) verifyFlatShape(i int32) error {
	needDst := f.Dst[i] != NoReg
	needA := f.A[i].Kind != KindNone
	needB := f.B[i].Kind != KindNone
	widthOK := f.Width[i].Valid()
	switch f.Op[i] {
	case Nop, Ret:
		return nil
	case Mov, Neg, Not:
		return shapeErr(needDst, needA, true, true, f.Width[i])
	case Load:
		return shapeErr(needDst, needA, true, widthOK, f.Width[i])
	case Store:
		return shapeErr(true, needA, needB, widthOK, f.Width[i])
	case Extract:
		return shapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Insert:
		if f.C[i].Kind == KindNone {
			return fmt.Errorf("insert missing operand C")
		}
		return shapeErr(needDst, needA, needB, widthOK, f.Width[i])
	case Jump:
		return nil
	case Branch:
		if !needA {
			return fmt.Errorf("missing operand A")
		}
		return nil
	case Call:
		return nil // the callee is checked by VerifyFn
	default:
		if f.Op[i].IsBinary() {
			return shapeErr(needDst, needA, needB, true, f.Width[i])
		}
		return nil
	}
}

func shapeErr(dst, a, b, width bool, w Width) error {
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

func (f *FlatFn) verifySrcRegs(i int32, nregs int) error {
	bad, found := Reg(0), false
	f.SrcSlots(i, func(o *Operand) {
		if o.Kind == KindReg && (o.Reg < 0 || int(o.Reg) >= nregs) && !found {
			bad, found = o.Reg, true
		}
	})
	if found {
		return fmt.Errorf("register %s outside pool of %d", bad, nregs)
	}
	return nil
}
